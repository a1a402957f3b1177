// Online-model hot-swap benchmark: staleness vs throughput under continuous
// crowd ingestion, and the price of an epoch flip.
//
//   bench_hotswap --history=6000 --area=60 --epochs=4 --append=120
//                 --requests=64 --threads=1
//
// (the defaults; this is the command that writes BENCH_hotswap.json).
//
// The serving loop the paper's deployment shape implies: crowdsourced scans
// stream into a durable CrowdStore while a VerifierService answers uploads,
// and every so often the accumulated points are published as a new model
// epoch (serve/service.hpp publish_epoch) — assembly under the pinned grid
// bounds, artifact commit, RCU flip.  Per epoch this bench measures:
//
//   * staleness: wall time of publish_epoch — the window between "the data is
//     durable" and "the model serves it";
//   * zero drops: a client thread hammers verify_now throughout the flip;
//     every response must come back kOk, served by whichever epoch it
//     snapshotted;
//   * correctness: the post-flip verdict checksum (FNV-1a over canonical
//     payloads) must equal a stop-the-world oracle — a detector rebuilt from
//     scratch over the full store under the same pinned grid bounds.
//
// Exit code 0 iff every epoch's checksum matched and no in-flight request was
// dropped; timings are reported, not asserted (wall-clock on a loaded box is
// noise, identity is the contract).  BENCH_hotswap.json records everything,
// written atomically like every bench artifact.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/durable/artifact_store.hpp"
#include "common/durable/durable_file.hpp"
#include "core/trajkit.hpp"
#include "serve/service.hpp"
#include "support/fixtures.hpp"
#include "wifi/crowd_store.hpp"

using namespace trajkit;
namespace ts = trajkit::test_support;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

void remove_artifacts(const std::string& dir) {
  for (std::uint64_t epoch = 1; epoch <= 256; ++epoch) {
    std::remove((dir + "/detector." + std::to_string(epoch)).c_str());
  }
  std::remove((dir + "/CURRENT").c_str());
  std::remove((dir + "/CURRENT.tmp").c_str());
  ::rmdir(dir.c_str());
}

struct EpochResult {
  std::uint64_t epoch = 0;
  std::size_t appended = 0;
  double publish_ms = 0.0;     ///< staleness window: append-durable -> serving
  std::size_t inflight_ok = 0; ///< verify_now responses during the flip
  std::size_t inflight_total = 0;
  double serve_s = 0.0;        ///< probe pass after the flip
  std::uint64_t checksum = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto history = static_cast<int>(flags.get_int("history", 6000));
  const double area_m = flags.get_double("area", 60.0);
  const auto epochs = static_cast<std::size_t>(flags.get_int("epochs", 4));
  const auto append_per_epoch =
      static_cast<std::size_t>(flags.get_int("append", 120));
  const auto request_count =
      static_cast<std::size_t>(flags.get_int("requests", 64));
  const std::string store_dir = "bench_hotswap_store";
  const std::string artifact_dir = "bench_hotswap_artifacts";

  std::printf("== Online hot-swap: incremental epochs vs stop-the-world ==\n");
  std::printf("%d seed points over %.0fm x %.0fm, %zu epochs x %zu appends, "
              "%zu probes per boundary\n\n",
              history, area_m, area_m, epochs, append_per_epoch, request_count);

  ts::LinearWorldConfig world_cfg;
  world_cfg.area_m = area_m;
  world_cfg.history_points = history;
  ts::LinearFieldWorld world(world_cfg);
  const auto& oracle_like = world.detector();

  // Seed the durable store with the trained world's reference set, in index
  // order, so the assembled serving detector matches the fixture exactly.
  remove_store(store_dir);
  remove_artifacts(artifact_dir);
  auto store = wifi::CrowdStore::open(store_dir, /*sync_each_append=*/false);
  if (!store) {
    std::fprintf(stderr, "store: %s\n", store.error().c_str());
    return 1;
  }
  for (std::size_t i = 0; i < oracle_like.index().size(); ++i) {
    auto seq = store.value()->append(oracle_like.index()[i]);
    if (!seq) {
      std::fprintf(stderr, "append: %s\n", seq.error().c_str());
      return 1;
    }
  }

  auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
  if (!artifacts) {
    std::fprintf(stderr, "artifacts: %s\n", artifacts.error().c_str());
    return 1;
  }

  serve::VerifierServiceConfig config;
  config.auto_start = false;  // sync verify paths; no dispatcher needed
  serve::VerifierService service(
      wifi::RssiDetector::assemble(
          store.value()->points(), oracle_like.config(), oracle_like.classifier(),
          oracle_like.trained_points()),
      config);
  const BoundingBox bounds = service.detector().index().bounds();

  std::vector<serve::VerificationRequest> requests;
  {
    const auto probes = world.probe_mix(request_count);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      requests.push_back({i + 1, probes[i], 0});
    }
  }
  const double lo = world_cfg.margin_m;
  const double hi = world_cfg.area_m - world_cfg.margin_m;
  Rng& rng = world.rng();
  std::vector<EpochResult> results;
  bool all_identical = true;
  bool zero_drops = true;

  const double patch_m = flags.get_double("patch", 6.0);
  for (std::size_t round = 1; round <= epochs; ++round) {
    // Continuous ingestion: the next batch of crowdsourced scans lands in the
    // WAL before the epoch that folds them in is published.  Each epoch's
    // batch is localised to one small patch — the realistic shape (a venue
    // getting fresh scans).
    const Enu patch{rng.uniform(lo, hi - patch_m), rng.uniform(lo, hi - patch_m)};
    for (std::size_t i = 0; i < append_per_epoch; ++i) {
      const Enu p{patch.east + rng.uniform(0.0, patch_m),
                  patch.north + rng.uniform(0.0, patch_m)};
      auto seq = store.value()->append(
          {p,
           {{1, ts::LinearFieldWorld::field_rssi(p)}},
           static_cast<std::uint32_t>(100000 + round * 1000 + i / 5)});
      if (!seq) {
        std::fprintf(stderr, "append: %s\n", seq.error().c_str());
        return 1;
      }
    }

    EpochResult r;
    r.appended = append_per_epoch;

    // In-flight traffic across the flip: requests that snapshot the old epoch
    // finish on it, new ones see the replacement — nothing may drop.
    std::atomic<bool> publishing{true};
    std::atomic<std::size_t> inflight_ok{0};
    std::atomic<std::size_t> inflight_total{0};
    std::thread client([&] {
      std::size_t i = 0;
      while (publishing.load(std::memory_order_relaxed)) {
        const auto response =
            service.verify_now(requests[i++ % requests.size()].upload);
        inflight_total.fetch_add(1, std::memory_order_relaxed);
        if (response.outcome == serve::Outcome::kOk) {
          inflight_ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    const double t0 = now_s();
    auto epoch = service.publish_epoch(*store.value(), artifacts.value().get());
    r.publish_ms = (now_s() - t0) * 1e3;
    publishing.store(false, std::memory_order_relaxed);
    client.join();
    if (!epoch) {
      std::fprintf(stderr, "publish: %s\n", epoch.error().c_str());
      return 1;
    }
    r.epoch = epoch.value();
    r.inflight_ok = inflight_ok.load();
    r.inflight_total = inflight_total.load();
    zero_drops = zero_drops && r.inflight_ok == r.inflight_total;

    // Stop-the-world oracle: rebuild from scratch under the same pinned
    // bounds — the correctness reference for the published epoch.
    auto oracle = wifi::RssiDetector::assemble(
        store.value()->points(), oracle_like.config(), oracle_like.classifier(),
        oracle_like.trained_points(), bounds);

    // Serving after the flip, and the checksum comparison.
    const double t1 = now_s();
    const auto responses = service.verify_batch(requests);
    r.serve_s = now_s() - t1;
    std::uint64_t oracle_checksum = 0;
    for (const auto& request : requests) {
      oracle_checksum ^= fnv1a(oracle->analyze(request.upload).canonical_string());
    }

    for (const auto& response : responses) {
      if (response.outcome != serve::Outcome::kOk) {
        std::fprintf(stderr, "epoch %llu: dropped probe (%s)\n",
                     static_cast<unsigned long long>(r.epoch),
                     response.error.c_str());
        zero_drops = false;
      }
      r.checksum ^= fnv1a(response.report.canonical_string());
    }
    r.identical = r.checksum == oracle_checksum;
    all_identical = all_identical && r.identical;
    results.push_back(r);
  }

  TextTable table({"epoch", "appended", "publish ms", "inflight ok", "verdicts/s",
                   "identical"});
  for (const auto& r : results) {
    table.add_row({std::to_string(r.epoch), std::to_string(r.appended),
                   TextTable::num(r.publish_ms, 2),
                   std::to_string(r.inflight_ok) + "/" +
                       std::to_string(r.inflight_total),
                   TextTable::num(static_cast<double>(request_count) / r.serve_s, 1),
                   r.identical ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("\nverdicts: %s\n",
              all_identical
                  ? "OK (every epoch checksum-equal to the oracle rebuild)"
                  : "FAILED (a hot-swap changed a verdict!)");
  std::printf("in-flight: %s\n",
              zero_drops ? "OK (zero requests dropped across every flip)"
                         : "FAILED (a flip dropped a request!)");

  std::string json = "{\n  \"history\": " + std::to_string(history);
  json += ",\n  \"requests\": " + std::to_string(request_count);
  json += ",\n  \"epochs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"epoch\": %llu, \"appended\": %zu, "
                  "\"publish_ms\": %.3f, \"inflight_ok\": %zu, "
                  "\"inflight_total\": %zu, \"serve_s\": %.6f, "
                  "\"identical\": %s}",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(r.epoch),
                  r.appended, r.publish_ms, r.inflight_ok, r.inflight_total,
                  r.serve_s, r.identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n  \"identical\": ";
  json += all_identical ? "true" : "false";
  json += ",\n  \"zero_drops\": ";
  json += zero_drops ? "true" : "false";
  json += "\n}\n";
  if (durable::write_file_atomic("BENCH_hotswap.json", json)) {
    std::printf("wrote BENCH_hotswap.json\n");
  }

  return all_identical && zero_drops ? 0 : 1;
}
