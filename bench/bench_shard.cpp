// Geo-sharded serving benchmark: ShardRouter scale-out vs the single-shard
// baseline.
//
// The router's contract (serve/shard_router.hpp) is that sharding changes
// *where* segments are evaluated, never *what* comes back: merged verdicts
// are bitwise-identical to the unsharded oracle.  This bench prices the other
// half — what splitting, per-segment fan-out and merging cost or buy once
// trajectories spread over the tile ring.
//
//   bench_shard --history=2400 --area=60 --requests=96 --clients=4 --threads=1
//
// One leg per shard count {1, 2, 4}: a ShardRouter driven by --clients
// concurrent client threads replaying the same request pool, each fanning its
// segments out synchronously on its own thread; the 1-shard leg is the
// baseline.  Run with --threads=1 so the deterministic pool adds no
// intra-segment parallelism and concurrency comes only from the clients.
//
// Per-request latencies feed p50/p99; every leg's payload checksum (XOR of
// per-request FNV-1a over the canonical verdict strings, order-independent
// so client interleaving cannot change it) must equal the oracle's.  Exit
// code 0 iff every leg matched — speedups are reported, not asserted, since
// wall-clock on a loaded box is noise but identity is the contract.
// BENCH_shard.json records both (written atomically, like every bench
// artifact).
//
// A second table prices the *transport* (serve/net_shard over src/net): the
// same request pool through a 4-shard router whose segments are answered
// in-process, over a clean SimNet loopback, over a SimNet chaos schedule
// (drops + straggler delays + one fully partitioned shard, exercising retry,
// hedged fan-out and local-fallback degradation), and over real Unix-domain
// sockets.  Checksum equality with the oracle is asserted for every
// transport leg — chaos may degrade *where* a segment is evaluated, never
// the bits that come back.  --net_only=1 runs just this table (the
// bench_net_smoke CTest gate).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/durable/durable_file.hpp"
#include "core/trajkit.hpp"
#include "net/sim.hpp"
#include "net/uds.hpp"
#include "serve/net_shard.hpp"
#include "serve/shard_router.hpp"
#include "support/fixtures.hpp"

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

double latency_percentile(const std::vector<double>& sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[rank];
}

struct LegResult {
  std::size_t shards = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t segments = 0;
  bool identical = false;
};

struct TransportLeg {
  std::string name;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t remote_segments = 0;
  std::uint64_t degraded = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t hedges = 0;
  bool identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto history = static_cast<int>(flags.get_int("history", 2400));
  const double area_m = flags.get_double("area", 60.0);
  const auto upload_points =
      static_cast<std::size_t>(flags.get_int("points", 10));
  const auto request_count =
      static_cast<std::size_t>(flags.get_int("requests", 96));
  const auto clients = static_cast<std::size_t>(flags.get_int("clients", 4));
  const double tile_m = flags.get_double("tile", 8.0);
  const bool net_only = flags.get_int("net_only", 0) != 0;

  std::printf("== Geo-sharded serving: router legs vs single-shard oracle ==\n");
  std::printf("%d reference points over %.0fm x %.0fm, %zu requests x %zu-point "
              "uploads, %zu client threads, %.0fm tiles\n\n",
              history, area_m, area_m, request_count, upload_points, clients,
              tile_m);

  // The city: a scaled linear-field world — cheap to build at any size, and
  // deterministic, so reruns compare cleanly.
  ts::LinearWorldConfig world_cfg;
  world_cfg.area_m = area_m;
  world_cfg.history_points = history;
  world_cfg.upload_points = upload_points;
  ts::LinearFieldWorld world(world_cfg);

  // Request pool: local random walks, not the fixture's uniform position
  // draws — a pedestrian crosses a tile boundary every few points, which is
  // the locality geo-sharding monetises (uniform draws would shred every
  // trajectory into single-point segments and only measure fan-out overhead).
  const double lo = world_cfg.margin_m;
  const double hi = world_cfg.area_m - world_cfg.margin_m;
  Rng& rng = world.rng();
  std::vector<wifi::ScannedUpload> pool;
  pool.reserve(request_count);
  for (std::size_t r = 0; r < request_count; ++r) {
    const Enu start{rng.uniform(lo, hi), rng.uniform(lo, hi)};
    auto walk = ts::random_walk_enu(rng, upload_points, 2.0, start);
    wifi::ScannedUpload upload;
    for (Enu& p : walk) {
      p.east = std::clamp(p.east, lo, hi);
      p.north = std::clamp(p.north, lo, hi);
      upload.positions.push_back(p);
      upload.scans.push_back({{1, ts::LinearFieldWorld::field_rssi(p)}});
    }
    pool.push_back(std::move(upload));
  }

  // Oracle pass: the unsharded detector, one thread, cold timing ignored —
  // only the payload checksum matters here.
  std::uint64_t oracle_checksum = 0;
  for (const auto& upload : pool) {
    oracle_checksum ^= fnv1a(world.detector().analyze(upload).canonical_string());
  }

  std::vector<LegResult> legs;
  bool all_identical = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    if (net_only) break;
    serve::ShardRouterConfig rc;
    rc.shards = shards;
    rc.tile_m = tile_m;
    serve::ShardRouter router(world.detector(), rc);

    std::vector<std::uint64_t> client_checksums(clients, 0);
    std::vector<std::vector<double>> client_latencies(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const double t0 = now_s();
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t r = c; r < pool.size(); r += clients) {
          const double rt0 = now_s();
          const auto response = router.verify(pool[r], r);
          client_latencies[c].push_back((now_s() - rt0) * 1e6);
          if (response.outcome != serve::Outcome::kOk) {
            std::fprintf(stderr, "request %zu failed: %s\n", r,
                         response.error.c_str());
            return;
          }
          client_checksums[c] ^= fnv1a(response.report.canonical_string());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double seconds = now_s() - t0;

    LegResult leg;
    leg.shards = shards;
    leg.seconds = seconds;
    std::vector<double> latencies;
    for (std::size_t c = 0; c < clients; ++c) {
      leg.checksum ^= client_checksums[c];
      latencies.insert(latencies.end(), client_latencies[c].begin(),
                       client_latencies[c].end());
    }
    std::sort(latencies.begin(), latencies.end());
    leg.p50_us = latency_percentile(latencies, 0.50);
    leg.p99_us = latency_percentile(latencies, 0.99);
    leg.segments = router.counters().segments;
    leg.identical = latencies.size() == pool.size() &&
                    leg.checksum == oracle_checksum;
    all_identical = all_identical && leg.identical;
    legs.push_back(leg);
  }

  const double baseline_s = legs.empty() ? 0.0 : legs.front().seconds;
  if (!net_only) {
    TextTable table({"shards", "seconds", "verdicts/s", "p50 us", "p99 us",
                     "segments", "speedup", "identical"});
    for (const auto& leg : legs) {
      table.add_row({std::to_string(leg.shards), TextTable::num(leg.seconds, 3),
                     TextTable::num(static_cast<double>(request_count) / leg.seconds, 1),
                     TextTable::num(leg.p50_us, 1), TextTable::num(leg.p99_us, 1),
                     std::to_string(leg.segments),
                     TextTable::num(baseline_s / leg.seconds, 2) + "x",
                     leg.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
    std::printf("\noracle checksum = %016llx\n",
                static_cast<unsigned long long>(oracle_checksum));
    std::printf("verdicts: %s\n\n",
                all_identical
                    ? "OK (bitwise-identical across every shard count)"
                    : "FAILED (sharding changed a verdict!)");
  }

  // -- Transport legs: the same pool over serve/net_shard backends -----------

  const std::size_t top_k = world.detector().config().confidence.top_k;
  const std::size_t net_shards = 4;

  // Drive the pool through `router` with the configured client threads and
  // fold per-request latencies + the order-independent verdict checksum.
  const auto drive = [&](serve::ShardRouter& router, TransportLeg& leg) {
    std::vector<std::uint64_t> checksums(clients, 0);
    std::vector<std::vector<double>> lats(clients);
    std::vector<std::thread> threads;
    const double t0 = now_s();
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t r = c; r < pool.size(); r += clients) {
          const double rt0 = now_s();
          const auto response = router.verify(pool[r], r);
          lats[c].push_back((now_s() - rt0) * 1e6);
          if (response.outcome != serve::Outcome::kOk) {
            std::fprintf(stderr, "[%s] request %zu failed: %s\n",
                         leg.name.c_str(), r, response.error.c_str());
            return;
          }
          checksums[c] ^= fnv1a(response.report.canonical_string());
        }
      });
    }
    for (auto& t : threads) t.join();
    leg.seconds = now_s() - t0;
    std::vector<double> latencies;
    for (std::size_t c = 0; c < clients; ++c) {
      leg.checksum ^= checksums[c];
      latencies.insert(latencies.end(), lats[c].begin(), lats[c].end());
    }
    std::sort(latencies.begin(), latencies.end());
    leg.p50_us = latency_percentile(latencies, 0.50);
    leg.p99_us = latency_percentile(latencies, 0.99);
    const auto counters = router.counters();
    leg.remote_segments = counters.remote_segments;
    leg.degraded = counters.degraded_shard_verdicts;
    for (const auto& stats : counters.per_shard_net) {
      leg.retries += stats.retries;
      leg.timeouts += stats.timeouts;
      leg.hedges += stats.hedges;
    }
    leg.identical = latencies.size() == pool.size() &&
                    leg.checksum == oracle_checksum;
  };

  std::vector<TransportLeg> net_legs;

  {  // In-process baseline: resident slices, no transport at all.
    TransportLeg leg;
    leg.name = "inproc";
    serve::ShardRouterConfig rc;
    rc.shards = net_shards;
    rc.tile_m = tile_m;
    serve::ShardRouter router(world.detector(), rc);
    drive(router, leg);
    net_legs.push_back(leg);
  }

  {  // Clean SimNet loopback: every segment over the simulated wire.
    TransportLeg leg;
    leg.name = "simnet";
    net::SimNet sim(0x5eed);
    serve::ShardRouterConfig rc;
    rc.shards = net_shards;
    rc.tile_m = tile_m;
    serve::ShardRouter router(world.detector(), rc);
    for (std::size_t s = 0; s < net_shards; ++s) {
      sim.bind("seg-" + std::to_string(s),
               serve::make_segment_handler(router.shard(s)));
      router.set_remote_evaluator(
          s, std::make_shared<serve::RemoteSegmentClient>(
                 sim, std::vector<std::string>{"seg-" + std::to_string(s)},
                 top_k));
    }
    drive(router, leg);
    net_legs.push_back(leg);
  }

  {  // SimNet chaos: drops on both legs, a straggling primary replica per
     // shard (hedged to a clean secondary), and shard 0 fully partitioned —
     // its segments must degrade to the resident slice, bit-for-bit.
    TransportLeg leg;
    leg.name = "simnet-chaos";
    net::SimNet sim(0xc4a05);
    serve::ShardRouterConfig rc;
    rc.shards = net_shards;
    rc.tile_m = tile_m;
    serve::ShardRouter router(world.detector(), rc);
    net::SimFaultSpec primary;
    primary.drop = 0.15;
    primary.delay = 0.3;
    primary.delay_min_us = 15'000;  // past the 10ms hedge deadline
    primary.delay_max_us = 60'000;
    net::SimFaultSpec resp;
    resp.drop = 0.1;
    for (std::size_t s = 0; s < net_shards; ++s) {
      const std::string a = "seg-" + std::to_string(s) + "a";
      const std::string b = "seg-" + std::to_string(s) + "b";
      sim.bind(a, serve::make_segment_handler(router.shard(s)));
      sim.bind(b, serve::make_segment_handler(router.shard(s)));
      sim.set_faults(a, primary, resp);
      router.set_remote_evaluator(
          s, std::make_shared<serve::RemoteSegmentClient>(
                 sim, std::vector<std::string>{a, b}, top_k));
    }
    sim.partition("seg-0a", net::SimNet::Partition::kFull);
    sim.partition("seg-0b", net::SimNet::Partition::kFull);
    drive(router, leg);
    net_legs.push_back(leg);
  }

  {  // Real Unix-domain sockets: one server per shard, framed RPCs.
    TransportLeg leg;
    leg.name = "uds";
    serve::ShardRouterConfig rc;
    rc.shards = net_shards;
    rc.tile_m = tile_m;
    serve::ShardRouter router(world.detector(), rc);
    net::UdsTransport transport;
    serve::NetCallPolicy policy;
    policy.rpc_deadline_us = 2'000'000;  // real I/O under load: generous
    std::vector<std::unique_ptr<net::UdsServer>> servers;
    bool uds_up = true;
    for (std::size_t s = 0; s < net_shards; ++s) {
      const std::string path =
          "bench_shard_seg_" + std::to_string(::getpid()) + "_" +
          std::to_string(s) + ".sock";
      servers.push_back(std::make_unique<net::UdsServer>(
          path, serve::make_segment_handler(router.shard(s))));
      auto started = servers.back()->start();
      if (!started.has_value()) {
        std::fprintf(stderr, "uds leg: %s\n", started.error().c_str());
        uds_up = false;
        break;
      }
      router.set_remote_evaluator(
          s, std::make_shared<serve::RemoteSegmentClient>(
                 transport, std::vector<std::string>{path}, top_k, policy));
    }
    if (uds_up) {
      drive(router, leg);
      net_legs.push_back(leg);
    }
    for (auto& server : servers) {
      server->stop();
      ::unlink(server->path().c_str());
    }
  }

  std::printf("== Transport legs: 4-shard router over serve/net_shard ==\n");
  TextTable net_table({"transport", "seconds", "verdicts/s", "p50 us",
                       "p99 us", "remote", "degraded", "retries", "timeouts",
                       "hedges", "identical"});
  for (const auto& leg : net_legs) {
    net_table.add_row(
        {leg.name, TextTable::num(leg.seconds, 3),
         TextTable::num(static_cast<double>(request_count) / leg.seconds, 1),
         TextTable::num(leg.p50_us, 1), TextTable::num(leg.p99_us, 1),
         std::to_string(leg.remote_segments), std::to_string(leg.degraded),
         std::to_string(leg.retries), std::to_string(leg.timeouts),
         std::to_string(leg.hedges), leg.identical ? "yes" : "NO"});
    all_identical = all_identical && leg.identical;
  }
  net_table.print(std::cout);
  std::printf("\ntransport verdicts: %s\n",
              all_identical
                  ? "OK (bitwise-identical over every transport + chaos)"
                  : "FAILED (a transport leg changed or lost a verdict!)");

  // Emitted atomically (temp + rename): readers see a complete report or the
  // previous one, never a torn JSON.
  std::string json = "{\n  \"oracle_checksum\": \"";
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(oracle_checksum));
    json += buf;
  }
  json += "\",\n  \"requests\": " + std::to_string(request_count);
  json += ",\n  \"clients\": " + std::to_string(clients);
  json += ",\n  \"legs\": [";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"shards\": %zu, \"seconds\": %.6f, "
                  "\"verdicts_per_sec\": %.3f, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"speedup\": %.3f, \"identical\": %s}",
                  i == 0 ? "" : ",", legs[i].shards, legs[i].seconds,
                  static_cast<double>(request_count) / legs[i].seconds,
                  legs[i].p50_us, legs[i].p99_us,
                  baseline_s / legs[i].seconds,
                  legs[i].identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n  \"transport_legs\": [";
  for (std::size_t i = 0; i < net_legs.size(); ++i) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"transport\": \"%s\", \"seconds\": %.6f, "
                  "\"verdicts_per_sec\": %.3f, \"p50_us\": %.1f, "
                  "\"p99_us\": %.1f, \"remote_segments\": %llu, "
                  "\"degraded\": %llu, \"retries\": %llu, "
                  "\"timeouts\": %llu, \"hedges\": %llu, \"identical\": %s}",
                  i == 0 ? "" : ",", net_legs[i].name.c_str(),
                  net_legs[i].seconds,
                  static_cast<double>(request_count) / net_legs[i].seconds,
                  net_legs[i].p50_us, net_legs[i].p99_us,
                  static_cast<unsigned long long>(net_legs[i].remote_segments),
                  static_cast<unsigned long long>(net_legs[i].degraded),
                  static_cast<unsigned long long>(net_legs[i].retries),
                  static_cast<unsigned long long>(net_legs[i].timeouts),
                  static_cast<unsigned long long>(net_legs[i].hedges),
                  net_legs[i].identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n  \"identical\": ";
  json += all_identical ? "true" : "false";
  json += "\n}\n";
  if (durable::write_file_atomic("BENCH_shard.json", json)) {
    std::printf("wrote BENCH_shard.json\n");
  }

  return all_identical ? 0 : 1;
}
