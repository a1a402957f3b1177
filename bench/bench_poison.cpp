// Poisoning-resistance benchmark: coordinated uploaders vs the provenance +
// reputation + robust-aggregation defense, swept over the poisoned-uploader
// fraction.
//
//   bench_poison --history=600 --area=30 --uploaders=20 --flood=40
//                --shift=15 --probes=32 --threads=1
//
// The attack is the cell-shift flood the adversarial test battery pins
// (tests/poison_test.cpp): an honest crowd seeds the durable CrowdStore with
// the analytic linear field, then each poisoner floods a patch of cells with
// observations whose RSSIs are read `shift` metres east of the claimed
// position — the forged-history analogue of the paper's GPS forgery, aimed
// at the reference store instead of a single upload.  For each poisoned
// fraction the bench measures:
//
//   * detection: every poisoner must end auto-quarantined, no honest
//     uploader may, and the rank AUC of reputation scores (honest vs
//     poisoner) is reported;
//   * honest-accuracy regression: verdict accuracy of a detector assembled
//     from trusted_points() (the robust/quarantine path) must stay within
//     one percentage point of the clean-store detector on the same probe
//     mix, at every swept fraction — while the undefended mean path (a
//     detector assembled from all points, poison included) is reported for
//     contrast;
//   * oracle equivalence: with trimming disabled the robust aggregator must
//     answer bitwise the plain pooled mean (reference::pooled_cell_mean)
//     for every (cell, AP) of the poisoned store (the trim = 0 exact-mean
//     contract).
//
// Exit code 0 iff detection is perfect, the robust regression bound holds
// and the trim = 0 path is bit-identical at every fraction; the mean path's
// degradation is reported, not asserted (how far it falls depends on probe
// overlap with the patch — the contract is that the robust path does not
// follow it).  BENCH_poison.json records everything, written atomically.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/durable/durable_file.hpp"
#include "common/rng.hpp"
#include "core/trajkit.hpp"
#include "reference/wifi_reference.hpp"
#include "support/fixtures.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"
#include "wifi/provenance.hpp"

using namespace trajkit;
namespace ts = trajkit::test_support;

namespace {

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

/// Fraction of probes whose verdict matches the ground-truth label.
double accuracy(const wifi::RssiDetector& detector,
                const std::vector<wifi::ScannedUpload>& probes) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const int expected = i % 2 == 0 ? 1 : 0;  // probe_mix alternates, real first
    if (detector.analyze(probes[i]).verdict == expected) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(probes.size());
}

/// Rank AUC of reputation scores: P(honest score > poisoner score), ties 0.5.
double reputation_auc(const wifi::CrowdStore& store,
                      const std::vector<wifi::UploaderId>& honest,
                      const std::vector<wifi::UploaderId>& poisoners) {
  if (honest.empty() || poisoners.empty()) return 1.0;
  double wins = 0.0;
  for (const auto h : honest) {
    const double hs = store.reputation().record(h).score;
    for (const auto p : poisoners) {
      const double ps = store.reputation().record(p).score;
      if (hs > ps) wins += 1.0;
      else if (hs == ps) wins += 0.5;
    }
  }
  return wins / static_cast<double>(honest.size() * poisoners.size());
}

/// True iff the trim = 0 robust estimate is bit-identical to the plain
/// pooled mean for every (cell, AP) of the store.
bool trim_zero_bitwise_equal(const wifi::CrowdStore& store) {
  const auto& grid = store.provenance();
  const wifi::RobustCellAggregator agg(grid, {0.0, 2});
  for (const auto& [cell, mac] : grid.keys()) {
    const Enu probe{(static_cast<double>(cell.first) + 0.5) * grid.cell_size_m(),
                    (static_cast<double>(cell.second) + 0.5) * grid.cell_size_m()};
    double estimate = 0.0;
    if (!agg.estimate(probe, mac, &estimate)) return false;
    const auto oracle = wifi::reference::pooled_cell_mean(
        store.points(), grid.cell_size_m(), probe, mac);
    if (!oracle || std::memcmp(&estimate, &*oracle, sizeof estimate) != 0) {
      return false;
    }
  }
  return true;
}

struct SweepResult {
  double fraction = 0.0;
  std::size_t poisoners = 0;
  std::size_t poison_points = 0;
  std::size_t quarantined = 0;
  bool detection_exact = false;  ///< quarantined set == poisoner set
  double auc = 1.0;
  double acc_mean = 0.0;    ///< detector over all points (undefended)
  double acc_robust = 0.0;  ///< detector over trusted_points()
  double regression = 0.0;  ///< |acc_robust - clean accuracy|
  bool trim0_identical = false;
};

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto history = static_cast<int>(flags.get_int("history", 600));
  const double area_m = flags.get_double("area", 30.0);
  const auto uploaders = static_cast<std::size_t>(flags.get_int("uploaders", 20));
  const auto flood = static_cast<std::size_t>(flags.get_int("flood", 40));
  const double shift_m = flags.get_double("shift", 15.0);
  const auto probe_count = static_cast<std::size_t>(flags.get_int("probes", 32));
  const double patch_m = flags.get_double("patch", 12.0);
  const std::string store_dir = "bench_poison_store";
  const std::vector<double> fractions = {0.0, 0.1, 0.2, 0.3};

  std::printf("== Crowd poisoning: provenance + reputation vs coordinated floods ==\n");
  std::printf("%d honest points over %.0fm x %.0fm from %zu uploaders; poisoners "
              "flood %zu shifted scans each (%.0fm cell shift); %zu probes\n\n",
              history, area_m, area_m, uploaders, flood, shift_m, probe_count);

  ts::LinearWorldConfig world_cfg;
  world_cfg.area_m = area_m;
  world_cfg.history_points = history;
  ts::LinearFieldWorld world(world_cfg);
  const auto& oracle_like = world.detector();
  const auto probes = world.probe_mix(probe_count);
  const double acc_clean = accuracy(oracle_like, probes);

  // The flooded patch sits in the middle of the area, inside the upload
  // envelope, so real probes do cross it — the undefended mean path has
  // something to get wrong.
  const double patch_lo = (area_m - patch_m) / 2.0;

  std::vector<SweepResult> results;
  bool all_detected = true;
  bool all_within_bound = true;
  bool all_trim0 = true;

  for (std::size_t step = 0; step < fractions.size(); ++step) {
    const double fraction = fractions[step];
    const auto poisoner_count =
        static_cast<std::size_t>(fraction * static_cast<double>(uploaders) + 0.5);
    const std::size_t honest_count = uploaders - poisoner_count;

    remove_store(store_dir);
    auto store = wifi::CrowdStore::open(store_dir, /*sync_each_append=*/false);
    if (!store) {
      std::fprintf(stderr, "store: %s\n", store.error().c_str());
      return 1;
    }

    // Honest crowd: the trained world's reference set, in index order,
    // attributed round-robin to the honest uploader ids.
    std::vector<wifi::UploaderId> honest_ids;
    for (std::size_t u = 0; u < honest_count; ++u) {
      honest_ids.push_back(static_cast<wifi::UploaderId>(1 + u));
    }
    for (std::size_t i = 0; i < oracle_like.index().size(); ++i) {
      auto seq = store.value()->append(oracle_like.index().point(i),
                                       honest_ids[i % honest_ids.size()]);
      if (!seq) {
        std::fprintf(stderr, "append: %s\n", seq.error().c_str());
        return 1;
      }
    }

    // Coordinated flood: every poisoner reports the patch as it would look
    // `shift_m` further east — consistent forged physics, the hard case for
    // outlier rejection on a single observation.
    std::vector<wifi::UploaderId> poisoner_ids;
    SweepResult r;
    for (std::size_t p = 0; p < poisoner_count; ++p) {
      const auto uploader = static_cast<wifi::UploaderId>(1000 + p);
      poisoner_ids.push_back(uploader);
      Rng rng = Rng::substream(0x9015'0000 + step, p);
      for (std::size_t j = 0; j < flood; ++j) {
        const Enu pos{patch_lo + rng.uniform(0.0, patch_m),
                      patch_lo + rng.uniform(0.0, patch_m)};
        const Enu heard{pos.east + shift_m, pos.north};
        auto seq = store.value()->append(
            {pos,
             {{1, ts::LinearFieldWorld::field_rssi(heard)}},
             static_cast<std::uint32_t>(900000 + p)},
            uploader);
        if (!seq) {
          std::fprintf(stderr, "poison append: %s\n", seq.error().c_str());
          return 1;
        }
        ++r.poison_points;
      }
    }

    r.fraction = fraction;
    r.poisoners = poisoner_count;
    r.quarantined = store.value()->reputation().quarantined().size();
    r.detection_exact = r.quarantined == poisoner_count;
    for (const auto u : poisoner_ids) {
      r.detection_exact =
          r.detection_exact && store.value()->reputation().is_quarantined(u);
    }
    for (const auto u : honest_ids) {
      r.detection_exact =
          r.detection_exact && !store.value()->reputation().is_quarantined(u);
    }
    r.auc = reputation_auc(*store.value(), honest_ids, poisoner_ids);
    r.trim0_identical = trim_zero_bitwise_equal(*store.value());

    // Undefended mean path: the detector simply believes every point.
    const auto mean_detector = wifi::RssiDetector::assemble(
        store.value()->arrays(), oracle_like.config(), oracle_like.classifier(),
        oracle_like.trained_points());
    r.acc_mean = accuracy(*mean_detector, probes);

    // Defended path: quarantine holds the flood out of the serving set.
    const auto robust_detector = wifi::RssiDetector::assemble(
        store.value()->trusted_points(), oracle_like.config(),
        oracle_like.classifier(), oracle_like.trained_points());
    r.acc_robust = accuracy(*robust_detector, probes);
    r.regression = std::abs(r.acc_robust - acc_clean);

    all_detected = all_detected && r.detection_exact;
    all_within_bound = all_within_bound && r.regression <= 0.01;
    all_trim0 = all_trim0 && r.trim0_identical;
    results.push_back(r);
  }
  remove_store(store_dir);

  TextTable table({"poisoned", "poisoners", "flood pts", "quarantined", "AUC",
                   "acc clean", "acc mean", "acc robust", "regression",
                   "trim0 ="});
  for (const auto& r : results) {
    table.add_row({TextTable::num(r.fraction * 100.0, 0) + "%",
                   std::to_string(r.poisoners), std::to_string(r.poison_points),
                   std::to_string(r.quarantined),
                   r.poisoners ? TextTable::num(r.auc, 3) : "n/a",
                   TextTable::num(acc_clean, 3), TextTable::num(r.acc_mean, 3),
                   TextTable::num(r.acc_robust, 3),
                   TextTable::num(r.regression * 100.0, 2) + "pp",
                   r.trim0_identical ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::printf("\ndetection: %s\n",
              all_detected ? "OK (every poisoner quarantined, every honest "
                             "uploader trusted, at every fraction)"
                           : "FAILED (a poisoner escaped or an honest uploader "
                             "was quarantined!)");
  std::printf("robust accuracy: %s\n",
              all_within_bound
                  ? "OK (within 1pp of the clean store at every fraction)"
                  : "FAILED (the defended path regressed past the bound!)");
  std::printf("trim=0 oracle: %s\n",
              all_trim0 ? "OK (bitwise-equal to the pooled mean everywhere)"
                        : "FAILED (the exact-mean contract broke!)");

  std::string json = "{\n  \"history\": " + std::to_string(history);
  json += ",\n  \"uploaders\": " + std::to_string(uploaders);
  json += ",\n  \"probes\": " + std::to_string(probe_count);
  {
    char buf[64];
    std::snprintf(buf, sizeof buf, ",\n  \"acc_clean\": %.6f", acc_clean);
    json += buf;
  }
  json += ",\n  \"sweep\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    char buf[384];
    std::snprintf(buf, sizeof buf,
                  "%s\n    {\"fraction\": %.2f, \"poisoners\": %zu, "
                  "\"poison_points\": %zu, \"quarantined\": %zu, "
                  "\"detection_exact\": %s, \"auc\": %.4f, "
                  "\"acc_mean\": %.6f, \"acc_robust\": %.6f, "
                  "\"regression\": %.6f, \"trim0_identical\": %s}",
                  i == 0 ? "" : ",", r.fraction, r.poisoners, r.poison_points,
                  r.quarantined, r.detection_exact ? "true" : "false", r.auc,
                  r.acc_mean, r.acc_robust, r.regression,
                  r.trim0_identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n  \"detection_perfect\": ";
  json += all_detected ? "true" : "false";
  json += ",\n  \"robust_within_bound\": ";
  json += all_within_bound ? "true" : "false";
  json += ",\n  \"trim0_identical\": ";
  json += all_trim0 ? "true" : "false";
  json += "\n}\n";
  if (durable::write_file_atomic("BENCH_poison.json", json)) {
    std::printf("wrote BENCH_poison.json\n");
  }

  return all_detected && all_within_bound && all_trim0 ? 0 : 1;
}
