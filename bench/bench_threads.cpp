// Thread-scaling micro-benchmark for the deterministic execution layer.
//
// Times the two heaviest pipeline stages — scenario batch generation
// (simulate + attach scans) and detector evaluation (Eq. 8 featurisation +
// per-point RPD confidence) — at --threads 1 and --threads N, reports the
// speedup, and cross-checks a result checksum to demonstrate that the
// parallel run is bit-identical to the serial one.
//
//   bench_threads --threads=4 --total=300 --points=30
//
// Defaults to hardware_concurrency for the parallel leg when --threads is
// not given.  The speedup tracks the CPUs the run actually gets (about 1x
// with one); the checksum equality proves the determinism contract on any
// machine.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <thread>

#include "common/parallel.hpp"
#include "core/trajkit.hpp"
#include "wifi/features.hpp"

using namespace trajkit;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct RunResult {
  double gen_s = 0.0;
  double eval_s = 0.0;
  double checksum = 0.0;  ///< order-sensitive digest of everything computed
};

RunResult run_once(std::size_t total, std::size_t points) {
  RunResult r;

  const double t0 = now_s();
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  const auto batch = scenario.scanned_real(total, points, 2.0);
  r.gen_s = now_s() - t0;

  // Split: most of the batch becomes provider history, the rest test uploads.
  std::vector<wifi::ScannedUpload> history;
  std::vector<wifi::ScannedUpload> test;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    (i < batch.size() * 3 / 4 ? history : test).push_back(core::to_upload(batch[i]));
  }

  const double t1 = now_s();
  wifi::RssiDetector detector(wifi::flatten_history(history), {});
  std::vector<double> features;
  std::vector<double> point_scores;
  for (const auto& upload : test) {
    detector.segment_features(upload, features, point_scores);
    for (double f : features) {
      r.checksum = r.checksum * 1.000000059604644775390625 + f;
    }
  }
  r.eval_s = now_s() - t1;

  // Fold trajectory geometry into the digest too, so the generation stage is
  // covered by the equality check as well.
  for (const auto& traj : batch) {
    for (const auto& p : traj.true_positions) {
      r.checksum = r.checksum * 1.000000059604644775390625 + p.east + p.north;
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto total = static_cast<std::size_t>(flags.get_int("total", 200));
  const auto points = static_cast<std::size_t>(flags.get_int("points", 30));
  const std::size_t parallel_threads = global_threads();

  std::printf("== Thread scaling: generation + detector evaluation ==\n");
  std::printf("%zu trajectories x %zu points; parallel leg uses %zu thread(s)\n\n",
              total, points, parallel_threads);

  set_global_threads(1);
  const RunResult serial = run_once(total, points);
  set_global_threads(parallel_threads);
  const RunResult parallel = run_once(total, points);
  set_global_threads(0);

  TextTable table({"stage", "serial (s)", "parallel (s)", "speedup"});
  table.add_row({"generate batch", TextTable::num(serial.gen_s, 3),
                 TextTable::num(parallel.gen_s, 3),
                 TextTable::num(serial.gen_s / parallel.gen_s, 2) + "x"});
  table.add_row({"featurise + RPD", TextTable::num(serial.eval_s, 3),
                 TextTable::num(parallel.eval_s, 3),
                 TextTable::num(serial.eval_s / parallel.eval_s, 2) + "x"});
  const double s_total = serial.gen_s + serial.eval_s;
  const double p_total = parallel.gen_s + parallel.eval_s;
  table.add_row({"total", TextTable::num(s_total, 3), TextTable::num(p_total, 3),
                 TextTable::num(s_total / p_total, 2) + "x"});
  table.print(std::cout);

  const bool identical = serial.checksum == parallel.checksum;
  std::printf("\nchecksum serial   = %.17g\n", serial.checksum);
  std::printf("checksum parallel = %.17g\n", parallel.checksum);
  std::printf("determinism: %s\n",
              identical ? "OK (bit-identical across thread counts)"
                        : "FAILED (results depend on thread count!)");
  return identical ? 0 : 1;
}
