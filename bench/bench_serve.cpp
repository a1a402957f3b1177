// Serving-layer benchmark: batched VerifierService vs a stateless
// one-request-at-a-time handler.
//
// The baseline models the pre-serving deployment shape: each request is
// analysed one at a time on the caller's thread.  The service leg runs the
// same requests through submit()/micro-batching on the deterministic pool.
//
//   bench_serve --total=200 --points=30 --requests=120 --batch=16 --ingest=1000
//
// A payload checksum (FNV-1a over the canonical response strings) is compared
// across the two legs: the speedup must come purely from scheduling, never
// from changing a verdict.  Exit code 0 iff the checksums
// match.
//
// A third, faulty-mode leg replays the same requests under an armed chaos
// schedule (--fault_rate on the dispatch path, a sprinkle of poisoned RPD
// reference points; --fault_seed reproduces a run exactly).  It measures what the
// retry + degradation machinery costs and proves that under injected faults
// the service still answers every request (ok or degraded, never dropped).
//
// A fourth, ingestion leg prices the write-ahead journal: the same --ingest
// validated reference points are appended to a bare in-memory vector, to a
// CrowdStore with batched fsync, and to a CrowdStore that fsyncs every
// append.  The overhead column is the slowdown crash-safe ingestion costs
// relative to the in-memory baseline; the recovered store must replay every
// appended point byte-identically or the run fails.
//
// A fifth, motion-sidecar leg arms the same service with an LSTM motion
// model and runs the request mix twice: fp64 lane vs the gated int8
// quantized lane (nn/quant_classifier).  The quant lane's probabilities are
// not bit-identical — the QuantGate budgets that — so the compared stream is
// the *discrete* verdict stream: the (bit-identical) RSSI payload plus the
// motion verdict at threshold 0.5, FNV-digested.  Exit is non-zero on any
// disagreement; the speedup comes from the VNNI int8 GEMM + fused
// polynomial activations and is reported, not asserted.  The default
// --motion_hidden sizes the sidecar so the NN dominates the request cost —
// the regime quantization exists for; at small hidden sizes the RSSI
// evaluation dominates and Amdahl caps the end-to-end gain regardless of
// kernel speed (bench_nn isolates the kernel-level ratios).  --quant_only=1
// runs just this leg (the bench_quant_smoke CTest gate).
#include <chrono>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "core/trajkit.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

using namespace trajkit;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);  // wires --threads into set_global_threads
  const auto total = static_cast<std::size_t>(flags.get_int("total", 200));
  const auto points = static_cast<std::size_t>(flags.get_int("points", 30));
  const auto request_count = static_cast<std::size_t>(flags.get_int("requests", 120));
  const auto max_batch = static_cast<std::size_t>(flags.get_int("batch", 16));
  const double fault_rate = flags.get_double("fault_rate", 0.3);
  const auto fault_seed = static_cast<std::uint64_t>(flags.get_int("fault_seed", 42));
  const auto ingest_count =
      static_cast<std::size_t>(flags.get_int("ingest", 1000));
  // Motion-sidecar leg: sized so the NN annotation dominates the batch cost
  // (that is the hot path the quantized lane accelerates).
  const auto motion_hidden =
      static_cast<std::size_t>(flags.get_int("motion_hidden", 384));
  const auto motion_epochs =
      static_cast<std::size_t>(flags.get_int("motion_epochs", 1));
  const auto motion_reps =
      std::max<std::size_t>(1, static_cast<std::size_t>(flags.get_int("reps", 3)));
  const bool quant_only = flags.get_int("quant_only", 0) != 0;

  std::printf("== Serving: stateless per-request baseline vs batched service ==\n");
  std::printf("%zu historical trajectories x %zu points, %zu requests, "
              "max_batch %zu\n\n",
              total, points, request_count, max_batch);

  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  Rng& rng = scenario.rng();
  const auto collected = scenario.scanned_real(total, points, 2.0);
  const double min_d = attack::paper_mind(Mode::kWalking);

  // Provider-side setup: history -> reference store -> trained detector.
  const std::size_t hist_count = collected.size() * 3 / 4;
  std::vector<wifi::ScannedUpload> history_uploads;
  for (std::size_t i = 0; i < hist_count; ++i) {
    history_uploads.push_back(core::to_upload(collected[i]));
  }
  wifi::RssiDetector detector(wifi::flatten_history(history_uploads), {});

  std::vector<wifi::ScannedUpload> train;
  std::vector<int> labels;
  const std::size_t train_real = hist_count * 3 / 4;
  for (std::size_t i = 0; i < train_real; ++i) {
    auto upload = core::to_upload(collected[i]);
    upload.source_traj_id = static_cast<std::uint32_t>(i);
    train.push_back(std::move(upload));
    labels.push_back(1);
  }
  for (std::size_t i = train_real; i < hist_count; ++i) {
    train.push_back(core::forge_upload(collected[i], min_d + 0.1, 1, rng));
    labels.push_back(0);
  }
  detector.train(train, labels);

  // Request mix: fresh reals plus forged replays of random history, cycled to
  // the requested volume — the "many clients moving through the same city"
  // shape a real service sees.
  std::vector<wifi::ScannedUpload> pool;
  for (std::size_t i = hist_count; i < collected.size(); ++i) {
    pool.push_back(core::to_upload(collected[i]));
  }
  const std::size_t fresh_count = pool.size();
  for (std::size_t i = 0; i < fresh_count; ++i) {
    const auto& source = collected[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hist_count) - 1))];
    pool.push_back(core::forge_upload(source, min_d + 0.1, 1, rng));
  }
  std::vector<serve::VerificationRequest> requests;
  for (std::size_t r = 0; r < request_count; ++r) {
    requests.push_back({r, pool[r % pool.size()], 0});
  }

  // -- Motion sidecar: fp64 lane vs the gated int8 quantized lane ------------
  auto motion_encoder = std::make_shared<DistAngleEncoder>();
  auto motion_model = [&] {
    std::vector<FeatureSequence> mxs;
    std::vector<int> mys;
    for (std::size_t i = 0; i < train.size(); ++i) {
      if (train[i].positions.size() < 2) continue;
      mxs.push_back(motion_encoder->encode(train[i].positions));
      mys.push_back(labels[i]);
    }
    nn::LstmClassifierConfig mcfg;
    mcfg.hidden_dim = motion_hidden;
    auto model = std::make_shared<nn::LstmClassifier>(mcfg, 5);
    model->train(mxs, mys, motion_epochs);
    return model;
  }();
  // Calibration = the encoder's view of the request mix itself: the exact
  // distribution the quantized lane will serve.
  std::vector<FeatureSequence> calibration;
  for (std::size_t r = 0; r < requests.size() && calibration.size() < 48; ++r) {
    if (requests[r].upload.positions.size() < 2) continue;
    calibration.push_back(motion_encoder->encode(requests[r].upload.positions));
  }

  struct MotionLeg {
    double seconds = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    std::uint64_t checksum = 1469598103934665603ull;
    std::uint64_t quant_batches = 0;
    bool complete = true;
  };
  // Run the request mix through a motion-armed service; the discrete stream
  // digests the (bit-identical) RSSI payload plus the motion verdict bit.
  const auto motion_leg = [&](const serve::MotionPolicy& policy) {
    MotionLeg leg;
    serve::VerifierServiceConfig mcfg;
    mcfg.max_batch = max_batch;
    mcfg.max_queue = request_count + 1;
    mcfg.motion = policy;
    serve::VerifierService service(detector, mcfg);
    double best = -1.0;
    for (std::size_t rep = 0; rep < motion_reps; ++rep) {
      std::vector<std::future<serve::VerdictResponse>> futures;
      futures.reserve(requests.size());
      const double t = now_s();
      for (const auto& request : requests) futures.push_back(service.submit(request));
      std::uint64_t checksum = 1469598103934665603ull;
      for (auto& future : futures) {
        const auto response = future.get();
        if (response.outcome != serve::Outcome::kOk || !response.has_motion_p_real) {
          leg.complete = false;
          continue;
        }
        checksum = fnv1a(checksum, response.report.canonical_string());
        checksum = fnv1a(checksum, response.motion_p_real >= 0.5 ? "1" : "0");
      }
      const double seconds = now_s() - t;
      if (best < 0.0 || seconds < best) best = seconds;
      leg.checksum = checksum;  // identical across reps when complete
    }
    leg.seconds = best;
    const auto c = service.counters();
    leg.p50_us = c.p50_us;
    leg.p99_us = c.p99_us;
    leg.quant_batches = c.motion_quant_batches;
    service.stop();
    return leg;
  };

  serve::MotionPolicy fp64_policy;
  fp64_policy.model = motion_model;
  fp64_policy.encoder = motion_encoder;
  serve::MotionPolicy quant_policy = fp64_policy;
  const auto gate = quant_policy.arm_quantized(calibration, nn::QuantMode::kInt8, 0.1);
  if (!gate.pass) {
    std::printf("FAILED: quantized motion lane did not pass its gate "
                "(max logit delta %.3e, %zu disagreements)\n",
                gate.max_abs_logit_delta, gate.disagreements);
    return 1;
  }
  const MotionLeg fp64_leg = motion_leg(fp64_policy);
  const MotionLeg quant_leg = motion_leg(quant_policy);
  const bool motion_identical = fp64_leg.checksum == quant_leg.checksum;
  const bool motion_complete =
      fp64_leg.complete && quant_leg.complete && quant_leg.quant_batches > 0;

  const auto print_motion = [&] {
    const auto rate = [&](const MotionLeg& leg) {
      return static_cast<double>(request_count) / leg.seconds;
    };
    std::printf("\n");
    TextTable mt({"motion leg", "seconds", "verdicts/s", "p50 (us)", "p99 (us)",
                  "speedup"});
    mt.add_row({"fp64 lane", TextTable::num(fp64_leg.seconds, 3),
                TextTable::num(rate(fp64_leg), 1),
                TextTable::num(fp64_leg.p50_us, 1),
                TextTable::num(fp64_leg.p99_us, 1), "1.00x"});
    mt.add_row({"int8 quant lane", TextTable::num(quant_leg.seconds, 3),
                TextTable::num(rate(quant_leg), 1),
                TextTable::num(quant_leg.p50_us, 1),
                TextTable::num(quant_leg.p99_us, 1),
                TextTable::num(fp64_leg.seconds / quant_leg.seconds, 2) + "x"});
    mt.print(std::cout);
    std::printf("quant gate: max logit delta %.3e over %zu calibration seqs, "
                "verdict checksum %016llx\n",
                gate.max_abs_logit_delta, gate.checked,
                static_cast<unsigned long long>(gate.verdict_checksum));
    std::printf("motion verdict stream fp64/int8 = %016llx / %016llx (%s)\n",
                static_cast<unsigned long long>(fp64_leg.checksum),
                static_cast<unsigned long long>(quant_leg.checksum),
                motion_identical ? "agree" : "DISAGREE");
  };
  if (quant_only) {
    print_motion();
    return motion_identical && motion_complete ? 0 : 1;
  }

  // -- Baseline: stateless, one at a time ----------------------------------
  const double t0 = now_s();
  std::uint64_t baseline_checksum = 1469598103934665603ull;
  for (const auto& request : requests) {
    baseline_checksum =
        fnv1a(baseline_checksum, detector.analyze(request.upload).canonical_string());
  }
  const double baseline_s = now_s() - t0;

  // -- Service: micro-batched on the deterministic pool --------------------
  serve::VerifierServiceConfig scfg;
  scfg.max_batch = max_batch;
  scfg.max_queue = request_count + 1;
  serve::VerifierService service(detector, scfg);
  const double t1 = now_s();
  std::vector<std::future<serve::VerdictResponse>> futures;
  futures.reserve(requests.size());
  for (const auto& request : requests) futures.push_back(service.submit(request));
  std::uint64_t service_checksum = 1469598103934665603ull;
  for (auto& future : futures) {
    const auto response = future.get();
    if (response.outcome != serve::Outcome::kOk) {
      std::printf("request %llu failed: %s\n",
                  static_cast<unsigned long long>(response.request_id),
                  response.error.c_str());
      return 1;
    }
    service_checksum = fnv1a(service_checksum, response.report.canonical_string());
  }
  const double service_s = now_s() - t1;
  service.stop();

  // -- Faulty mode: same requests under an armed chaos schedule --------------
  // Dispatch faults at --fault_rate (retried with backoff, then degraded) and
  // a 1% sprinkle of poisoned RPD reference points.  Deterministic in
  // --fault_seed.
  std::size_t faulty_ok = 0;
  std::size_t faulty_degraded = 0;
  std::size_t faulty_dropped = 0;
  double faulty_s = 0.0;
  std::uint64_t faulty_retries = 0;
  {
    FaultScope faults(fault_seed);
    faults.arm(serve::kFaultDispatch, {.probability = fault_rate});
    faults.arm(wifi::kFaultRpdCount, {.probability = 0.01});
    serve::VerifierServiceConfig fcfg = scfg;
    fcfg.retry.max_retries = 2;
    serve::VerifierService faulty(detector, fcfg);
    const double t2 = now_s();
    std::vector<std::future<serve::VerdictResponse>> ffutures;
    ffutures.reserve(requests.size());
    for (const auto& request : requests) ffutures.push_back(faulty.submit(request));
    for (auto& future : ffutures) {
      const auto response = future.get();
      if (response.outcome == serve::Outcome::kOk) {
        ++faulty_ok;
      } else if (response.outcome == serve::Outcome::kDegraded) {
        ++faulty_degraded;
      } else {
        ++faulty_dropped;
      }
    }
    faulty_s = now_s() - t2;
    faulty.stop();
    faulty_retries = faulty.counters().retries;
  }

  // -- Ingestion: write-ahead journal overhead vs bare in-memory appends -----
  // Same validated points through three sinks.  The in-memory leg is what
  // ingestion cost before the WAL (validate + push_back); the store legs add
  // encode + CRC frame + journal write, with fsync either batched across the
  // run or paid per append.  Afterwards the store is reopened and must replay
  // every point byte-identically — durability may cost time, never data.
  std::vector<wifi::ReferencePoint> ingest;
  const auto& ref_index = detector.index();
  for (std::size_t i = 0; i < ingest_count; ++i) {
    ingest.push_back(ref_index[i % ref_index.size()]);
  }
  double memory_ingest_s = 0.0;
  {
    std::vector<wifi::ReferencePoint> sink;
    sink.reserve(ingest.size());
    const double t = now_s();
    for (const auto& point : ingest) {
      if (wifi::validate_reference_point(point)) sink.push_back(point);
    }
    memory_ingest_s = now_s() - t;
    if (sink.size() != ingest.size()) {
      std::printf("ingestion baseline rejected a valid point\n");
      return 1;
    }
  }
  const std::string store_dir = "bench_serve_store";
  const auto remove_store = [&store_dir] {
    std::remove(wifi::CrowdStore::snapshot_path(store_dir).c_str());
    std::remove(wifi::CrowdStore::journal_path(store_dir).c_str());
    ::rmdir(store_dir.c_str());
  };
  bool ingest_ok = true;
  const auto store_leg = [&](bool sync_each_append) {
    remove_store();
    double seconds = 0.0;
    {
      auto store = wifi::CrowdStore::open(store_dir, sync_each_append);
      if (!store) {
        std::printf("store open failed: %s\n", store.error().c_str());
        ingest_ok = false;
        return seconds;
      }
      const double t = now_s();
      for (const auto& point : ingest) {
        if (!store.value()->append(point)) ingest_ok = false;
      }
      seconds = now_s() - t;
    }
    // Recovery check: a fresh open replays the journal; every appended point
    // must come back byte-identical (encode_point is the canonical codec).
    auto reopened = wifi::CrowdStore::open(store_dir);
    if (!reopened || reopened.value()->points().size() != ingest.size()) {
      ingest_ok = false;
    } else {
      for (std::size_t i = 0; i < ingest.size(); ++i) {
        if (wifi::CrowdStore::encode_point(reopened.value()->points()[i]) !=
            wifi::CrowdStore::encode_point(ingest[i])) {
          ingest_ok = false;
        }
      }
    }
    return seconds;
  };
  const double journal_batched_s = store_leg(/*sync_each_append=*/false);
  const double journal_fsync_s = store_leg(/*sync_each_append=*/true);
  remove_store();

  TextTable table({"leg", "seconds", "requests/s", "speedup", "degraded"});
  table.add_row({"stateless baseline", TextTable::num(baseline_s, 3),
                 TextTable::num(static_cast<double>(request_count) / baseline_s, 1),
                 "1.00x", "0"});
  table.add_row({"batched service", TextTable::num(service_s, 3),
                 TextTable::num(static_cast<double>(request_count) / service_s, 1),
                 TextTable::num(baseline_s / service_s, 2) + "x", "0"});
  table.add_row({"faulty service", TextTable::num(faulty_s, 3),
                 TextTable::num(static_cast<double>(request_count) / faulty_s, 1),
                 TextTable::num(baseline_s / faulty_s, 2) + "x",
                 std::to_string(faulty_degraded)});
  table.print(std::cout);
  std::printf("\nfaulty mode (seed %llu, rate %.2f): %zu ok, %zu degraded, "
              "%zu dropped, %llu retries\n",
              static_cast<unsigned long long>(fault_seed), fault_rate, faulty_ok,
              faulty_degraded, faulty_dropped,
              static_cast<unsigned long long>(faulty_retries));

  const auto ingest_rate = [&](double seconds) {
    return seconds > 0.0 ? static_cast<double>(ingest.size()) / seconds : 0.0;
  };
  const auto overhead = [&](double seconds) {
    return memory_ingest_s > 0.0
               ? TextTable::num(seconds / memory_ingest_s, 2) + "x"
               : std::string("n/a");
  };
  std::printf("\n");
  TextTable ingest_table({"ingestion leg", "seconds", "points/s", "overhead"});
  ingest_table.add_row({"in-memory (no WAL)", TextTable::num(memory_ingest_s, 4),
                        TextTable::num(ingest_rate(memory_ingest_s), 1), "1.00x"});
  ingest_table.add_row({"journaled, batched fsync",
                        TextTable::num(journal_batched_s, 4),
                        TextTable::num(ingest_rate(journal_batched_s), 1),
                        overhead(journal_batched_s)});
  ingest_table.add_row({"journaled, fsync each",
                        TextTable::num(journal_fsync_s, 4),
                        TextTable::num(ingest_rate(journal_fsync_s), 1),
                        overhead(journal_fsync_s)});
  ingest_table.print(std::cout);
  std::printf("ingestion recovery: %s\n",
              ingest_ok ? "OK (reopen replayed every point byte-identically)"
                        : "FAILED (recovered store diverged from appends!)");

  std::printf("\nservice counters:\n%s", service.counters_table().c_str());

  print_motion();

  const bool identical = baseline_checksum == service_checksum;
  const bool faulty_complete = faulty_dropped == 0;
  std::printf("checksum baseline = %016llx\n",
              static_cast<unsigned long long>(baseline_checksum));
  std::printf("checksum service  = %016llx\n",
              static_cast<unsigned long long>(service_checksum));
  std::printf("verdicts: %s\n",
              identical ? "OK (byte-identical across serving modes)"
                        : "FAILED (serving changed a verdict!)");
  std::printf("faulty mode: %s\n",
              faulty_complete ? "OK (every request answered)"
                              : "FAILED (requests dropped under faults!)");
  std::printf("motion lanes: %s\n",
              motion_identical && motion_complete
                  ? "OK (quant lane agrees on every discrete verdict)"
                  : "FAILED (quant lane diverged or did not serve!)");
  return identical && faulty_complete && ingest_ok && motion_identical &&
                 motion_complete
             ? 0
             : 1;
}
