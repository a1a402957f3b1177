// Determinism regression tests: for a fixed seed, every parallelised hot
// path must produce byte-identical results for --threads 1, 2 and
// hardware_concurrency().  This is the invariant that makes the paper's
// experiments (Tables I-IV, Figs. 3-6) reproducible regardless of machine.
//
// All comparisons are exact (EXPECT_EQ on doubles, no tolerance): the
// execution layer guarantees identical work decomposition and index-ordered
// reductions, so even floating-point results must match bit-for-bit.
#include <gtest/gtest.h>

#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/rssi_pipeline.hpp"
#include "core/scenario.hpp"
#include "nn/classifier.hpp"
#include "serve/service.hpp"
#include "support/fixtures.hpp"
#include "wifi/detector.hpp"

namespace trajkit {
namespace {

std::vector<std::size_t> thread_counts() {
  const std::size_t hw = std::thread::hardware_concurrency() > 0
                             ? std::thread::hardware_concurrency()
                             : 1;
  return {1, 2, hw};
}

/// Flatten everything observable about a scanned batch into one vector of
/// doubles for exact comparison.
std::vector<double> fingerprint(const std::vector<sim::ScannedTrajectory>& batch) {
  std::vector<double> out;
  for (const auto& traj : batch) {
    const auto pts = traj.reported.to_enu(sim::sim_projection());
    for (const auto& p : pts) {
      out.push_back(p.east);
      out.push_back(p.north);
    }
    for (const auto& p : traj.true_positions) {
      out.push_back(p.east);
      out.push_back(p.north);
    }
    for (const auto& scan : traj.scans) {
      out.push_back(static_cast<double>(scan.size()));
      for (const auto& obs : scan) {
        out.push_back(static_cast<double>(obs.mac));
        out.push_back(static_cast<double>(obs.rssi_dbm));
      }
    }
  }
  return out;
}

std::vector<sim::ScannedTrajectory> generate_batch() {
  core::Scenario scenario(test_support::small_scenario_config());
  return scenario.scanned_real(10, 20, 2.0);
}

TEST(Determinism, DatasetGenerationIsThreadCountInvariant) {
  set_global_threads(1);
  const auto reference = fingerprint(generate_batch());
  ASSERT_FALSE(reference.empty());
  for (const std::size_t n : thread_counts()) {
    set_global_threads(n);
    EXPECT_EQ(fingerprint(generate_batch()), reference) << "threads=" << n;
  }
  set_global_threads(0);
}

TEST(Determinism, DetectorFeatureVectorsAreThreadCountInvariant) {
  // Build the world once (serially), then featurise under different pools.
  set_global_threads(1);
  const auto batch = generate_batch();
  std::vector<wifi::ScannedUpload> uploads;
  for (const auto& traj : batch) uploads.push_back(core::to_upload(traj));
  // Fresh upload featurised against a reference store built from the batch.
  const auto probe = uploads.back();
  uploads.pop_back();

  auto features_of = [&] {
    wifi::RssiDetector detector(wifi::flatten_history(uploads), {});
    std::vector<double> features;
    std::vector<double> point_scores;
    detector.segment_features(probe, features, point_scores);
    return features;
  };
  const auto reference = features_of();
  ASSERT_FALSE(reference.empty());
  for (const std::size_t n : thread_counts()) {
    set_global_threads(n);
    EXPECT_EQ(features_of(), reference) << "threads=" << n;
  }
  set_global_threads(0);
}

TEST(Determinism, ClassifierLossTraceIsThreadCountInvariant) {
  // Synthetic two-class sequence data; fixed model seed.  The minibatch
  // gradient accumulation must reduce in chunk index order, so the whole
  // loss trace — every Adam step included — matches exactly.
  const std::size_t samples = 48;
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  Rng rng(1234);
  for (std::size_t s = 0; s < samples; ++s) {
    FeatureSequence x;
    x.steps = 12;
    x.dim = 2;
    const int label = s % 2;
    for (std::size_t t = 0; t < x.steps; ++t) {
      x.values.push_back(rng.normal(label ? 0.5 : -0.5, 1.0));
      x.values.push_back(rng.normal(0.0, 1.0));
    }
    xs.push_back(std::move(x));
    ys.push_back(label);
  }

  auto train_trace = [&] {
    nn::LstmClassifierConfig cfg;
    cfg.input_dim = 2;
    cfg.hidden_dim = 8;
    nn::LstmClassifier model(cfg, /*seed=*/77);
    return model.train(xs, ys, /*epochs=*/3).epoch_loss;
  };

  set_global_threads(1);
  const auto reference = train_trace();
  ASSERT_EQ(reference.size(), 3u);
  for (const std::size_t n : thread_counts()) {
    set_global_threads(n);
    EXPECT_EQ(train_trace(), reference) << "threads=" << n;
  }
  set_global_threads(0);
}

TEST(Determinism, ServiceResponsesAreThreadAndOrderInvariant) {
  // The serving layer's contract: a VerdictResponse payload is a pure
  // function of (model, upload).  Micro-batch composition, submission order,
  // dispatcher timing and thread count must all be invisible in the
  // canonical payload strings.
  set_global_threads(1);
  // Shared scenario-backed serving world (tests/support): trained detector
  // plus a 3-real / 3-forged probe mix.
  test_support::ScenarioServiceWorld world;
  wifi::RssiDetector& detector = *world.detector;
  const std::vector<wifi::ScannedUpload>& probes = world.probes;

  auto canonical = [&](const std::vector<std::size_t>& order, std::size_t threads) {
    set_global_threads(threads);
    serve::VerifierServiceConfig scfg;
    scfg.max_batch = 2;  // several micro-batches per run
    serve::VerifierService service(detector, scfg);
    std::vector<std::future<serve::VerdictResponse>> futures(order.size());
    for (const std::size_t idx : order) {
      futures[idx] = service.submit({idx, probes[idx], 0});
    }
    std::string all;
    for (auto& future : futures) {
      all += future.get().canonical_string();
      all += '\n';
    }
    return all;
  };

  const std::vector<std::size_t> forward = {0, 1, 2, 3, 4, 5};
  const std::vector<std::size_t> reversed = {5, 4, 3, 2, 1, 0};
  const std::vector<std::size_t> shuffled = {3, 0, 5, 1, 4, 2};
  const std::string reference = canonical(forward, 1);
  ASSERT_NE(reference.find("outcome=ok"), std::string::npos);
  for (const std::size_t n : thread_counts()) {
    for (const auto& order : {forward, reversed, shuffled}) {
      EXPECT_EQ(canonical(order, n), reference) << "threads=" << n;
    }
  }
  set_global_threads(0);
}

TEST(Determinism, FullRssiExperimentIsThreadCountInvariant) {
  // End-to-end guard: collection, reference store, detector training and
  // parallel evaluation all under one roof.  Coarse but decisive — if any
  // stage leaks thread-count dependence, the confusion matrix or AUC moves.
  auto run = [] {
    core::Scenario scenario(test_support::small_scenario_config());
    core::RssiExperimentConfig cfg;
    cfg.total = 40;
    cfg.points = 12;
    const auto r = core::run_rssi_experiment(scenario, cfg);
    return std::make_tuple(r.auc, r.confusion.accuracy(), r.avg_k,
                           r.avg_refs_per_point);
  };
  set_global_threads(1);
  const auto reference = run();
  for (const std::size_t n : thread_counts()) {
    set_global_threads(n);
    EXPECT_EQ(run(), reference) << "threads=" << n;
  }
  set_global_threads(0);
}

}  // namespace
}  // namespace trajkit
