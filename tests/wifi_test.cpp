// WiFi RSSI defense: spatial index, RPD estimation (Eq. 4), weights
// (Eqs. 5-6), confidence (Eq. 7), feature vector (Eq. 8), detector J.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.hpp"
#include "support/fixtures.hpp"
#include "wifi/confidence.hpp"
#include "wifi/detector.hpp"
#include "wifi/features.hpp"
#include "wifi/refindex.hpp"
#include "wifi/rpd.hpp"

namespace trajkit::wifi {
namespace {

namespace ts = test_support;

ReferencePoint ref(double east, double north, WifiScan scan,
                   std::uint32_t traj = kNoTrajectory) {
  return {{east, north}, std::move(scan), traj};
}

TEST(ScanLookup, FindsAndMisses) {
  const WifiScan scan = {{10, -40}, {20, -55}};
  int out = 0;
  EXPECT_TRUE(scan_lookup(scan, 20, out));
  EXPECT_EQ(out, -55);
  EXPECT_FALSE(scan_lookup(scan, 99, out));
}

TEST(ReferenceIndex, RadiusQueryMatchesBruteForce) {
  Rng rng(1);
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(ref(rng.uniform(0, 100), rng.uniform(0, 100), {}));
  }
  const ReferenceIndex index(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const Enu center{rng.uniform(0, 100), rng.uniform(0, 100)};
    const double radius = rng.uniform(1.0, 20.0);
    auto got = index.within(center, radius);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i].pos, center) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(index.count_within(center, radius), want.size());
  }
}

TEST(ReferenceIndex, ExclusionDropsOneTrajectory) {
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {}, 7), ref(1, 0, {}, 7), ref(0, 1, {}, 8)};
  const ReferenceIndex index(pts);
  EXPECT_EQ(index.within({0, 0}, 5.0).size(), 3u);
  EXPECT_EQ(index.within({0, 0}, 5.0, 7).size(), 1u);
  EXPECT_EQ(index.within({0, 0}, 5.0, 8).size(), 2u);
}

TEST(ReferenceIndex, EmptyAndBoundary) {
  const ReferenceIndex empty({});
  EXPECT_TRUE(empty.within({0, 0}, 100.0).empty());

  // Inclusive radius boundary.
  const ReferenceIndex one({ref(3, 4, {})});
  EXPECT_EQ(one.within({0, 0}, 5.0).size(), 1u);
  EXPECT_EQ(one.within({0, 0}, 4.999).size(), 0u);
}

TEST(Rpd, ExactMatchRatio) {
  // Counting circle of H contains 4 points; mac 1 reads -50 twice, -52 once,
  // absent once => RPD(-50) = 2/4, RPD(-52) = 1/4, RPD(-60) = 0.
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {{1, -50}}),
      ref(1, 0, {{1, -50}}),
      ref(0, 1, {{1, -52}}),
      ref(1, 1, {{2, -70}}),
  };
  const ReferenceIndex index(pts);
  const RpdEstimator rpd(index, {.counting_radius_m = 3.0});
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -50), 0.5);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -52), 0.25);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -60), 0.0);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 99, -50), 0.0);  // unknown AP
  EXPECT_EQ(rpd.counting_size(0), 4u);
}

TEST(Rpd, ToleranceSmoothsMatches) {
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {{1, -50}}),
      ref(1, 0, {{1, -51}}),
  };
  const ReferenceIndex index(pts);
  const RpdEstimator exact(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 0});
  const RpdEstimator smooth(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 1});
  EXPECT_DOUBLE_EQ(exact.rpd(0, 1, -50), 0.5);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -50), 1.0);
}

TEST(Rpd, CountsRepeatedObservationsOfOneMac) {
  // validate_scan accepts a scan that repeats a MAC; Eq. 4 counts each
  // matching observation, so point 0's two -50 readings both count.
  const ReferenceIndex index({ref(0, 0, {{1, -50}, {1, -50}}), ref(1, 0, {{1, -51}})});
  const RpdEstimator exact(index, {.counting_radius_m = 3.0});
  const RpdEstimator smooth(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 1});
  EXPECT_DOUBLE_EQ(exact.rpd(0, 1, -50), 1.0);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -50), 1.5);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -51), 1.5);
}

TEST(Rpd, DensityAndTheta2Monotone) {
  // Two clusters of different density.
  std::vector<ReferencePoint> dense;
  for (int i = 0; i < 20; ++i) {
    dense.push_back(ref(i * 0.1, 0, {}));
  }
  dense.push_back(ref(100, 100, {}));  // isolated point
  const ReferenceIndex index(dense);
  const RpdEstimator rpd(index, {.counting_radius_m = 3.0});
  EXPECT_GT(rpd.density(0), rpd.density(20));
  EXPECT_GT(rpd.theta2(0), rpd.theta2(20));
  EXPECT_GT(rpd.theta2(0), 0.0);
  EXPECT_LT(rpd.theta2(0), 1.0);
}

TEST(Rpd, ValidatesParams) {
  const ReferenceIndex index({ref(0, 0, {})});
  EXPECT_THROW(RpdEstimator(index, {.counting_radius_m = 0.0}), std::invalid_argument);
  EXPECT_THROW(RpdEstimator(index, {.counting_radius_m = 1.0, .theta2_base = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      RpdEstimator(index, {.counting_radius_m = 1.0, .rssi_tolerance_db = -1}),
      std::invalid_argument);
}

TEST(Confidence, PerfectAgreementGivesHighPhi) {
  // All reference points in a tight cluster agree: mac 1 reads -50.
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(ref(i * 0.3, 0, {{1, -50}}));
  }
  const ReferenceIndex index(pts);
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .top_k = 4});
  const auto good = estimator.point_confidence({1.0, 0.2}, {{1, -50}});
  ASSERT_EQ(good.size(), 1u);
  const auto bad = estimator.point_confidence({1.0, 0.2}, {{1, -60}});
  EXPECT_GT(good[0].phi, 10.0 * bad[0].phi + 1e-9);
  EXPECT_GT(good[0].num_refs, 0u);
}

TEST(Confidence, CloserReferencesWeighMore) {
  // Two references with conflicting readings; the nearer one should dominate.
  // The RPD counting radius is kept below their separation so each reference
  // votes from its own histogram.
  std::vector<ReferencePoint> pts = {
      ref(0.2, 0, {{1, -50}}),  // near, says -50
      ref(2.4, 0, {{1, -70}}),  // far, says -70
  };
  const ReferenceIndex index(pts);
  ConfidenceParams params;
  params.reference_radius_m = 2.5;
  params.top_k = 1;
  params.rpd.counting_radius_m = 1.0;
  const ConfidenceEstimator estimator(index, params);
  const auto at_near = estimator.point_confidence({0.0, 0.0}, {{1, -50}});
  const auto at_far = estimator.point_confidence({0.0, 0.0}, {{1, -70}});
  EXPECT_GT(at_near[0].phi, at_far[0].phi);
}

TEST(Confidence, NoReferencesMeansZeroPhi) {
  const ReferenceIndex index({ref(100, 100, {{1, -40}})});
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5});
  const auto out = estimator.point_confidence({0, 0}, {{1, -40}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].phi, 0.0);
  EXPECT_EQ(out[0].num_refs, 0u);
  EXPECT_EQ(estimator.reference_count({0, 0}), 0u);
}

TEST(Confidence, TopKTruncatesScan) {
  const ReferenceIndex index({ref(0, 0, {{1, -40}, {2, -50}, {3, -60}})});
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .top_k = 2});
  const auto out =
      estimator.point_confidence({0.5, 0}, {{1, -40}, {2, -50}, {3, -60}});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].mac, 1u);
  EXPECT_EQ(out[1].mac, 2u);
}

TEST(Confidence, DirectCountMatchesRpdDefinition) {
  // Small seeded worlds in which neighbour scans repeat a MAC, at the same
  // RSSI or 1 dB apart: point_confidence must equal, bit for bit, Eq. 7 summed
  // over C_O(r) in within() order from the plain Eq. 4 definition.
  constexpr double kRadius = 2.5;
  std::size_t repeated_scans = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<ReferencePoint> pts;
    for (int i = 0; i < 80; ++i) {
      WifiScan scan;
      const auto m = rng.uniform_int(1, 4);
      for (std::int64_t j = 0; j < m; ++j) {
        scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 5)),
                        static_cast<int>(rng.uniform_int(-52, -50))});
        if (rng.chance(0.3)) {
          scan.push_back({scan.back().mac,
                          scan.back().rssi_dbm + static_cast<int>(rng.uniform_int(0, 1))});
        }
      }
      const auto repeats = [&scan](const ApObservation& obs) {
        return std::count_if(scan.begin(), scan.end(), [&](const ApObservation& o) {
                 return o.mac == obs.mac;
               }) > 1;
      };
      if (std::any_of(scan.begin(), scan.end(), repeats)) ++repeated_scans;
      pts.push_back(ref(rng.uniform(0, 8), rng.uniform(0, 8), std::move(scan),
                        static_cast<std::uint32_t>(i % 6)));
    }
    const ReferenceIndex index(pts);

    for (const int tol : {0, 1}) {
      for (const std::uint32_t exclude : {kNoTrajectory, 2u}) {
        ConfidenceParams params;
        params.reference_radius_m = kRadius;
        params.top_k = 4;
        params.rpd.rssi_tolerance_db = tol;
        const ConfidenceEstimator estimator(index, params);
        const RpdEstimator& rpd = estimator.rpd();
        for (int probe = 0; probe < 12; ++probe) {
          const Enu pos{rng.uniform(0, 8), rng.uniform(0, 8)};
          WifiScan scan;
          for (int j = 0; j < 6; ++j) {
            scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 5)),
                            static_cast<int>(rng.uniform_int(-52, -50))});
          }
          const auto got = estimator.point_confidence(pos, scan, exclude);
          ASSERT_EQ(got.size(), params.top_k);

          const auto refs = index.within(pos, kRadius, exclude);
          std::vector<double> inv(refs.size());
          double inv_sum = 0.0;
          for (std::size_t i = 0; i < refs.size(); ++i) {
            inv[i] = 1.0 / std::max(distance(index[refs[i]].pos, pos), 0.05);
            inv_sum += inv[i];
          }
          for (std::size_t a = 0; a < got.size(); ++a) {
            double phi = 0.0;
            std::size_t num_refs = 0;
            for (std::size_t i = 0; i < refs.size(); ++i) {
              const std::size_t h = refs[i];
              const double theta1 = inv[i] / inv_sum;
              phi += theta1 * rpd.theta2(h) * rpd.rpd(h, scan[a].mac, scan[a].rssi_dbm);
              int observed = 0;
              if (scan_lookup(index[h].scan, scan[a].mac, observed)) ++num_refs;
            }
            EXPECT_EQ(got[a].phi, phi)
                << "seed " << seed << " tol " << tol << " probe " << probe << " ap " << a;
            EXPECT_EQ(got[a].num_refs, num_refs);
          }
        }
      }
    }
  }
  EXPECT_GT(repeated_scans, 10u) << "the worlds must put repeated MACs in counting circles";
}

TEST(Confidence, AblationSwitchesChangeWeights) {
  std::vector<ReferencePoint> pts = {
      ref(0.2, 0, {{1, -50}}),
      ref(2.0, 0, {{1, -50}}),
  };
  const ReferenceIndex index(pts);
  ConfidenceParams with;
  with.reference_radius_m = 2.5;
  ConfidenceParams without = with;
  without.use_theta1 = false;
  without.use_theta2 = false;
  const ConfidenceEstimator a(index, with);
  const ConfidenceEstimator b(index, without);
  // Without theta2 damping, phi is the plain average of RPDs = 1.0.
  EXPECT_NEAR(b.point_confidence({0, 0}, {{1, -50}})[0].phi, 1.0, 1e-9);
  EXPECT_LT(a.point_confidence({0, 0}, {{1, -50}})[0].phi, 1.0);
}

TEST(Features, WidthAndPadding) {
  const ReferenceIndex index({ref(0, 0, {{1, -40}})});
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .top_k = 3});
  ScannedUpload upload;
  upload.positions = {{0, 0}, {1, 0}};
  upload.scans = {{{1, -40}}, {}};  // second point heard nothing
  const auto f = trajectory_features(estimator, upload);
  EXPECT_EQ(f.size(), trajectory_feature_width(estimator, 2));
  EXPECT_EQ(f.size(), 12u);  // 2 points * 3 aps * 2 values
  // Padding entries are zero.
  for (std::size_t i = 2; i < 6; ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
}

TEST(Features, MismatchedUploadRejected) {
  const ReferenceIndex index({ref(0, 0, {})});
  const ConfidenceEstimator estimator(index, {});
  ScannedUpload upload;
  upload.positions = {{0, 0}};
  upload.scans = {};
  EXPECT_THROW(trajectory_features(estimator, upload), std::invalid_argument);
}

TEST(Detector, SeparatesMatchingFromMismatchedRssi) {
  // Synthetic world: a spatial RSSI field rssi(x) = -40 - x (1 dB per metre).
  // Real uploads report the field value at their position; fakes report the
  // field value 10 m away.  The detector must learn the difference.
  ts::LinearWorldConfig cfg;
  cfg.seed = 2;
  cfg.area_m = 40.0;
  cfg.margin_m = 5.0;
  cfg.history_points = 2000;
  cfg.upload_points = 5;
  cfg.fake_shift_m = 10.0;
  cfg.train_pairs = 60;
  cfg.trees = 40;
  cfg.reference_radius_m = 2.5;
  ts::LinearFieldWorld w(cfg);

  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    correct += w.detector().analyze(w.upload(true)).verdict == 1;
    correct += w.detector().analyze(w.upload(false)).verdict == 0;
  }
  EXPECT_GT(correct, 72);  // > 90%
}

TEST(Detector, SaveLoadRoundTrip) {
  ts::LinearWorldConfig cfg;
  cfg.seed = 3;
  cfg.margin_m = 5.0;
  cfg.history_points = 500;
  cfg.upload_points = 4;
  cfg.fake_shift_m = 8.0;
  ts::LinearFieldWorld w(cfg);

  std::stringstream ss;
  w.detector().save(ss);
  const auto loaded = RssiDetector::try_load(ss);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  ASSERT_EQ(loaded.value()->index().size(), w.detector().index().size());
  for (int i = 0; i < 20; ++i) {
    const auto upload = w.upload(i % 2 == 0);
    EXPECT_NEAR(w.detector().analyze(upload).p_real,
                loaded.value()->analyze(upload).p_real, 1e-12);
  }
}

TEST(Detector, LoadRejectsGarbage) {
  std::stringstream ss("definitely_not_a_detector");
  EXPECT_FALSE(RssiDetector::try_load(ss).has_value());
}

TEST(Detector, TryLoadReportsGarbageAsError) {
  std::stringstream ss("definitely_not_a_detector");
  const auto result = RssiDetector::try_load(ss);
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("bad magic"), std::string::npos) << result.error();
}

TEST(Detector, ThresholdPersistsThroughSaveLoad) {
  RssiDetectorConfig cfg;
  cfg.threshold = 0.65;
  RssiDetector detector({ref(0, 0, {{1, -50}})}, cfg);
  std::stringstream ss;
  detector.save(ss);
  const auto loaded = RssiDetector::try_load(ss);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_DOUBLE_EQ(loaded.value()->config().threshold, 0.65);
}

TEST(Detector, RejectsOutOfRangeThreshold) {
  RssiDetectorConfig cfg;
  cfg.threshold = 1.5;
  EXPECT_THROW(RssiDetector({ref(0, 0, {})}, cfg), std::invalid_argument);
}

// Split-pipeline/analyze agreement lives in tests/equivalence_test.cpp
// (property sweep over random uploads and thresholds).

TEST(Detector, PointScoresLocaliseMismatchedStretch) {
  Rng rng(4);
  auto field = [](const Enu& p) {
    return ts::LinearFieldWorld::field_rssi(p);
  };
  std::vector<ReferencePoint> history;
  for (int i = 0; i < 3000; ++i) {
    const Enu p{rng.uniform(0, 60), rng.uniform(0, 60)};
    history.push_back(ref(p.east, p.north, {{1, field(p)}}));
  }
  RssiDetector detector(history, {});

  // First half consistent, second half claims positions 20 m away from where
  // the (genuine) scans were heard.
  ScannedUpload upload;
  for (int j = 0; j < 10; ++j) {
    const Enu p{10.0 + j * 3.0, 30.0};
    // The synthetic field varies with east, so the fraud must shift east.
    upload.positions.push_back(j < 5 ? p : Enu{p.east + 20.0, p.north});
    upload.scans.push_back({{1, field(p)}});
  }
  // segment_features is untrained-safe (it only needs the reference index),
  // which is exactly why this test can skip training the classifier.
  std::vector<double> features;
  std::vector<double> scores;
  detector.segment_features(upload, features, scores);
  ASSERT_EQ(scores.size(), 10u);
  double good = 0.0;
  double bad = 0.0;
  for (int j = 0; j < 5; ++j) good += scores[j];
  for (int j = 5; j < 10; ++j) bad += scores[j];
  EXPECT_GT(good, 4.0 * bad + 1e-9);
}

TEST(Detector, RequiresTrainingBeforeVerify) {
  RssiDetector detector({ref(0, 0, {})}, {});
  ScannedUpload upload;
  upload.positions = {{0, 0}};
  upload.scans = {{}};
  EXPECT_THROW(detector.analyze(upload), std::logic_error);
}

TEST(Detector, RejectsUnevenUploadLengths) {
  RssiDetector detector({ref(0, 0, {})}, {});
  ScannedUpload a;
  a.positions = {{0, 0}};
  a.scans = {{}};
  ScannedUpload b;
  b.positions = {{0, 0}, {1, 0}};
  b.scans = {{}, {}};
  EXPECT_THROW(detector.train({a, b}, {1, 0}), std::invalid_argument);
}

TEST(Detector, FlattenHistoryTagsAndChecks) {
  std::vector<ScannedUpload> history(2);
  history[0].positions = {{0, 0}, {1, 0}};
  history[0].scans = {{}, {}};
  history[1].positions = {{2, 0}};
  history[1].scans = {{}};
  const auto flat = flatten_history(history);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].traj_id, 0u);
  EXPECT_EQ(flat[1].traj_id, 0u);
  EXPECT_EQ(flat[2].traj_id, 1u);

  std::vector<ScannedUpload> bad(1);
  bad[0].positions = {{0, 0}};
  EXPECT_THROW(flatten_history(bad), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit::wifi
