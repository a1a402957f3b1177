// Related-work defense baselines: rule-based plausibility checks, the
// server-side replay traversal, and coarse RSSI-signature verification.
#include <gtest/gtest.h>

#include "attack/naive.hpp"
#include "attack/replay.hpp"
#include "baseline/replay_check.hpp"
#include "baseline/rssi_similarity.hpp"
#include "baseline/rule_based.hpp"
#include "core/scenario.hpp"
#include "dtw/dtw.hpp"

namespace trajkit::baseline {
namespace {

const LocalProjection& proj() { return sim::sim_projection(); }

Trajectory line_trajectory(std::size_t n, double step_m, double interval_s = 1.0) {
  std::vector<Enu> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i) * step_m, 0.0});
  }
  return Trajectory::from_enu(pts, proj(), Mode::kWalking, interval_s);
}

TEST(RuleBased, PassesPlausibleWalk) {
  const auto t = line_trajectory(20, 1.4);  // 1.4 m/s constant walk
  const auto detector = RuleBasedDetector::for_mode(Mode::kWalking);
  EXPECT_TRUE(detector.check(t, proj()).empty());
  EXPECT_EQ(detector.verify(t, proj()), 1);
}

TEST(RuleBased, FlagsOverspeed) {
  const auto t = line_trajectory(10, 8.0);  // 8 m/s "walk"
  const auto detector = RuleBasedDetector::for_mode(Mode::kWalking);
  const auto violations = detector.check(t, proj());
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().rule, "overspeed");
  EXPECT_EQ(detector.verify(t, proj()), 0);
}

TEST(RuleBased, FlagsTeleport) {
  std::vector<Enu> pts = {{0, 0}, {1, 0}, {2, 0}, {200, 0}, {201, 0}};
  const auto t = Trajectory::from_enu(pts, proj(), Mode::kDriving, 1.0);
  const auto detector = RuleBasedDetector::for_mode(Mode::kDriving);
  bool teleport = false;
  for (const auto& v : detector.check(t, proj())) teleport |= v.rule == "teleport";
  EXPECT_TRUE(teleport);
}

TEST(RuleBased, FlagsFrozenTrajectory) {
  std::vector<Enu> pts(10, Enu{5, 5});
  std::vector<TrajPoint> tp;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    tp.push_back({proj().to_latlon(pts[i]), static_cast<double>(i)});
  }
  const Trajectory t(std::move(tp), Mode::kWalking);
  const auto detector = RuleBasedDetector::for_mode(Mode::kWalking);
  bool frozen = false;
  for (const auto& v : detector.check(t, proj())) frozen |= v.rule == "no_progress";
  EXPECT_TRUE(frozen);
}

TEST(RuleBased, FlagsAccelSpike) {
  // Alternate 0 m and 3 m steps: accel |3-0|/1 = 3 m/s^2 > walking limit.
  std::vector<Enu> pts = {{0, 0}};
  for (int i = 1; i < 12; ++i) {
    pts.push_back({pts.back().east + ((i % 2) ? 3.0 : 0.0), 0.0});
  }
  // De-duplicate positions slightly so timestamps stay valid.
  const auto t = Trajectory::from_enu(pts, proj(), Mode::kWalking, 1.0);
  const auto detector = RuleBasedDetector::for_mode(Mode::kWalking);
  bool spike = false;
  for (const auto& v : detector.check(t, proj())) spike |= v.rule == "overaccel";
  EXPECT_TRUE(spike);
}

TEST(RuleBased, ShortTrajectoryRejected) {
  const auto t = line_trajectory(2, 1.0);
  const auto detector = RuleBasedDetector::for_mode(Mode::kWalking);
  EXPECT_EQ(detector.verify(t, proj()), 0);
}

TEST(RuleBased, RealSimulatedTrajectoriesPass) {
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kCycling));
  const auto detector = RuleBasedDetector::for_mode(Mode::kCycling);
  std::size_t passed = 0;
  for (const auto& traj : scenario.real_trajectories(20, 40, 1.0)) {
    passed += detector.verify(traj.reported, proj()) == 1;
  }
  EXPECT_GE(passed, 18u);
}

// ---------------------------------------------------------------------------

TEST(ReplayCheck, CatchesNaiveReplayButNotFreshTrajectory) {
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  ReplayDetector detector({.min_d = 1.2});

  std::vector<std::vector<Enu>> records;
  for (const auto& traj : scenario.real_trajectories(12, 40, 1.0)) {
    records.push_back(traj.reported.to_enu(proj()));
    detector.add_history(records.back());
  }
  EXPECT_EQ(detector.history_size(), 12u);

  Rng rng(5);
  // Naive replay of a record: caught.
  const auto replay = attack::naive_noise_attack(records[3], rng);
  EXPECT_EQ(detector.verify(replay), 0);
  const auto match = detector.closest(replay);
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(match->history_index, 3u);
  EXPECT_LT(match->dtw_norm, 1.2);

  // Fresh trajectories: not replays.
  std::size_t passed = 0;
  for (const auto& traj : scenario.real_trajectories(10, 40, 1.0)) {
    passed += detector.verify(traj.reported.to_enu(proj())) == 1;
  }
  EXPECT_GE(passed, 9u);
}

TEST(ReplayCheck, MindTargetedForgeryEscapes) {
  // The adversarial replay sits just above MinD — exactly out of reach.
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  ReplayDetector detector({.min_d = 1.2});
  const auto record = scenario.real_trajectories(1, 40, 1.0)
                          .front()
                          .reported.to_enu(proj());
  detector.add_history(record);
  Rng rng(6);
  const auto forged = attack::smooth_replay_perturbation(record, 1.4, rng, 0.997);
  EXPECT_EQ(detector.verify(forged), 1);
}

TEST(ReplayCheck, EndpointPrefilterSkipsDistantRecords) {
  ReplayDetector detector({.min_d = 1.2, .endpoint_prefilter_m = 10.0});
  std::vector<Enu> far;
  for (int i = 0; i < 10; ++i) far.push_back({1000.0 + i, 1000.0});
  detector.add_history(far);
  std::vector<Enu> upload;
  for (int i = 0; i < 10; ++i) upload.push_back({static_cast<double>(i), 0.0});
  EXPECT_FALSE(detector.closest(upload).has_value());
  EXPECT_EQ(detector.verify(upload), 1);
}

TEST(ReplayCheck, ValidatesInput) {
  EXPECT_THROW(ReplayDetector({.min_d = 0.0}), std::invalid_argument);
  ReplayDetector detector;
  EXPECT_THROW(detector.add_history({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(detector.verify({{0, 0}}), std::invalid_argument);
}

// ---------------------------------------------------------------------------

TEST(RssiSimilarity, AcceptsConsistentAndFlagsShiftedSignatures) {
  // Linear RSSI field: 1 dB per metre east.
  Rng rng(7);
  std::vector<wifi::ReferencePoint> refs;
  for (int i = 0; i < 3000; ++i) {
    const Enu p{rng.uniform(0, 60), rng.uniform(0, 60)};
    refs.push_back({p, {{1, static_cast<int>(std::lround(-40.0 - p.east))}}, 0});
  }
  const wifi::ReferenceIndex index(std::move(refs));
  const RssiSimilarityDetector detector(index, {.reference_radius_m = 10.0,
                                                .tolerance_db = 6.0});

  std::vector<Enu> positions;
  std::vector<wifi::WifiScan> good;
  std::vector<wifi::WifiScan> shifted;
  for (int j = 0; j < 8; ++j) {
    const Enu p{10.0 + j * 4.0, 30.0};
    positions.push_back(p);
    good.push_back({{1, static_cast<int>(std::lround(-40.0 - p.east))}});
    // 30 m east of the claim: a gross mismatch even for a coarse signature.
    shifted.push_back({{1, static_cast<int>(std::lround(-40.0 - p.east - 30.0))}});
  }
  EXPECT_EQ(detector.verify(positions, good), 1);
  EXPECT_EQ(detector.verify(positions, shifted), 0);
  EXPECT_LT(detector.mean_deviation_db(positions, good),
            detector.mean_deviation_db(positions, shifted));
}

TEST(RssiSimilarity, SlightNoiseReplayEscapes) {
  // The paper's criticism: a replay with slight noise stays well inside the
  // coarse tolerance.  Positions shifted ~1.4 m, RSSIs +-1 dB.
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  const auto history = scenario.scanned_real(40, 30, 2.0);
  std::vector<wifi::ReferencePoint> refs;
  for (const auto& traj : history) {
    const auto pts = traj.reported.to_enu(proj());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      refs.push_back({pts[i], traj.scans[i], 0});
    }
  }
  const wifi::ReferenceIndex index(std::move(refs));
  const RssiSimilarityDetector detector(index, {});

  Rng rng(8);
  std::size_t escaped = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const auto& source = history[i];
    auto positions = source.reported.to_enu(proj());
    positions = attack::smooth_replay_perturbation(positions, 1.4, rng, 0.997);
    auto scans = source.scans;
    for (auto& scan : scans) {
      for (auto& obs : scan) {
        obs.rssi_dbm += static_cast<int>(rng.uniform_int(-1, 1));
      }
    }
    escaped += detector.verify(positions, scans) == 1;
  }
  EXPECT_GE(escaped, 8u);  // the coarse signature cannot catch the replay
}

TEST(RssiSimilarity, MissingHistoryIsSuspicious) {
  const wifi::ReferenceIndex index(std::vector<wifi::ReferencePoint>{{{1000, 1000}, {{1, -50}}, 0}});
  const RssiSimilarityDetector detector(index, {});
  // Upload far from any history: no matchable APs -> flagged.
  EXPECT_EQ(detector.verify({{0, 0}}, {{{2, -60}}}), 0);
}

TEST(RssiSimilarity, ValidatesInput) {
  const wifi::ReferenceIndex index(std::vector<wifi::ReferencePoint>{{{0, 0}, {}, 0}});
  EXPECT_THROW(RssiSimilarityDetector(index, {.reference_radius_m = 0.0}),
               std::invalid_argument);
  const RssiSimilarityDetector detector(index, {});
  EXPECT_THROW(detector.verify({{0, 0}}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit::baseline
