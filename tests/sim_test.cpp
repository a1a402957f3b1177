// Simulation substrate: GPS error statistics, mobility dynamics invariants,
// the WiFi radio environment and dataset builders.
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.hpp"
#include "reference/wifi_reference.hpp"
#include "map/city.hpp"
#include "sim/dataset.hpp"
#include "sim/gps.hpp"
#include "sim/mobility.hpp"
#include "sim/wifi_world.hpp"

namespace trajkit::sim {
namespace {

map::RoadNetwork test_city(std::uint64_t seed = 1) {
  Rng rng(seed);
  return map::make_city({.blocks_x = 6, .blocks_y = 6, .block_size_m = 50.0}, rng);
}

TEST(Gps, StationarySigmaMatchesConfig) {
  GpsErrorModel gps({.sigma_m = 0.5, .correlation = 0.8});
  Rng rng(1);
  RunningStats east;
  // Collect stationary draws: first error of many independent sequences.
  for (int i = 0; i < 4000; ++i) {
    const auto noisy = gps.corrupt({{0, 0}}, rng);
    east.add(noisy[0].east);
  }
  EXPECT_NEAR(east.mean(), 0.0, 0.05);
  EXPECT_NEAR(east.stddev(), 0.5, 0.05);
}

TEST(Gps, ConsecutiveErrorsAreCorrelated) {
  GpsErrorModel gps({.sigma_m = 0.5, .correlation = 0.9});
  Rng rng(2);
  // Correlated errors => per-step increments much smaller than i.i.d.
  const std::vector<Enu> truth(200, Enu{0, 0});
  const auto noisy = gps.corrupt(truth, rng);
  RunningStats increments;
  for (std::size_t i = 1; i < noisy.size(); ++i) {
    increments.add(distance(noisy[i], noisy[i - 1]));
  }
  // i.i.d. per-axis sigma 0.5 would give mean 2D increment ~0.89 m;
  // rho = 0.9 shrinks it by sqrt(2(1-rho)) ~ 0.45.
  EXPECT_LT(increments.mean(), 0.55);
  EXPECT_GT(increments.mean(), 0.15);
}

TEST(Gps, ZeroNoiseIsIdentity) {
  GpsErrorModel gps({.sigma_m = 0.0, .correlation = 0.0});
  Rng rng(3);
  const std::vector<Enu> truth = {{1, 2}, {3, 4}};
  const auto noisy = gps.corrupt(truth, rng);
  EXPECT_EQ(noisy[0], truth[0]);
  EXPECT_EQ(noisy[1], truth[1]);
}

TEST(Gps, ValidatesConfig) {
  EXPECT_THROW(GpsErrorModel({.sigma_m = -1.0}), std::invalid_argument);
  EXPECT_THROW(GpsErrorModel({.sigma_m = 0.5, .correlation = 1.0}),
               std::invalid_argument);
}

TEST(Mobility, ModeParamsOrdered) {
  const auto walk = MobilityParams::for_mode(Mode::kWalking);
  const auto cycle = MobilityParams::for_mode(Mode::kCycling);
  const auto drive = MobilityParams::for_mode(Mode::kDriving);
  EXPECT_LT(walk.mean_speed_mps, cycle.mean_speed_mps);
  EXPECT_LT(cycle.mean_speed_mps, drive.mean_speed_mps);
}

TEST(Mobility, SpeedsRespectDynamicLimits) {
  Rng rng(4);
  const std::vector<Enu> route = {{0, 0}, {500, 0}};
  const auto params = MobilityParams::for_mode(Mode::kWalking);
  const auto pts = simulate_motion(route, params, 1.0, 120, rng);
  ASSERT_GT(pts.size(), 20u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const double v = distance(pts[i], pts[i - 1]);
    // Hard ceiling: OU clamp at mean + 3 sigma.
    EXPECT_LE(v, params.mean_speed_mps + 3.0 * params.speed_stddev + 1e-6);
  }
}

TEST(Mobility, SpeedVariesUnlikeConstantResampling) {
  Rng rng(5);
  const std::vector<Enu> route = {{0, 0}, {400, 0}};
  const auto pts =
      simulate_motion(route, MobilityParams::for_mode(Mode::kWalking), 1.0, 150, rng);
  std::vector<double> speeds;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    speeds.push_back(distance(pts[i], pts[i - 1]));
  }
  EXPECT_GT(stddev(speeds), 0.05);  // human speed is never constant
}

TEST(Mobility, StaysOnRoutePolyline) {
  Rng rng(6);
  const std::vector<Enu> route = {{0, 0}, {100, 0}, {100, 100}};
  const auto pts =
      simulate_motion(route, MobilityParams::for_mode(Mode::kCycling), 1.0, 80, rng);
  for (const auto& p : pts) {
    EXPECT_LT(point_polyline_distance(p, route), 1e-6);
  }
}

TEST(Mobility, FirstPointIsRouteStart) {
  Rng rng(7);
  const std::vector<Enu> route = {{5, 7}, {50, 7}};
  const auto pts =
      simulate_motion(route, MobilityParams::for_mode(Mode::kWalking), 1.0, 10, rng);
  EXPECT_EQ(pts.front(), route.front());
}

TEST(Mobility, ValidatesInput) {
  Rng rng(8);
  const auto params = MobilityParams::for_mode(Mode::kWalking);
  EXPECT_THROW(simulate_motion({{0, 0}}, params, 1.0, 10, rng), std::invalid_argument);
  EXPECT_THROW(simulate_motion({{0, 0}, {1, 0}}, params, 0.0, 10, rng),
               std::invalid_argument);
}

TEST(WifiWorld, DeploysRequestedAps) {
  Rng rng(9);
  const auto net = test_city();
  const auto world = WifiWorld::deploy(net, {.ap_count = 120}, rng);
  EXPECT_EQ(world.aps().size(), 120u);
  // APs line the streets: all within the expanded bounds.
  const auto box = net.bounds().expanded(30.0);
  for (const auto& ap : world.aps()) EXPECT_TRUE(box.contains(ap.pos()));
}

TEST(WifiWorld, ScanSortedAndAboveFloor) {
  Rng rng(10);
  const auto net = test_city();
  WifiWorldConfig cfg;
  cfg.ap_count = 200;
  const auto world = WifiWorld::deploy(net, cfg, rng);
  const auto scan = world.scan({120, 120}, rng);
  ASSERT_FALSE(scan.empty());
  for (std::size_t i = 1; i < scan.size(); ++i) {
    EXPECT_GE(scan[i - 1].rssi_dbm, scan[i].rssi_dbm);
  }
  for (const auto& obs : scan) {
    EXPECT_GE(obs.rssi_dbm, cfg.visibility_floor_dbm);
  }
}

TEST(WifiWorld, MacsAreUnique) {
  Rng rng(11);
  const auto world = WifiWorld::deploy(test_city(), {.ap_count = 300}, rng);
  std::set<std::uint64_t> macs;
  for (const auto& ap : world.aps()) macs.insert(ap.mac());
  EXPECT_EQ(macs.size(), 300u);
}

TEST(WifiWorld, RssiDecaysWithDistance) {
  Rng rng(12);
  const auto world = WifiWorld::deploy(test_city(), {.ap_count = 50}, rng);
  const auto& ap = world.aps().front();
  const double near = ap.mean_rssi_dbm(ap.pos() + Enu{2, 0});
  const double far = ap.mean_rssi_dbm(ap.pos() + Enu{60, 0});
  EXPECT_GT(near, far + 10.0);
}

TEST(WifiWorld, ShadowingIsDeterministicAndBounded) {
  Rng rng(13);
  WifiWorldConfig cfg;
  cfg.ap_count = 10;
  cfg.shadow_sigma_db = 3.0;
  const auto world = WifiWorld::deploy(test_city(), cfg, rng);
  const auto& ap = world.aps().front();
  const Enu p{37.5, 81.25};
  EXPECT_DOUBLE_EQ(ap.shadow_db(p), ap.shadow_db(p));  // pure function of place
  // Hard amplitude bound: K components of amplitude sigma*sqrt(2/K).
  const double bound =
      3.0 * std::sqrt(2.0 * AccessPoint::kShadowComponents);  // loose
  for (int i = 0; i < 50; ++i) {
    const Enu q{rng.uniform(0, 300), rng.uniform(0, 300)};
    EXPECT_LE(std::fabs(ap.shadow_db(q)), bound);
  }
}

TEST(WifiWorld, RepeatScansAtSameSpotShareStrongAps) {
  Rng rng(14);
  const auto world = WifiWorld::deploy(test_city(), {.ap_count = 250}, rng);
  const Enu spot{130, 140};
  const auto s1 = world.scan(spot, rng);
  const auto s2 = world.scan(spot, rng);
  ASSERT_GE(s1.size(), 3u);
  // The strongest AP should re-appear with a similar value (device noise only).
  int rssi2 = 0;
  ASSERT_TRUE(wifi::reference::scan_lookup(s2, s1.front().mac, rssi2));
  EXPECT_NEAR(static_cast<double>(s1.front().rssi_dbm), static_cast<double>(rssi2),
              6.0);
}

TEST(Dataset, SimulateRealProducesExactPointCount) {
  const auto net = test_city();
  TrajectorySimulator simulator(net);
  Rng rng(15);
  for (Mode mode : kAllModes) {
    const auto traj = simulator.simulate_real(mode, 40, 1.0, rng);
    EXPECT_EQ(traj.reported.size(), 40u);
    EXPECT_EQ(traj.true_positions.size(), 40u);
    EXPECT_EQ(traj.reported.mode(), mode);
    EXPECT_GE(traj.route.size(), 2u);
  }
}

TEST(Dataset, ReportedDiffersFromTruthByGpsNoise) {
  const auto net = test_city();
  TrajectorySimulator simulator(net, {.sigma_m = 0.5, .correlation = 0.8});
  Rng rng(16);
  const auto traj = simulator.simulate_real(Mode::kWalking, 50, 1.0, rng);
  const auto reported = traj.reported.to_enu(sim_projection());
  RunningStats err;
  for (std::size_t i = 0; i < reported.size(); ++i) {
    err.add(distance(reported[i], traj.true_positions[i]));
  }
  EXPECT_GT(err.mean(), 0.2);
  EXPECT_LT(err.mean(), 2.0);
}

TEST(Dataset, NavigationTrajectoryIsConstantSpeed) {
  const auto net = test_city();
  TrajectorySimulator simulator(net);
  Rng rng(17);
  const auto traj = simulator.navigation_trajectory(Mode::kWalking, 30, 1.0, rng);
  EXPECT_EQ(traj.reported.size(), 30u);
  const auto speeds = traj.reported.speeds_mps();
  // Constant-speed resampling: negligible variation (corners shorten steps a
  // touch, so allow a small tolerance).
  EXPECT_LT(stddev(speeds), 0.15);
}

TEST(Dataset, RandomRouteRespectsMinLength) {
  const auto net = test_city();
  TrajectorySimulator simulator(net);
  Rng rng(18);
  for (int i = 0; i < 5; ++i) {
    const auto route = simulator.random_route(Mode::kWalking, 400.0, rng);
    double total = 0.0;
    for (std::size_t j = 1; j < route.size(); ++j) {
      total += distance(route[j - 1], route[j]);
    }
    EXPECT_GE(total, 400.0);
  }
}

TEST(Dataset, AttachScansOnePerPoint) {
  const auto net = test_city();
  TrajectorySimulator simulator(net);
  Rng rng(19);
  const auto world = WifiWorld::deploy(net, {.ap_count = 300}, rng);
  const auto traj = simulator.simulate_real(Mode::kWalking, 20, 2.0, rng);
  const auto scanned = attach_scans(traj, world, rng);
  EXPECT_EQ(scanned.scans.size(), 20u);
  EXPECT_EQ(scanned.reported.size(), 20u);
}

// Parameterized sweep: dataset invariants hold for every transport mode.
class ModeSweep : public ::testing::TestWithParam<Mode> {};

TEST_P(ModeSweep, RealTrajectoriesRespectModePhysics) {
  const auto net = test_city(40);
  TrajectorySimulator simulator(net);
  Rng rng(41);
  const Mode mode = GetParam();
  const auto params = MobilityParams::for_mode(mode);
  const auto traj = simulator.simulate_real(mode, 30, 1.0, rng);
  const auto speeds = traj.reported.speeds_mps();
  for (double v : speeds) {
    // GPS noise can add ~2 m/step of apparent speed on top of the kinematic
    // ceiling.
    EXPECT_LE(v, params.mean_speed_mps + 3.0 * params.speed_stddev + 2.5);
  }
}

TEST_P(ModeSweep, TruePositionsStayOnRoute) {
  const auto net = test_city(42);
  TrajectorySimulator simulator(net);
  Rng rng(43);
  const auto traj = simulator.simulate_real(GetParam(), 25, 1.0, rng);
  for (const auto& p : traj.true_positions) {
    EXPECT_LT(point_polyline_distance(p, traj.route), 1e-6);
  }
}

TEST_P(ModeSweep, ScanDeterministicGivenSameRngState) {
  const auto net = test_city(44);
  Rng deploy_rng(45);
  const auto world = WifiWorld::deploy(net, {.ap_count = 150}, deploy_rng);
  Rng a(46);
  Rng b(46);
  const Enu pos{100, 100};
  EXPECT_EQ(world.scan(pos, a), world.scan(pos, b));
  (void)GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeSweep,
                         ::testing::Values(Mode::kWalking, Mode::kCycling,
                                           Mode::kDriving));

TEST(Dataset, SimProjectionRoundTrips) {
  const Enu p{123.4, -56.7};
  const auto ll = sim_projection().to_latlon(p);
  const auto back = sim_projection().to_enu(ll);
  EXPECT_NEAR(back.east, p.east, 1e-9);
  EXPECT_NEAR(back.north, p.north, 1e-9);
}

}  // namespace
}  // namespace trajkit::sim
