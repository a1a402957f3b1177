// Trajectory container, statistics, CSV round-trips, and — critically — the
// feature encoders' analytic gradients checked against finite differences
// (these gradients drive the C&W attack).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <sstream>

#include "common/rng.hpp"
#include "traj/features.hpp"
#include "traj/io.hpp"
#include "traj/trajectory.hpp"

namespace trajkit {
namespace {

const LocalProjection kProj({0.0, 0.0});

Trajectory make_line(std::size_t n, double step_m, double interval_s = 1.0) {
  std::vector<Enu> pts;
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({static_cast<double>(i) * step_m, 0.0});
  }
  return Trajectory::from_enu(pts, kProj, Mode::kWalking, interval_s);
}

TEST(Trajectory, BasicAccessors) {
  const auto t = make_line(5, 2.0);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_FALSE(t.empty());
  EXPECT_DOUBLE_EQ(t.interval_s(), 1.0);
  EXPECT_DOUBLE_EQ(t.duration_s(), 4.0);
  EXPECT_EQ(t.mode(), Mode::kWalking);
  EXPECT_NEAR(t.length_m(), 8.0, 1e-6);
}

TEST(Trajectory, RejectsNonIncreasingTimestamps) {
  std::vector<TrajPoint> pts = {{{0, 0}, 0.0}, {{0, 0}, 0.0}};
  EXPECT_THROW(Trajectory(std::move(pts), Mode::kWalking), std::invalid_argument);
}

TEST(Trajectory, FromEnuRejectsBadInterval) {
  EXPECT_THROW(Trajectory::from_enu({{0, 0}}, kProj, Mode::kWalking, 0.0),
               std::invalid_argument);
}

TEST(Trajectory, SpeedsAndAccelerations) {
  const auto t = make_line(4, 3.0, 2.0);  // 1.5 m/s constant
  const auto v = t.speeds_mps();
  ASSERT_EQ(v.size(), 3u);
  for (double s : v) EXPECT_NEAR(s, 1.5, 1e-6);
  const auto a = t.accelerations_mps2();
  ASSERT_EQ(a.size(), 2u);
  for (double x : a) EXPECT_NEAR(x, 0.0, 1e-6);
}

TEST(Trajectory, EnuRoundTrip) {
  const auto t = make_line(6, 1.7);
  const auto pts = t.to_enu(kProj);
  ASSERT_EQ(pts.size(), 6u);
  EXPECT_NEAR(pts[3].east, 5.1, 1e-6);
}

TEST(Trajectory, SetPositionsKeepsTimesAndChecksSize) {
  auto t = make_line(4, 1.0);
  std::vector<Enu> moved = {{0, 1}, {1, 1}, {2, 1}, {3, 1}};
  t.set_positions(moved, kProj);
  EXPECT_NEAR(t.to_enu(kProj)[2].north, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(t[2].time_s, 2.0);
  EXPECT_THROW(t.set_positions({{0, 0}}, kProj), std::invalid_argument);
}

TEST(Trajectory, SliceBoundsChecked) {
  const auto t = make_line(6, 1.0);
  const auto s = t.slice(2, 3);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.front().time_s, 2.0);
  EXPECT_THROW(t.slice(4, 3), std::out_of_range);
}

TEST(ModeName, AllModesNamed) {
  EXPECT_STREQ(mode_name(Mode::kWalking), "walking");
  EXPECT_STREQ(mode_name(Mode::kCycling), "cycling");
  EXPECT_STREQ(mode_name(Mode::kDriving), "driving");
}

TEST(Io, CsvRoundTrip) {
  TrajectoryList trajs;
  trajs.push_back(make_line(4, 2.0));
  auto second = make_line(3, 5.0);
  second.set_mode(Mode::kDriving);
  trajs.push_back(second);

  std::stringstream ss;
  write_csv(ss, trajs);
  const auto back = read_csv(ss);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].size(), 4u);
  EXPECT_EQ(back[1].mode(), Mode::kDriving);
  EXPECT_NEAR(back[0].length_m(), trajs[0].length_m(), 1e-3);
}

TEST(Io, RandomisedRoundTripSweep) {
  // Fuzz-ish property: any well-formed trajectory list survives a CSV
  // round-trip with metre-level geometry intact.
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    TrajectoryList trajs;
    const int count = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int t = 0; t < count; ++t) {
      std::vector<Enu> pts;
      const int n = 2 + static_cast<int>(rng.uniform_int(0, 20));
      for (int i = 0; i < n; ++i) {
        pts.push_back({rng.uniform(-500, 500), rng.uniform(-500, 500)});
      }
      const Mode mode = kAllModes[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      trajs.push_back(Trajectory::from_enu(pts, kProj, mode,
                                           rng.uniform(0.5, 3.0),
                                           rng.uniform(0, 1e6)));
    }
    std::stringstream ss;
    write_csv(ss, trajs);
    const auto back = read_csv(ss);
    ASSERT_EQ(back.size(), trajs.size());
    for (std::size_t t = 0; t < trajs.size(); ++t) {
      ASSERT_EQ(back[t].size(), trajs[t].size());
      EXPECT_EQ(back[t].mode(), trajs[t].mode());
      const auto a = trajs[t].to_enu(kProj);
      const auto b = back[t].to_enu(kProj);
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].east, b[i].east, 1e-3);
        EXPECT_NEAR(a[i].north, b[i].north, 1e-3);
        EXPECT_NEAR(trajs[t][i].time_s, back[t][i].time_s, 5e-3);
      }
    }
  }
}

TEST(Io, RejectsBadHeaderAndCells) {
  std::stringstream bad_header("wrong\n");
  EXPECT_THROW(read_csv(bad_header), std::runtime_error);
  std::stringstream bad_cell("traj_id,mode,lat,lon,time_s\n0,walking,abc,0,0\n");
  EXPECT_THROW(read_csv(bad_cell), std::runtime_error);
  std::stringstream bad_cols("traj_id,mode,lat,lon,time_s\n0,walking,0,0\n");
  EXPECT_THROW(read_csv(bad_cols), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Feature encoders.

TEST(DistAngleEncoder, EncodesKnownDisplacements) {
  DistAngleEncoder enc(10.0);
  const std::vector<Enu> pts = {{0, 0}, {10, 0}, {10, 10}};
  const auto f = enc.encode(pts);
  EXPECT_EQ(f.steps, 2u);
  EXPECT_EQ(f.dim, 2u);
  EXPECT_NEAR(f.at(0, 0), 1.0, 1e-12);          // 10 m / scale 10
  EXPECT_NEAR(f.at(0, 1), 0.0, 1e-12);          // east
  EXPECT_NEAR(f.at(1, 1), 0.5, 1e-12);          // north = pi/2 / pi
}

TEST(DxDyEncoder, EncodesKnownDisplacements) {
  DxDyEncoder enc(10.0);
  const std::vector<Enu> pts = {{0, 0}, {5, -10}};
  const auto f = enc.encode(pts);
  EXPECT_NEAR(f.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(f.at(0, 1), -1.0, 1e-12);
}

TEST(Encoders, RejectTooFewPoints) {
  DistAngleEncoder enc;
  EXPECT_THROW(enc.encode({{0, 0}}), std::invalid_argument);
}

// Finite-difference check of the encoder vector-Jacobian products, over both
// encoders and several random geometries.
struct EncoderCase {
  const char* name;
  bool dist_angle;
  std::uint64_t seed;
};

// Print a case as its label.  gtest's default printer dumps the struct's raw
// bytes, pointer and padding included, and ctest names parameterised tests by
// that printout, so without this the test names would change from run to run.
void PrintTo(const EncoderCase& c, std::ostream* os) { *os << c.name; }

class EncoderGradient : public ::testing::TestWithParam<EncoderCase> {};

TEST_P(EncoderGradient, MatchesFiniteDifference) {
  const auto param = GetParam();
  Rng rng(param.seed);
  std::vector<Enu> pts;
  for (int i = 0; i < 7; ++i) {
    pts.push_back({rng.uniform(-20, 20), rng.uniform(-20, 20)});
  }
  DistAngleEncoder da(7.0);
  DxDyEncoder dd(7.0);
  const FeatureEncoder& enc =
      param.dist_angle ? static_cast<const FeatureEncoder&>(da) : dd;

  // Random linear functional of the features: L = sum w_ij * f_ij.
  const auto f0 = enc.encode(pts);
  std::vector<double> w(f0.values.size());
  for (auto& x : w) x = rng.uniform(-1, 1);
  auto loss = [&](const std::vector<Enu>& p) {
    const auto f = enc.encode(p);
    double total = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) total += w[i] * f.values[i];
    return total;
  };

  // Analytic gradient via backprop of dL/df = w.
  FeatureSequence dfeat = f0;
  dfeat.values = w;
  std::vector<Enu> grad(pts.size(), Enu{});
  enc.backprop(pts, dfeat, grad);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (int axis = 0; axis < 2; ++axis) {
      auto plus = pts;
      auto minus = pts;
      double& pv = axis == 0 ? plus[i].east : plus[i].north;
      double& mv = axis == 0 ? minus[i].east : minus[i].north;
      pv += eps;
      mv -= eps;
      const double numeric = (loss(plus) - loss(minus)) / (2 * eps);
      const double analytic = axis == 0 ? grad[i].east : grad[i].north;
      EXPECT_NEAR(analytic, numeric, 1e-5)
          << param.name << " point " << i << " axis " << axis;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EncoderGradient,
    ::testing::Values(EncoderCase{"dist_angle_a", true, 11},
                      EncoderCase{"dist_angle_b", true, 12},
                      EncoderCase{"dist_angle_c", true, 13},
                      EncoderCase{"dx_dy_a", false, 21},
                      EncoderCase{"dx_dy_b", false, 22}));

TEST(MotionSummary, DimensionsAndNames) {
  const auto t = make_line(10, 2.0);
  const auto f = motion_summary_features(t, kProj);
  EXPECT_EQ(f.size(), motion_summary_feature_names().size());
  EXPECT_EQ(f.size(), 34u);  // 6 location + 7 series * 4 stats
}

TEST(MotionSummary, ConstantSpeedLineHasZeroAcceleration) {
  const auto t = make_line(10, 2.0);
  const auto names = motion_summary_feature_names();
  const auto f = motion_summary_features(t, kProj);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "speed_mean") EXPECT_NEAR(f[i], 2.0, 1e-6);
    if (names[i] == "accel_mean") EXPECT_NEAR(f[i], 0.0, 1e-6);
    if (names[i] == "speed_std") EXPECT_NEAR(f[i], 0.0, 1e-6);
  }
}

TEST(MotionSummary, RequiresThreePoints) {
  const auto t = make_line(2, 1.0);
  EXPECT_THROW(motion_summary_features(t, kProj), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit
