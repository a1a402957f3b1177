// DTW value, path, banded variant and the optimal-alignment subgradient,
// checked against the unpruned DP in tests/reference.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "dtw/dtw.hpp"
#include "reference/dtw_reference.hpp"

namespace trajkit {
namespace {

std::vector<Enu> random_walk(Rng& rng, std::size_t n, double step = 3.0) {
  std::vector<Enu> pts = {{0, 0}};
  for (std::size_t i = 1; i < n; ++i) {
    pts.push_back({pts.back().east + rng.uniform(-step, step),
                   pts.back().north + rng.uniform(-step, step)});
  }
  return pts;
}

TEST(Dtw, IdenticalSequencesHaveZeroDistance) {
  Rng rng(1);
  const auto a = random_walk(rng, 20);
  const auto r = reference::dtw(a, a);
  EXPECT_NEAR(r.distance, 0.0, 1e-9);
  // The alignment of identical sequences is the diagonal.
  ASSERT_EQ(r.path.size(), 20u);
  for (std::size_t i = 0; i < r.path.size(); ++i) {
    EXPECT_EQ(r.path[i].i, i);
    EXPECT_EQ(r.path[i].j, i);
  }
}

TEST(Dtw, SymmetricValue) {
  Rng rng(2);
  for (int k = 0; k < 5; ++k) {
    const auto a = random_walk(rng, 15);
    const auto b = random_walk(rng, 18);
    EXPECT_NEAR(reference::dtw(a, b).distance, reference::dtw(b, a).distance, 1e-9);
  }
}

TEST(Dtw, SinglePointSequences) {
  const auto r = reference::dtw({{0, 0}}, {{3, 4}});
  EXPECT_DOUBLE_EQ(r.distance, 5.0);
  ASSERT_EQ(r.path.size(), 1u);
}

TEST(Dtw, RejectsEmptyInput) {
  EXPECT_THROW(reference::dtw({}, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(dtw_distance({{0, 0}}, {}), std::invalid_argument);
}

TEST(Dtw, KnownSmallCase) {
  // b equals a with one repeated point; DTW should absorb the repeat freely.
  const std::vector<Enu> a = {{0, 0}, {1, 0}, {2, 0}};
  const std::vector<Enu> b = {{0, 0}, {1, 0}, {1, 0}, {2, 0}};
  EXPECT_NEAR(reference::dtw(a, b).distance, 0.0, 1e-12);
}

TEST(Dtw, PathIsMonotoneAndContiguous) {
  Rng rng(3);
  const auto a = random_walk(rng, 12);
  const auto b = random_walk(rng, 17);
  const auto r = reference::dtw(a, b);
  EXPECT_EQ(r.path.front().i, 0u);
  EXPECT_EQ(r.path.front().j, 0u);
  EXPECT_EQ(r.path.back().i, a.size() - 1);
  EXPECT_EQ(r.path.back().j, b.size() - 1);
  for (std::size_t k = 1; k < r.path.size(); ++k) {
    const auto di = r.path[k].i - r.path[k - 1].i;
    const auto dj = r.path[k].j - r.path[k - 1].j;
    EXPECT_TRUE((di == 0 || di == 1) && (dj == 0 || dj == 1));
    EXPECT_TRUE(di + dj >= 1);
  }
}

TEST(Dtw, StreamingDistanceMatchesFull) {
  Rng rng(4);
  for (int k = 0; k < 8; ++k) {
    const auto a = random_walk(rng, 10 + k);
    const auto b = random_walk(rng, 14);
    EXPECT_NEAR(reference::dtw(a, b).distance, dtw_distance(a, b), 1e-9);
    EXPECT_NEAR(reference::dtw(b, a).distance, dtw_distance(b, a), 1e-9);
  }
}

TEST(DtwBanded, WideBandEqualsFull) {
  Rng rng(5);
  const auto a = random_walk(rng, 25);
  const auto b = random_walk(rng, 25);
  EXPECT_NEAR(dtw_banded(a, b, 25).distance, reference::dtw(a, b).distance, 1e-9);
}

TEST(DtwBanded, NarrowBandUpperBoundsFull) {
  Rng rng(6);
  for (int k = 0; k < 6; ++k) {
    const auto a = random_walk(rng, 30);
    const auto b = random_walk(rng, 30);
    const double full = reference::dtw(a, b).distance;
    const double banded = dtw_banded(a, b, 3).distance;
    EXPECT_GE(banded, full - 1e-9);  // constraining can only increase cost
  }
}

TEST(DtwBanded, BandWidensToCoverLengthDifference) {
  // With very different lengths even band=0 must remain feasible.
  Rng rng(7);
  const auto a = random_walk(rng, 5);
  const auto b = random_walk(rng, 20);
  const auto r = dtw_banded(a, b, 0);
  EXPECT_TRUE(std::isfinite(r.distance));
}

TEST(DtwPruned, BitIdenticalToFullOnRandomPairs) {
  // The pruned DP must reproduce the unpruned oracle exactly — distance
  // bitwise AND the alignment path index-for-index — across shapes, bands
  // and separations.
  Rng rng(1234);
  for (int pair = 0; pair < 200; ++pair) {
    const std::size_t na = 2 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    const std::size_t nb = 2 + static_cast<std::size_t>(rng.uniform_int(0, 30));
    const auto a = random_walk(rng, na);
    auto b = random_walk(rng, nb);
    if (pair % 3 == 0) {
      // Nearby pair (the attack regime): b is a perturbation of a's prefix.
      b = a;
      b.resize(std::min(na, nb));
      for (auto& p : b) {
        p.east += rng.uniform(-1.0, 1.0);
        p.north += rng.uniform(-1.0, 1.0);
      }
    }
    const std::size_t band = static_cast<std::size_t>(rng.uniform_int(0, 8));
    const auto full = reference::dtw(a, b);
    const auto pruned = dtw_pruned(a, b, band);
    ASSERT_EQ(full.distance, pruned.distance) << "pair " << pair;  // bitwise
    ASSERT_EQ(full.path.size(), pruned.path.size()) << "pair " << pair;
    for (std::size_t k = 0; k < full.path.size(); ++k) {
      ASSERT_EQ(full.path[k].i, pruned.path[k].i) << "pair " << pair << " k " << k;
      ASSERT_EQ(full.path[k].j, pruned.path[k].j) << "pair " << pair << " k " << k;
    }
  }
}

TEST(DtwPruned, HandlesDegenerateShapes) {
  const std::vector<Enu> single = {{1.0, 2.0}};
  const auto line = std::vector<Enu>{{0, 0}, {5, 0}, {10, 0}};
  EXPECT_EQ(dtw_pruned(single, single, 0).distance, reference::dtw(single, single).distance);
  EXPECT_EQ(dtw_pruned(single, line, 0).distance, reference::dtw(single, line).distance);
  EXPECT_EQ(dtw_pruned(line, single, 0).distance, reference::dtw(line, single).distance);
  EXPECT_THROW(dtw_pruned({}, line), std::invalid_argument);
}

TEST(DtwEarlyAbandon, ExactUnderThresholdInfAbove) {
  Rng rng(555);
  for (int pair = 0; pair < 100; ++pair) {
    const auto a = random_walk(rng, 15 + pair % 7);
    const auto b = random_walk(rng, 12 + pair % 5);
    const double exact = dtw_distance(a, b);
    // Generous threshold: result must be the exact distance, bitwise.
    EXPECT_EQ(dtw_distance(a, b, exact * 2.0 + 1.0), exact) << "pair " << pair;
    // Threshold at the exact value: not provably above, still exact.
    EXPECT_EQ(dtw_distance(a, b, exact), exact) << "pair " << pair;
    // Threshold strictly below: the DP may abandon or overshoot, but it must
    // never report a value below the true distance (callers treat anything
    // above the threshold as "skip", so only underestimates would be bugs).
    const double r = dtw_distance(a, b, exact * 0.5);
    EXPECT_GE(r, exact) << "pair " << pair;
  }
}

TEST(DtwEarlyAbandon, AbandonsDistantPair) {
  // Two far-apart straight lines: every row minimum exceeds the threshold
  // immediately, so the result is +inf (and the caller skips the pair).
  std::vector<Enu> a;
  std::vector<Enu> b;
  for (int i = 0; i < 50; ++i) {
    a.push_back({i * 1.0, 0.0});
    b.push_back({i * 1.0, 1000.0});
  }
  EXPECT_TRUE(std::isinf(dtw_distance(a, b, 10.0)));
}

TEST(DtwNormalized, PureTranslationEqualsOffset) {
  std::vector<Enu> a;
  std::vector<Enu> b;
  for (int i = 0; i < 30; ++i) {
    a.push_back({i * 5.0, 0.0});
    b.push_back({i * 5.0, 2.0});  // constant 2 m lateral offset
  }
  EXPECT_NEAR(dtw_normalized(a, b), 2.0, 1e-9);
}

TEST(DtwNormalized, BitIdenticalToUnprunedOnRandomPairs) {
  // dtw_normalized and the gradient's value both run the pruned DP; each
  // must equal its formula over the unpruned oracle bitwise.
  Rng rng(4321);
  for (int pair = 0; pair < 100; ++pair) {
    const auto a = random_walk(rng, 2 + static_cast<std::size_t>(rng.uniform_int(0, 30)));
    const auto b = random_walk(rng, 2 + static_cast<std::size_t>(rng.uniform_int(0, 30)));
    const auto full = reference::dtw(a, b);
    const double len = static_cast<double>(full.path.size());
    ASSERT_EQ(dtw_normalized(a, b), full.distance / len) << "pair " << pair;
    std::vector<Enu> grad(b.size(), Enu{});
    ASSERT_EQ(dtw_normalized_gradient(a, b, grad, pair % 5), full.distance * (1.0 / len))
        << "pair " << pair;
  }
}

TEST(DtwGradient, MatchesFiniteDifference) {
  Rng rng(8);
  const auto a = random_walk(rng, 10);
  auto b = random_walk(rng, 10);

  std::vector<Enu> grad(b.size(), Enu{});
  const double value = dtw_normalized_gradient(a, b, grad);
  const auto full = reference::dtw(a, b);
  const double len = static_cast<double>(full.path.size());
  EXPECT_NEAR(value, full.distance / len, 1e-9);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < b.size(); ++i) {
    for (int axis = 0; axis < 2; ++axis) {
      auto plus = b;
      auto minus = b;
      (axis == 0 ? plus[i].east : plus[i].north) += eps;
      (axis == 0 ? minus[i].east : minus[i].north) -= eps;
      const double numeric =
          (reference::dtw(a, plus).distance - reference::dtw(a, minus).distance) /
          (2 * eps * len);
      const double analytic = axis == 0 ? grad[i].east : grad[i].north;
      // The subgradient holds the alignment (and so its length) fixed; tiny
      // epsilon keeps the optimal path unchanged so the values must agree.
      EXPECT_NEAR(analytic, numeric, 1e-4) << "point " << i << " axis " << axis;
    }
  }
}

TEST(DtwGradient, RejectsWrongBufferSize) {
  std::vector<Enu> grad(2);
  EXPECT_THROW(dtw_normalized_gradient({{0, 0}}, {{1, 1}}, grad), std::invalid_argument);
}

TEST(DtwGradient, DescentStepReducesDistance) {
  Rng rng(9);
  const auto a = random_walk(rng, 15);
  auto b = random_walk(rng, 15);
  const double before = dtw_normalized(a, b);
  std::vector<Enu> grad(b.size(), Enu{});
  dtw_normalized_gradient(a, b, grad);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].east -= 0.5 * grad[i].east;
    b[i].north -= 0.5 * grad[i].north;
  }
  EXPECT_LT(dtw_normalized(a, b), before);
}

// Property sweep: triangle-like bound DTW(a,c) <= DTW(a,b) + DTW(b,c) does
// NOT hold for DTW in general, but non-negativity and identity do.
class DtwProperty : public ::testing::TestWithParam<int> {};

TEST_P(DtwProperty, NonNegativeAndZeroOnlyOnSelf) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  const auto a = random_walk(rng, 12);
  auto b = a;
  b[5].east += 1.0;
  EXPECT_GT(reference::dtw(a, b).distance, 0.0);
  EXPECT_GE(reference::dtw(a, random_walk(rng, 9)).distance, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwProperty, ::testing::Range(0, 8));

TEST(DtwProperties, TwoHundredRandomPairs) {
  // Property sweep over 200 random pairs: symmetry, identity, non-negativity,
  // and agreement between the path-recovering and streaming variants.
  Rng rng(4242);
  for (int pair = 0; pair < 200; ++pair) {
    const std::size_t na = 2 + static_cast<std::size_t>(rng.uniform_int(0, 18));
    const std::size_t nb = 2 + static_cast<std::size_t>(rng.uniform_int(0, 18));
    const auto a = random_walk(rng, na);
    const auto b = random_walk(rng, nb);

    const double ab = reference::dtw(a, b).distance;
    const double ba = reference::dtw(b, a).distance;
    EXPECT_NEAR(ab, ba, 1e-9) << "pair " << pair;          // symmetry
    EXPECT_GE(ab, 0.0) << "pair " << pair;                 // non-negativity
    EXPECT_NEAR(reference::dtw(a, a).distance, 0.0, 1e-9) << "pair " << pair;  // identity
    EXPECT_NEAR(ab, dtw_distance(a, b), 1e-9) << "pair " << pair;
  }
}

}  // namespace
}  // namespace trajkit
