// Gradient-boosted trees: binning, single-tree fitting, booster learning,
// feature importance, serialisation, and the fused scorer against the
// scalar-walk oracle (tests/reference).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "gbt/binning.hpp"
#include "gbt/booster.hpp"
#include "gbt/tree.hpp"
#include "reference/gbt_reference.hpp"

namespace trajkit::gbt {
namespace {

TEST(FeatureBins, MonotoneMapping) {
  const std::vector<double> col = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto bins = FeatureBins::fit(col, 4);
  std::uint16_t prev = 0;
  for (double v = 0.0; v <= 11.0; v += 0.5) {
    const auto b = bins.bin_of(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  EXPECT_LT(bins.bin_of(1.0), bins.bin_of(10.0));
}

TEST(FeatureBins, ConstantFeatureSingleBin) {
  const auto bins = FeatureBins::fit({5, 5, 5, 5}, 8);
  EXPECT_EQ(bins.bin_of(4.0), bins.bin_of(5.0));
  EXPECT_LE(bins.bin_count(), 2u);
}

TEST(FeatureBins, RejectsBadInput) {
  EXPECT_THROW(FeatureBins::fit({}, 4), std::invalid_argument);
  EXPECT_THROW(FeatureBins::fit({1.0}, 1), std::invalid_argument);
  EXPECT_THROW(FeatureBins::fit({std::nan("")}, 4), std::invalid_argument);
}

TEST(BinnedMatrix, ShapeAndRaggedCheck) {
  const std::vector<std::vector<double>> x = {{1, 10}, {2, 20}, {3, 30}};
  const auto m = BinnedMatrix::fit_transform(x, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_LE(m.at(0, 0), m.at(2, 0));

  EXPECT_THROW(BinnedMatrix::fit_transform({{1, 2}, {3}}, 4), std::invalid_argument);
  EXPECT_THROW(BinnedMatrix::fit_transform({}, 4), std::invalid_argument);
}

TEST(Tree, FitsSimpleThresholdSplit) {
  // y = 1 iff x0 > 5; gradients from a half-trained logistic model.
  std::vector<std::vector<double>> x;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<std::size_t> rows;
  for (int i = 0; i < 20; ++i) {
    x.push_back({static_cast<double>(i), 0.0});
    const double label = i > 5 ? 1.0 : 0.0;
    grad.push_back(0.5 - label);  // p = 0.5 everywhere
    hess.push_back(0.25);
    rows.push_back(static_cast<std::size_t>(i));
  }
  const auto binned = BinnedMatrix::fit_transform(x, 16);
  const auto tree = Tree::grow(binned, grad, hess, rows, {});

  // Leaves should separate the classes with opposite signs.
  EXPECT_GT(tree.predict({10.0, 0.0}), 0.5);
  EXPECT_LT(tree.predict({2.0, 0.0}), -0.5);
}

TEST(Tree, PureNodeStaysLeaf) {
  std::vector<std::vector<double>> x = {{1.0}, {2.0}, {3.0}};
  const std::vector<double> grad = {0.2, 0.2, 0.2};
  const std::vector<double> hess = {0.25, 0.25, 0.25};
  const auto binned = BinnedMatrix::fit_transform(x, 8);
  TreeConfig cfg;
  cfg.gamma = 10.0;  // no split clears this bar
  const auto tree = Tree::grow(binned, grad, hess, {0, 1, 2}, cfg);
  EXPECT_EQ(tree.nodes().size(), 1u);
  EXPECT_LT(tree.nodes()[0].leaf_value, 0.0);  // -G/(H+lambda)
}

TEST(Tree, RespectsMaxDepth) {
  Rng rng(1);
  std::vector<std::vector<double>> x;
  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<std::size_t> rows;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(0, 1), rng.uniform(0, 1)});
    grad.push_back(rng.uniform(-1, 1));
    hess.push_back(0.25);
    rows.push_back(static_cast<std::size_t>(i));
  }
  const auto binned = BinnedMatrix::fit_transform(x, 16);
  TreeConfig cfg;
  cfg.max_depth = 2;
  const auto tree = Tree::grow(binned, grad, hess, rows, cfg);
  // Depth 2 => at most 1 + 2 + 4 = 7 nodes.
  EXPECT_LE(tree.nodes().size(), 7u);
}

TEST(Tree, SaveLoadRoundTrip) {
  std::vector<std::vector<double>> x = {{0.0}, {1.0}, {2.0}, {3.0}};
  const std::vector<double> grad = {0.5, 0.5, -0.5, -0.5};
  const std::vector<double> hess = {0.25, 0.25, 0.25, 0.25};
  const auto binned = BinnedMatrix::fit_transform(x, 8);
  const auto tree = Tree::grow(binned, grad, hess, {0, 1, 2, 3}, {});

  std::stringstream ss;
  tree.save(ss);
  const auto loaded = Tree::load(ss);
  for (double v = -1.0; v < 5.0; v += 0.25) {
    EXPECT_DOUBLE_EQ(tree.predict({v}), loaded.predict({v}));
  }
}

TEST(Booster, LearnsLinearlySeparableData) {
  Rng rng(2);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y.push_back(a + b > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 40;
  GbtClassifier model(cfg);
  model.train(x, y);

  int correct = 0;
  for (int i = 0; i < 400; ++i) correct += model.predict(x[i]) == y[i];
  EXPECT_GT(correct, 380);
}

TEST(Booster, LearnsXorWithDepth) {
  Rng rng(3);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 600; ++i) {
    const double a = rng.uniform(-1, 1);
    const double b = rng.uniform(-1, 1);
    x.push_back({a, b});
    y.push_back((a > 0) != (b > 0) ? 1 : 0);  // XOR: needs depth >= 2
  }
  GbtConfig cfg;
  cfg.num_trees = 60;
  cfg.max_depth = 3;
  GbtClassifier model(cfg);
  model.train(x, y);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) correct += model.predict(x[i]) == y[i];
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.size()), 0.95);
}

TEST(Booster, TrainLoglossDecreases) {
  Rng rng(4);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(-1, 1)});
    y.push_back(x.back()[0] > 0.2 ? 1 : 0);
  }
  std::vector<double> losses;
  GbtConfig cfg;
  cfg.num_trees = 30;
  GbtClassifier model(cfg);
  model.train(x, y, [&](std::size_t, double loss) { losses.push_back(loss); });
  ASSERT_EQ(losses.size(), 30u);
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

TEST(Booster, FeatureImportanceIdentifiesSignal) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    const double signal = rng.uniform(-1, 1);
    x.push_back({rng.uniform(-1, 1), signal, rng.uniform(-1, 1)});
    y.push_back(signal > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 30;
  GbtClassifier model(cfg);
  model.train(x, y);
  const auto importance = model.feature_importance(3);
  EXPECT_GT(importance[1], importance[0]);
  EXPECT_GT(importance[1], importance[2]);
  EXPECT_NEAR(importance[0] + importance[1] + importance[2], 1.0, 1e-9);
}

TEST(Booster, SubsamplingStillLearns) {
  Rng rng(6);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    x.push_back({rng.uniform(-1, 1)});
    y.push_back(x.back()[0] > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 50;
  cfg.subsample = 0.5;
  GbtClassifier model(cfg);
  model.train(x, y);
  int correct = 0;
  for (std::size_t i = 0; i < x.size(); ++i) correct += model.predict(x[i]) == y[i];
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(x.size()), 0.95);
}

TEST(Booster, SaveLoadRoundTrip) {
  Rng rng(7);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
    y.push_back(x.back()[0] > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 10;
  GbtClassifier model(cfg);
  model.train(x, y);

  std::stringstream ss;
  model.save(ss);
  const auto loaded = GbtClassifier::try_load(ss);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded.value().tree_count(), model.tree_count());
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> row = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_NEAR(model.predict_proba(row), loaded.value().predict_proba(row), 1e-12);
  }
}

TEST(Booster, PriorBaseScoreForImbalancedLabels) {
  // With no informative features, predictions collapse to the class prior.
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({1.0});
    y.push_back(i < 90 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 5;
  GbtClassifier model(cfg);
  model.train(x, y);
  EXPECT_NEAR(model.predict_proba({1.0}), 0.9, 0.05);
}

TEST(Booster, SingleClassLabelsPredictThatClass) {
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 50; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(1);
  }
  GbtConfig cfg;
  cfg.num_trees = 5;
  GbtClassifier model(cfg);
  model.train(x, y);
  EXPECT_GT(model.predict_proba({25.0}), 0.95);
}

TEST(Booster, DeterministicForSameSeed) {
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) {
    x.push_back({rng.uniform(-1, 1), rng.uniform(-1, 1)});
    y.push_back(x.back()[0] > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 20;
  cfg.subsample = 0.7;
  cfg.seed = 99;
  GbtClassifier a(cfg);
  GbtClassifier b(cfg);
  a.train(x, y);
  b.train(x, y);
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> row = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    EXPECT_DOUBLE_EQ(a.predict_proba(row), b.predict_proba(row));
  }
}

TEST(Booster, MonotoneFeatureLearnsMonotoneScore) {
  // y = 1 iff x > 0: the predicted probability should be (weakly) higher for
  // clearly positive inputs than clearly negative ones.
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 300; ++i) {
    x.push_back({rng.uniform(-1, 1)});
    y.push_back(x.back()[0] > 0 ? 1 : 0);
  }
  GbtConfig cfg;
  cfg.num_trees = 30;
  GbtClassifier model(cfg);
  model.train(x, y);
  EXPECT_GT(model.predict_proba({0.8}), model.predict_proba({-0.8}) + 0.5);
}

TEST(Tree, LoadRejectsGarbage) {
  std::stringstream ss("not a tree");
  EXPECT_THROW(Tree::load(ss), std::runtime_error);
}

TEST(Booster, LoadRejectsGarbage) {
  std::stringstream ss("junk");
  EXPECT_FALSE(GbtClassifier::try_load(ss).has_value());
}

TEST(Booster, ValidatesConfigAndData) {
  GbtConfig bad;
  bad.subsample = 0.0;
  EXPECT_THROW(GbtClassifier{bad}, std::invalid_argument);
  bad = {};
  bad.num_trees = 0;
  EXPECT_THROW(GbtClassifier{bad}, std::invalid_argument);

  GbtClassifier model;
  EXPECT_THROW(model.train({}, {}), std::invalid_argument);
  EXPECT_THROW(model.train({{1.0}}, {1, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fused scorer vs the scalar tree walk

/// Every (feature, split value) pair of a trained ensemble, read back through
/// the model's own text format.
std::vector<std::pair<std::size_t, double>> splits_of(const GbtClassifier& model) {
  std::stringstream ss;
  model.save(ss);
  std::string magic;
  GbtConfig cfg;
  double base = 0.0;
  std::size_t trees = 0;
  ss >> magic >> cfg.num_trees >> cfg.max_depth >> cfg.learning_rate >> cfg.max_bins >>
      cfg.lambda >> cfg.gamma >> cfg.min_child_weight >> cfg.subsample >> cfg.seed >>
      base >> trees;
  std::vector<std::pair<std::size_t, double>> out;
  for (std::size_t t = 0; t < trees; ++t) {
    const Tree tree = Tree::load(ss);
    for (const TreeNode& n : tree.nodes()) {
      if (n.feature >= 0) out.emplace_back(static_cast<std::size_t>(n.feature), n.split_value);
    }
  }
  return out;
}

TEST(FusedForest, MatchesScalarWalkBitwise) {
  constexpr std::size_t kWidth = 12;
  Rng rng(2024);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(kWidth);
    for (auto& v : row) v = rng.uniform(-3.0, 3.0);
    y.push_back(row[0] * row[1] + row[2] - 0.5 * row[7] > 0.0 ? 1 : 0);
    x.push_back(std::move(row));
  }
  GbtConfig cfg;
  cfg.num_trees = 60;
  cfg.max_depth = 5;
  cfg.subsample = 0.8;
  GbtClassifier model(cfg);
  model.train(x, y);
  ASSERT_LE(model.num_features(), kWidth);

  auto expect_same = [&](const std::vector<double>& row, const std::string& what) {
    const double fused = model.predict_proba(row);
    const double walk = reference::predict_proba(model, row);
    ASSERT_EQ(fused, walk) << what;  // bitwise: neither is ever NaN
  };
  // Random rows, inside and beyond the training range.
  for (int i = 0; i < 500; ++i) {
    std::vector<double> row(kWidth);
    for (auto& v : row) v = rng.uniform(-5.0, 5.0);
    expect_same(row, "random row " + std::to_string(i));
  }
  // Values exactly on a split threshold (v <= t goes left) and one ulp to
  // either side of it.
  const auto splits = splits_of(model);
  ASSERT_FALSE(splits.empty());
  for (std::size_t s = 0; s < splits.size(); ++s) {
    const auto [feature, value] = splits[s];
    for (const double v : {value, std::nextafter(value, -1e300), std::nextafter(value, 1e300)}) {
      std::vector<double> row = x[s % x.size()];
      row[feature] = v;
      expect_same(row, "split " + std::to_string(s));
    }
  }
  // NaN goes right at every split; +-inf land beyond every threshold.
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  for (std::size_t f = 0; f < kWidth; ++f) {
    for (const double v : specials) {
      std::vector<double> row = x[f];
      row[f] = v;
      expect_same(row, "special in feature " + std::to_string(f));
    }
  }
  for (const double v : specials) {
    expect_same(std::vector<double>(kWidth, v), "all-special row");
  }
}

/// A one-split stump on `feature` in the booster's text format.
std::string stump_model(long feature) {
  return "trajkit_gbt_v1\n"
         "1 4 0.1 32 1 0 1 1 42\n"
         "0 1\n"
         "3\n" +
         std::to_string(feature) +
         " 0.5 0 1 2 0 1\n"
         "-1 0 0 -1 -1 0.25 0\n"
         "-1 0 0 -1 -1 -0.25 0\n";
}

TEST(FusedForest, FeatureIndexBeyondUint16IsRefusedAtLoad) {
  // Index 65535 still fits the fused node's uint16 slot and loads.
  std::istringstream fits(stump_model(65535));
  const auto loaded = GbtClassifier::try_load(fits);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded.value().num_features(), 65536u);
  std::vector<double> row(65536, 0.0);
  row[65535] = 1.0;
  EXPECT_EQ(loaded.value().predict_proba(row), reference::predict_proba(loaded.value(), row));

  // 65536 does not, and there is no second scoring path to fall back on.
  for (const long feature : {65536L, 5'000'000L}) {
    std::istringstream wide(stump_model(feature));
    const auto refused = GbtClassifier::try_load(wide);
    ASSERT_FALSE(refused.has_value()) << feature;
    EXPECT_NE(refused.error().find("uint16"), std::string::npos) << refused.error();
  }
}

TEST(FusedForest, UntrainedModelScoresEvenOdds) {
  const GbtClassifier model;
  EXPECT_EQ(model.num_features(), 0u);
  EXPECT_EQ(model.predict_proba({}), 0.5);
  EXPECT_EQ(reference::predict_proba(model, {}), 0.5);
}

}  // namespace
}  // namespace trajkit::gbt
