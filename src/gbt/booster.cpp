#include "gbt/booster.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/durable/durable_file.hpp"
#include "common/rng.hpp"

namespace trajkit::gbt {
namespace {

constexpr const char* kDurableTag = "gbt_classifier";
constexpr std::uint32_t kDurableVersion = 1;
constexpr std::size_t kMaxTrees = std::size_t{1} << 20;

double sigmoid(double x) {
  if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

GbtClassifier::GbtClassifier(GbtConfig config) : config_(config) {
  if (config_.subsample <= 0.0 || config_.subsample > 1.0) {
    throw std::invalid_argument("GbtClassifier: subsample must be in (0, 1]");
  }
  if (config_.num_trees == 0) {
    throw std::invalid_argument("GbtClassifier: need at least one tree");
  }
}

void GbtClassifier::train(const std::vector<std::vector<double>>& x,
                          const std::vector<int>& y,
                          const std::function<void(std::size_t, double)>& progress) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("GbtClassifier::train: bad dataset");
  }
  trees_.clear();

  const BinnedMatrix binned = BinnedMatrix::fit_transform(x, config_.max_bins);
  const std::size_t n = x.size();

  // Start from the prior log-odds, clamped away from degenerate datasets.
  const double positives = static_cast<double>(std::accumulate(y.begin(), y.end(), 0));
  const double prior = std::clamp(positives / static_cast<double>(n), 1e-6, 1.0 - 1e-6);
  base_score_ = std::log(prior / (1.0 - prior));

  std::vector<double> margin(n, base_score_);
  std::vector<double> grad(n);
  std::vector<double> hess(n);
  Rng rng(config_.seed);

  TreeConfig tree_cfg{config_.max_depth, config_.lambda, config_.gamma,
                      config_.min_child_weight};

  for (std::size_t round = 0; round < config_.num_trees; ++round) {
    double logloss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = sigmoid(margin[i]);
      const double label = y[i] ? 1.0 : 0.0;
      grad[i] = p - label;
      hess[i] = std::max(p * (1.0 - p), 1e-12);
      logloss -= label * std::log(std::max(p, 1e-12)) +
                 (1.0 - label) * std::log(std::max(1.0 - p, 1e-12));
    }
    logloss /= static_cast<double>(n);

    std::vector<std::size_t> rows;
    rows.reserve(n);
    if (config_.subsample >= 1.0) {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.chance(config_.subsample)) rows.push_back(i);
      }
      if (rows.empty()) rows.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    }

    Tree tree = Tree::grow(binned, grad, hess, rows, tree_cfg);
    for (std::size_t i = 0; i < n; ++i) {
      margin[i] += config_.learning_rate * tree.predict(x[i]);
    }
    trees_.push_back(std::move(tree));
    if (progress) progress(round, logloss);
  }
  rebuild_fused();
}

void GbtClassifier::rebuild_fused() {
  fused_ = std::make_shared<const FusedForest>(
      FusedForest::build(trees_, base_score_, config_.learning_rate));
}

double GbtClassifier::predict_proba(const std::vector<double>& row) const {
  if (fused_ && fused_->valid()) return sigmoid(fused_->margin(row));
  return predict_proba_reference(row);
}

double GbtClassifier::predict_proba_reference(const std::vector<double>& row) const {
  double margin = base_score_;
  for (const auto& tree : trees_) margin += config_.learning_rate * tree.predict(row);
  return sigmoid(margin);
}

int GbtClassifier::predict(const std::vector<double>& row, double threshold) const {
  return predict_proba(row) >= threshold ? 1 : 0;
}

std::vector<double> GbtClassifier::feature_importance(std::size_t num_features) const {
  std::vector<double> importance(num_features, 0.0);
  for (const auto& tree : trees_) tree.add_importance(importance);
  const double total = std::accumulate(importance.begin(), importance.end(), 0.0);
  if (total > 0.0) {
    for (auto& v : importance) v /= total;
  }
  return importance;
}

void GbtClassifier::save(std::ostream& os) const {
  os << "trajkit_gbt_v1\n";
  os.precision(17);
  os << config_.num_trees << ' ' << config_.max_depth << ' ' << config_.learning_rate
     << ' ' << config_.max_bins << ' ' << config_.lambda << ' ' << config_.gamma << ' '
     << config_.min_child_weight << ' ' << config_.subsample << ' ' << config_.seed
     << '\n';
  os << base_score_ << ' ' << trees_.size() << '\n';
  for (const auto& tree : trees_) tree.save(os);
}

Expected<GbtClassifier, std::string> GbtClassifier::try_load(std::istream& is) {
  using Result = Expected<GbtClassifier, std::string>;
  std::string magic;
  if (!(is >> magic) || magic != "trajkit_gbt_v1") {
    return Result::failure("gbt load: bad magic");
  }
  GbtConfig cfg;
  if (!(is >> cfg.num_trees >> cfg.max_depth >> cfg.learning_rate >> cfg.max_bins >>
        cfg.lambda >> cfg.gamma >> cfg.min_child_weight >> cfg.subsample >> cfg.seed)) {
    return Result::failure("gbt load: bad config");
  }
  if (cfg.num_trees == 0 || cfg.num_trees > kMaxTrees || cfg.max_depth > 64 ||
      cfg.max_bins < 2 || cfg.max_bins > 65536 ||
      !std::isfinite(cfg.learning_rate) || !std::isfinite(cfg.lambda) ||
      !std::isfinite(cfg.gamma) || !std::isfinite(cfg.min_child_weight) ||
      !(cfg.subsample > 0.0 && cfg.subsample <= 1.0)) {
    return Result::failure("gbt load: implausible config");
  }
  try {
    GbtClassifier model(cfg);
    std::size_t tree_count = 0;
    if (!(is >> model.base_score_ >> tree_count)) {
      return Result::failure("gbt load: bad header");
    }
    if (!std::isfinite(model.base_score_) || tree_count > kMaxTrees) {
      return Result::failure("gbt load: implausible ensemble header");
    }
    model.trees_.reserve(tree_count);
    for (std::size_t i = 0; i < tree_count; ++i) {
      model.trees_.push_back(Tree::load(is));
    }
    model.rebuild_fused();
    return Result(std::move(model));
  } catch (const std::exception& e) {
    return Result::failure(std::string("gbt load: ") + e.what());
  }
}

void GbtClassifier::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(payload.str());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("GbtClassifier::save_file: " + committed.error());
  }
}

Expected<GbtClassifier, std::string> GbtClassifier::try_load_file(
    const std::string& path) {
  using Result = Expected<GbtClassifier, std::string>;
  auto records = durable::read_durable_file(path, kDurableTag, kDurableVersion);
  if (!records) return Result::failure("gbt load: " + records.error());
  if (records.value().size() != 1) {
    return Result::failure("gbt load: unexpected record count");
  }
  std::istringstream is(records.value()[0]);
  return try_load(is);
}

}  // namespace trajkit::gbt
