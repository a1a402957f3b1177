// Gradient-boosted binary classifier (XGBoost-style).
//
// Logistic objective: per boosting round, gradients g = p - y and hessians
// h = p (1 - p) are computed from the current margin, a depth-limited tree is
// fitted to (g, h) on binned features (src/gbt/tree.hpp), and its prediction
// joins the ensemble scaled by the learning rate.
//
// Used in two roles in the reproduction: the motion-feature transfer
// classifier of Table I/II, and the RSSI-confidence detector of Sec. III-C
// (Table IV, Figs. 4-6).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "gbt/fused.hpp"
#include "gbt/tree.hpp"

namespace trajkit::gbt {

namespace reference {
struct BoosterAccess;
}  // namespace reference

struct GbtConfig {
  std::size_t num_trees = 120;
  std::size_t max_depth = 4;
  double learning_rate = 0.1;
  std::size_t max_bins = 32;
  double lambda = 1.0;
  double gamma = 0.0;
  double min_child_weight = 1.0;
  double subsample = 1.0;  ///< row subsampling per round, (0, 1]
  std::uint64_t seed = 42;
};

class GbtClassifier {
 public:
  explicit GbtClassifier(GbtConfig config = {});

  const GbtConfig& config() const { return config_; }

  /// Fit on rows of X with labels y (1 = real, 0 = fake).
  /// `progress` (optional) receives (round, train_logloss).  Throws
  /// std::length_error when X is wider than the fused scorer encodes
  /// (feature index beyond uint16, see gbt/fused.hpp).
  void train(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
             const std::function<void(std::size_t, double)>& progress = {});

  /// P(label == 1) for one raw feature row, scored by the fused flat-array
  /// forest (gbt/fused.hpp).  `row` must have at least num_features()
  /// entries.
  double predict_proba(const std::vector<double>& row) const;
  int predict(const std::vector<double>& row, double threshold = 0.5) const;

  /// One past the highest feature index the ensemble splits on: the minimum
  /// row width predict_proba may be given.
  std::size_t num_features() const { return fused_->num_features(); }

  /// Total split gain per feature, normalised to sum to 1.
  std::vector<double> feature_importance(std::size_t num_features) const;

  std::size_t tree_count() const { return trees_.size(); }

  /// Text persistence.  The classifier is stored only as the length-prefixed
  /// text tail of the detector's model image (wifi/detector_io.cpp), so these
  /// two are its whole codec.  Malformed input (bad magic, truncation,
  /// implausible config, invalid tree topology, a feature index beyond
  /// uint16) comes back as a diagnostic string instead of an exception.
  /// try_load reads the stream to its end, which must be where save() ends
  /// the text: the newline after the last tree.
  void save(std::ostream& os) const;
  static Expected<GbtClassifier, std::string> try_load(std::istream& is);

 private:
  // The scalar-walk oracle (tests/reference) reads the trees and base score.
  friend struct reference::BoosterAccess;

  /// Rebuild fused_ from trees_; called wherever the ensemble changes
  /// (construction, train, load) so the serving path can rely on it without
  /// checks.
  void rebuild_fused();

  GbtConfig config_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;  ///< initial margin (log-odds of the label prior)
  // Shared, immutable: copies of a trained model share one fused image.
  std::shared_ptr<const FusedForest> fused_;
};

}  // namespace trajkit::gbt
