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

#include "common/durable/artifact_store.hpp"
#include "common/expected.hpp"
#include "gbt/fused.hpp"
#include "gbt/tree.hpp"

namespace trajkit::gbt {

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
  /// `progress` (optional) receives (round, train_logloss).
  void train(const std::vector<std::vector<double>>& x, const std::vector<int>& y,
             const std::function<void(std::size_t, double)>& progress = {});

  /// P(label == 1) for one raw feature row.  Served by the fused flat-array
  /// scorer (gbt/fused.hpp) whenever the ensemble fits its encoding —
  /// bit-identical to the scalar tree walk, so callers never see the switch.
  double predict_proba(const std::vector<double>& row) const;
  int predict(const std::vector<double>& row, double threshold = 0.5) const;

  /// Scalar pointer-chasing walk — the oracle the fused scorer is asserted
  /// against (tests/benches); always available.
  double predict_proba_reference(const std::vector<double>& row) const;

  /// The fused scorer, if the ensemble encoded (null/invalid otherwise).
  const FusedForest* fused() const { return fused_.get(); }

  /// Total split gain per feature, normalised to sum to 1.
  std::vector<double> feature_importance(std::size_t num_features) const;

  std::size_t tree_count() const { return trees_.size(); }

  /// Text stream and durable-file persistence.  save_file commits a
  /// CRC-framed durable container atomically (common/durable), the only file
  /// format try_load_file reads.  Malformed input (bad magic, truncation, CRC
  /// mismatch, version skew, implausible config, invalid tree topology) comes
  /// back as a diagnostic string instead of an exception.
  void save(std::ostream& os) const;
  static Expected<GbtClassifier, std::string> try_load(std::istream& is);
  void save_file(const std::string& path) const;
  static Expected<GbtClassifier, std::string> try_load_file(const std::string& path);

 private:
  /// Rebuild fused_ from trees_; called wherever the ensemble changes
  /// (train, load) so the serving path can rely on it without checks.
  void rebuild_fused();

  GbtConfig config_;
  std::vector<Tree> trees_;
  double base_score_ = 0.0;  ///< initial margin (log-odds of the label prior)
  // Shared, immutable: copies of a trained model share one fused image.
  std::shared_ptr<const FusedForest> fused_;
};

}  // namespace trajkit::gbt

namespace trajkit::durable {

/// Booster artifacts for ArtifactStore::open<GbtClassifier>/publish: the
/// payload is the classifier's own stream format (save/try_load).
template <>
struct ArtifactCodec<gbt::GbtClassifier> {
  using Value = gbt::GbtClassifier;
  static void encode(const gbt::GbtClassifier& value, std::ostream& os) {
    value.save(os);
  }
  static Expected<Value, std::string> decode(std::istream& is) {
    return gbt::GbtClassifier::try_load(is);
  }
};

}  // namespace trajkit::durable
