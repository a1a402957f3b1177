#include "reference/gbt_reference.hpp"

#include <cmath>

namespace trajkit::gbt::reference {

/// The booster's private trees, base score and config.
struct BoosterAccess {
  static const std::vector<Tree>& trees(const GbtClassifier& m) { return m.trees_; }
  static double base_score(const GbtClassifier& m) { return m.base_score_; }
};

double predict_proba(const GbtClassifier& model, const std::vector<double>& row) {
  double margin = BoosterAccess::base_score(model);
  for (const auto& tree : BoosterAccess::trees(model)) {
    margin += model.config().learning_rate * tree.predict(row);
  }
  // The library's overflow-safe logistic, expression for expression.
  if (margin >= 0.0) return 1.0 / (1.0 + std::exp(-margin));
  const double e = std::exp(margin);
  return e / (1.0 + e);
}

}  // namespace trajkit::gbt::reference
