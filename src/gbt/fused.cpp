#include "gbt/fused.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "gbt/tree.hpp"

namespace trajkit::gbt {

FusedForest FusedForest::build(const std::vector<Tree>& trees,
                               double base_score, double learning_rate) {
  FusedForest f;
  f.base_score_ = base_score;
  f.lr_ = learning_rate;

  // Pass 1: the distinct threshold set per feature, exact double dedup.
  std::size_t num_features = 0;
  for (const Tree& tree : trees) {
    for (const TreeNode& n : tree.nodes()) {
      if (n.feature >= 0) {
        num_features =
            std::max(num_features, static_cast<std::size_t>(n.feature) + 1);
      }
    }
  }
  // Feature indices and ranks are stored as uint16: index num_features - 1
  // and rank (threshold count - 1) must fit.
  constexpr std::size_t kU16Values = std::size_t{1} << 16;
  if (num_features > kU16Values) {
    throw std::length_error("FusedForest: feature index " +
                            std::to_string(num_features - 1) + " exceeds uint16");
  }
  f.num_features_ = num_features;
  std::vector<std::vector<double>> per_feature(num_features);
  for (const Tree& tree : trees) {
    for (const TreeNode& n : tree.nodes()) {
      if (n.feature >= 0) {
        per_feature[static_cast<std::size_t>(n.feature)].push_back(n.split_value);
      }
    }
  }
  f.thr_offset_.assign(num_features + 1, 0);
  for (std::size_t c = 0; c < num_features; ++c) {
    auto& t = per_feature[c];
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
    if (t.size() > kU16Values) {
      throw std::length_error("FusedForest: feature " + std::to_string(c) +
                              " has more distinct thresholds than uint16 ranks");
    }
    f.thr_offset_[c + 1] = f.thr_offset_[c] + static_cast<std::uint32_t>(t.size());
    f.thresholds_.insert(f.thresholds_.end(), t.begin(), t.end());
  }

  // Pass 2: flatten every tree, rewriting thresholds to ranks and folding
  // leaves into negative child slots.
  for (const Tree& tree : trees) {
    const auto& nodes = tree.nodes();
    if (nodes.empty()) throw std::invalid_argument("FusedForest: empty tree");
    // Map source node index -> fused slot (internal) or ~leaf slot.
    std::vector<std::int32_t> slot(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i].feature < 0) {
        slot[i] = ~static_cast<std::int32_t>(f.leaves_.size());
        f.leaves_.push_back(nodes[i].leaf_value);
      } else {
        slot[i] = static_cast<std::int32_t>(f.nodes_.size());
        f.nodes_.emplace_back();
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const TreeNode& n = nodes[i];
      if (n.feature < 0) continue;
      const std::size_t c = static_cast<std::size_t>(n.feature);
      const auto& t = per_feature[c];
      // Exact: split values were collected from these very nodes, so the
      // threshold is always present.
      const std::size_t rank =
          static_cast<std::size_t>(std::lower_bound(t.begin(), t.end(),
                                                    n.split_value) -
                                   t.begin());
      Node& out = f.nodes_[static_cast<std::size_t>(slot[i])];
      out.feature = static_cast<std::uint16_t>(c);
      out.rank = static_cast<std::uint16_t>(rank);
      // Tree::load enforces children-after-parent in range, so slot[] is
      // fully populated before any child reference is written.
      out.left = slot[static_cast<std::size_t>(n.left)];
      out.right = slot[static_cast<std::size_t>(n.right)];
    }
    f.roots_.push_back(slot[0]);
  }
  return f;
}

double FusedForest::margin(const std::vector<double>& row) const {
  // Bin once: rank(v) = first index with threshold >= v, per feature.
  // 64 features covers every encoder in the repo; larger rows spill to heap.
  std::uint32_t bins_stack[64];
  std::vector<std::uint32_t> bins_heap;
  std::uint32_t* bins = bins_stack;
  if (num_features_ > 64) {
    bins_heap.resize(num_features_);
    bins = bins_heap.data();
  }
  for (std::size_t c = 0; c < num_features_; ++c) {
    const double* lo = thresholds_.data() + thr_offset_[c];
    const double* hi = thresholds_.data() + thr_offset_[c + 1];
    const double v = row[c];
    // NaN compares false against any threshold, so the reference walk always
    // goes right; an oversaturated bin reproduces that exactly.
    bins[c] = v == v
                  ? static_cast<std::uint32_t>(std::lower_bound(lo, hi, v) - lo)
                  : std::numeric_limits<std::uint32_t>::max();
  }

  // All trees, integer compares only, leaf sum in tree order (the reference
  // accumulation order — bit-identical to the scalar walk).
  double m = base_score_;
  const Node* nodes = nodes_.data();
  for (const std::int32_t root : roots_) {
    std::int32_t idx = root;
    while (idx >= 0) {
      const Node& n = nodes[idx];
      idx = bins[n.feature] <= n.rank ? n.left : n.right;
    }
    m += lr_ * leaves_[static_cast<std::size_t>(~idx)];
  }
  return m;
}

}  // namespace trajkit::gbt
