// Fused forest scorer: all trees walked over a pre-binned feature row.
//
// Tree::predict pointer-chases TreeNode structs and compares raw doubles at
// every node.  At serving rates that is one dependent cache-miss chain per
// tree plus a double compare per level.  The fused scorer does the float
// work once per *row* instead of once per *node*:
//
//  1. Build time: collect every distinct split threshold per feature across
//     the whole ensemble into one sorted array, and flatten all trees into a
//     single contiguous node array whose internal nodes hold the threshold's
//     *rank* (index in that feature's sorted list) instead of its value.
//     Leaves are folded into the child slots as negative indices into a
//     value array — traversal never branches on node kind.
//  2. Score time: bin the row once (one lower_bound per feature), then walk
//     every tree with pure integer compares over the flat array.
//
// Exactness: rank(v) is defined as the first index j with threshold[j] >= v,
// so  v <= t_j  <=>  rank(v) <= j  — an *exact* reformulation of the raw
// comparison, not an approximation.  Leaf values add in tree order starting
// from base_score, reproducing GbtClassifier::predict_proba's margin sum bit
// for bit.  The scalar walk is the oracle in tests/reference (gbt_reference),
// and gbt_test asserts the equivalence on random, on-threshold and NaN/inf
// rows.
//
// The encoding is total: build() throws std::length_error when a feature
// index or a per-feature threshold count does not fit uint16, so every
// GbtClassifier that exists is served by this scorer and no other.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trajkit::gbt {

class Tree;

class FusedForest {
 public:
  FusedForest() = default;

  /// Flatten `trees` (scored in order with `learning_rate`, seeded from
  /// `base_score`).  Throws std::length_error when a feature index or a
  /// feature's distinct threshold count exceeds uint16.
  static FusedForest build(const std::vector<Tree>& trees, double base_score,
                           double learning_rate);

  /// One past the highest feature index any split reads (0 for stumps).
  std::size_t num_features() const { return num_features_; }

  /// Pre-sigmoid ensemble margin for one raw feature row; bit-identical to
  /// base_score + sum_t lr * tree[t].predict(row).  `row` must cover every
  /// feature the ensemble splits on.
  double margin(const std::vector<double>& row) const;

 private:
  /// Internal node: go left iff bins[feature] <= rank.  A negative child is
  /// ~index into leaves_.
  struct Node {
    std::uint16_t feature = 0;
    std::uint16_t rank = 0;
    std::int32_t left = 0;
    std::int32_t right = 0;
  };

  double base_score_ = 0.0;
  double lr_ = 0.0;
  std::size_t num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> leaves_;
  std::vector<std::int32_t> roots_;        ///< per tree: node index or ~leaf
  std::vector<double> thresholds_;         ///< per-feature ascending, concatenated
  std::vector<std::uint32_t> thr_offset_;  ///< num_features_ + 1 entries
};

}  // namespace trajkit::gbt
