// Unpruned DTW oracle, kept beside the tests.
//
// The full O(n*m) dynamic programme with path recovery is the shipping
// dtw_banded with the band disabled: every cell is evaluated, nothing is
// pruned.  dtw_pruned (and everything built on it: dtw_normalized,
// dtw_normalized_gradient, the C&W attack) promises this distance and path
// bit for bit, so dtw_test and bench_nn compare against it.
#pragma once

#include <cstdint>
#include <vector>

#include "dtw/dtw.hpp"

namespace trajkit::reference {

/// Full DTW value and optimal alignment path, no band, no pruning.
inline DtwResult dtw(const std::vector<Enu>& a, const std::vector<Enu>& b) {
  return dtw_banded(a, b, SIZE_MAX);
}

}  // namespace trajkit::reference
