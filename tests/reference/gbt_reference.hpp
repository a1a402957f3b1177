// Scalar-walk oracle of the GBT scorer, kept beside the tests.
//
// This is GbtClassifier's margin as the ensemble defines it: base_score plus
// learning_rate * Tree::predict(row) per tree, summed in tree order, through
// the same sigmoid.  The fused flat-array scorer (src/gbt/fused.hpp) must
// reproduce it bit for bit, so gbt_test and bench_nn compare against this
// code.  It is not part of traj_core: no serving or training path reaches it.
#pragma once

#include <vector>

#include "gbt/booster.hpp"

namespace trajkit::gbt::reference {

/// P(label == 1) by pointer-chasing every tree over the raw row.
double predict_proba(const GbtClassifier& model, const std::vector<double>& row);

}  // namespace trajkit::gbt::reference
