// Fully-connected layer used as the classification head on top of the final
// LSTM hidden state: parameters only.  The classifier runs the head inside
// its batched passes (nn/classifier.cpp); the per-sample forward/backward it
// reproduces lives beside the tests (tests/reference).
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace trajkit::nn {

class DenseLayer {
 public:
  /// Glorot weights drawn from `rng`, zero bias.
  DenseLayer(std::size_t input_dim, std::size_t output_dim, Rng& rng);
  /// All-zero parameters, for a loader that overwrites every one of them.
  DenseLayer(std::size_t input_dim, std::size_t output_dim);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return output_dim_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }

 private:
  std::size_t input_dim_;
  std::size_t output_dim_;
  Matrix w_;
  Matrix b_;
};

/// Fused sigmoid + binary cross-entropy on a single logit.
/// Returns the loss; sets d(loss)/d(logit).  `label` is 1 for "real".
double sigmoid_bce_loss(double logit, int label, double* dlogit);

}  // namespace trajkit::nn
