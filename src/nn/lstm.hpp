// LSTM layer with full backpropagation through time.
//
// Standard formulation (Hochreiter & Schmidhuber, the paper's reference
// [23]); gate order in the stacked weight matrix is [i, f, g, o]:
//   z_t = W [x_t ; h_{t-1}] + b
//   i = sigmoid(z_i), f = sigmoid(z_f), g = tanh(z_g), o = sigmoid(z_o)
//   c_t = f * c_{t-1} + i * g
//   h_t = o * tanh(c_t)
//
// The layer holds parameters only: every pass — training, inference, the
// C&W input gradient and the quantizer's calibration — runs through the
// batched kernels (nn/kernels/rnn_batched.hpp), and the per-sample forward
// and BPTT they reproduce live beside the tests (tests/reference).  Gradients
// live with whoever accumulates them (LstmClassifier::train), so a loaded or
// served model allocates none.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace trajkit::nn {

class LstmLayer {
 public:
  /// Glorot weights and a forget-gate bias of 1, drawn from `rng`.
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);
  /// All-zero parameters, for a loader that overwrites every one of them.
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Matrix w_;   ///< (4*hidden) x (input + hidden)
  Matrix b_;   ///< (4*hidden) x 1
};

}  // namespace trajkit::nn
