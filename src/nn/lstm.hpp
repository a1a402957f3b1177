// LSTM layer with full backpropagation through time.
//
// Standard formulation (Hochreiter & Schmidhuber, the paper's reference
// [23]); gate order in the stacked weight matrix is [i, f, g, o]:
//   z_t = W [x_t ; h_{t-1}] + b
//   i = sigmoid(z_i), f = sigmoid(z_f), g = tanh(z_g), o = sigmoid(z_o)
//   c_t = f * c_{t-1} + i * g
//   h_t = o * tanh(c_t)
//
// forward() caches all activations in a trace.  The layer runs forward only
// on its own (the quantizer's calibration pass); training and the C&W input
// gradient run through the batched kernels (nn/kernels/rnn_batched.hpp), and
// the per-sample BPTT they reproduce lives beside the tests (tests/reference).
// The layer still owns its gradient buffers, which the optimizer reads.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace trajkit::nn {

/// Cached activations of one LSTM forward pass (one sequence).
struct LstmTrace {
  std::size_t steps = 0;
  std::vector<double> inputs;   ///< steps x input_dim
  std::vector<double> gates;    ///< steps x 4*hidden, post-activation [i,f,g,o]
  std::vector<double> cells;    ///< steps x hidden (c_t)
  std::vector<double> hiddens;  ///< steps x hidden (h_t)
};

class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Run the layer over a sequence (row-major steps x input_dim), producing
  /// its activation trace.  Initial h and c are zero.
  LstmTrace forward(const std::vector<double>& xs, std::size_t steps) const;

  void zero_grad();
  /// Squared L2 norm of all gradients (for global-norm clipping).
  double grad_norm_sq() const;
  /// Scale all gradients by `s`.
  void scale_grad(double s);

  Matrix& weights() { return w_; }
  const Matrix& weights() const { return w_; }
  Matrix& bias() { return b_; }
  const Matrix& bias() const { return b_; }
  Matrix& weight_grad() { return dw_; }
  Matrix& bias_grad() { return db_; }

 private:
  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Matrix w_;   ///< (4*hidden) x (input + hidden)
  Matrix b_;   ///< (4*hidden) x 1
  Matrix dw_;
  Matrix db_;
};

}  // namespace trajkit::nn
