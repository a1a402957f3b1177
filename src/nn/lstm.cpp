#include "nn/lstm.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace trajkit::nn {

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(4 * hidden_dim, input_dim + hidden_dim),
      b_(4 * hidden_dim, 1),
      dw_(4 * hidden_dim, input_dim + hidden_dim),
      db_(4 * hidden_dim, 1) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmLayer: dims must be positive");
  }
  w_.init_glorot(rng);
  // Forget-gate bias of 1: standard trick, keeps early-training memory open.
  for (std::size_t h = 0; h < hidden_dim_; ++h) b_(hidden_dim_ + h, 0) = 1.0;
}

LstmTrace LstmLayer::forward(const std::vector<double>& xs, std::size_t steps) const {
  if (xs.size() != steps * input_dim_) {
    throw std::invalid_argument("LstmLayer::forward: input size mismatch");
  }
  if (steps == 0) throw std::invalid_argument("LstmLayer::forward: empty sequence");

  const std::size_t H = hidden_dim_;
  const std::size_t I = input_dim_;
  LstmTrace tr;
  tr.steps = steps;
  tr.inputs = xs;
  tr.gates.assign(steps * 4 * H, 0.0);
  tr.cells.assign(steps * H, 0.0);
  tr.hiddens.assign(steps * H, 0.0);

  std::vector<double> zin(I + H, 0.0);  // [x_t ; h_{t-1}]
  std::vector<double> z(4 * H, 0.0);

  for (std::size_t t = 0; t < steps; ++t) {
    std::memcpy(zin.data(), xs.data() + t * I, I * sizeof(double));
    if (t > 0) {
      std::memcpy(zin.data() + I, tr.hiddens.data() + (t - 1) * H, H * sizeof(double));
    } else {
      std::memset(zin.data() + I, 0, H * sizeof(double));
    }
    for (std::size_t k = 0; k < 4 * H; ++k) z[k] = b_(k, 0);
    gemv_acc(w_, zin.data(), z.data());

    double* gate = tr.gates.data() + t * 4 * H;
    double* c = tr.cells.data() + t * H;
    double* h = tr.hiddens.data() + t * H;
    const double* c_prev = t > 0 ? tr.cells.data() + (t - 1) * H : nullptr;
    for (std::size_t k = 0; k < H; ++k) {
      const double i_g = sigmoid(z[k]);
      const double f_g = sigmoid(z[H + k]);
      const double g_g = std::tanh(z[2 * H + k]);
      const double o_g = sigmoid(z[3 * H + k]);
      gate[k] = i_g;
      gate[H + k] = f_g;
      gate[2 * H + k] = g_g;
      gate[3 * H + k] = o_g;
      const double cp = c_prev ? c_prev[k] : 0.0;
      c[k] = f_g * cp + i_g * g_g;
      h[k] = o_g * std::tanh(c[k]);
    }
  }
  return tr;
}

void LstmLayer::zero_grad() {
  dw_.zero();
  db_.zero();
}

double LstmLayer::grad_norm_sq() const { return dw_.norm_sq() + db_.norm_sq(); }

void LstmLayer::scale_grad(double s) {
  for (std::size_t i = 0; i < dw_.size(); ++i) dw_.data()[i] *= s;
  for (std::size_t i = 0; i < db_.size(); ++i) db_.data()[i] *= s;
}

}  // namespace trajkit::nn
