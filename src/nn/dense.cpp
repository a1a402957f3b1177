#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

namespace trajkit::nn {

DenseLayer::DenseLayer(std::size_t input_dim, std::size_t output_dim, Rng& rng)
    : DenseLayer(input_dim, output_dim) {
  w_.init_glorot(rng);
}

DenseLayer::DenseLayer(std::size_t input_dim, std::size_t output_dim)
    : input_dim_(input_dim),
      output_dim_(output_dim),
      w_(output_dim, input_dim),
      b_(output_dim, 1),
      dw_(output_dim, input_dim),
      db_(output_dim, 1) {
  if (input_dim == 0 || output_dim == 0) {
    throw std::invalid_argument("DenseLayer: dims must be positive");
  }
}

void DenseLayer::zero_grad() {
  dw_.zero();
  db_.zero();
}

double DenseLayer::grad_norm_sq() const { return dw_.norm_sq() + db_.norm_sq(); }

void DenseLayer::scale_grad(double s) {
  for (std::size_t i = 0; i < dw_.size(); ++i) dw_.data()[i] *= s;
  for (std::size_t i = 0; i < db_.size(); ++i) db_.data()[i] *= s;
}

double sigmoid_bce_loss(double logit, int label, double* dlogit) {
  // loss = -[y log p + (1-y) log(1-p)], p = sigmoid(logit).
  // Numerically stable form: max(z,0) - z*y + log(1 + exp(-|z|)).
  const double y = label ? 1.0 : 0.0;
  const double z = logit;
  const double loss = std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
  if (dlogit) *dlogit = sigmoid(z) - y;
  return loss;
}

}  // namespace trajkit::nn
