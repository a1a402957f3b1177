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
      b_(output_dim, 1) {
  if (input_dim == 0 || output_dim == 0) {
    throw std::invalid_argument("DenseLayer: dims must be positive");
  }
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
