#include "nn/lstm.hpp"

#include <stdexcept>

namespace trajkit::nn {

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim, Rng& rng)
    : LstmLayer(input_dim, hidden_dim) {
  w_.init_glorot(rng);
  // Forget-gate bias of 1: standard trick, keeps early-training memory open.
  for (std::size_t h = 0; h < hidden_dim_; ++h) b_(hidden_dim_ + h, 0) = 1.0;
}

LstmLayer::LstmLayer(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(4 * hidden_dim, input_dim + hidden_dim),
      b_(4 * hidden_dim, 1) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmLayer: dims must be positive");
  }
}

}  // namespace trajkit::nn
