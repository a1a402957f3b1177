#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trajkit::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::init_glorot(Rng& rng) {
  const double limit = std::sqrt(6.0 / static_cast<double>(rows_ + cols_));
  for (auto& v : data_) v = rng.uniform(-limit, limit);
}

void Matrix::axpy(double alpha, const Matrix& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("Matrix::axpy: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

double Matrix::norm_sq() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

}  // namespace trajkit::nn
