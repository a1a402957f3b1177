// Dense row-major matrix for the from-scratch neural-network library.
//
// Deliberately minimal: the layers only need a matrix-vector product and
// elementwise ops, all of which the compiler vectorizes well at -O3 (the
// packed GEMMs of nn/kernels carry the hot paths).  No expression templates, no views — the
// shapes in this project are small (hidden sizes <= a few hundred).
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels/align.hpp"

namespace trajkit::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }

  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  void fill(double v);
  void zero() { fill(0.0); }

  /// Glorot-uniform initialisation, the default for gates and dense layers.
  void init_glorot(Rng& rng);

  /// In-place scaled accumulate: *this += alpha * other (same shape).
  void axpy(double alpha, const Matrix& other);

  /// Frobenius norm squared.
  double norm_sq() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // 64-byte-aligned so every row of the packed kernels' operands starts on a
  // cache-line boundary; the serialized format (plain doubles) is unchanged.
  kernels::AlignedVector data_;
};

/// Numerically safe sigmoid.  Inline so the RNN elementwise loops (thousands
/// of calls per forward pass) do not pay a cross-TU call per element; the
/// expression is exactly the old out-of-line body, so results are
/// bit-identical.
inline double sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace trajkit::nn
