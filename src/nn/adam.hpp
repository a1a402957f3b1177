// Adam optimizer over a set of (parameter, gradient) matrix pairs.
//
// The trainer registers each parameter tensor with its gradient tensor once;
// step() applies one Adam update using whatever the gradient tensors hold.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/matrix.hpp"

namespace trajkit::nn {

struct AdamConfig {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

class Adam {
 public:
  explicit Adam(AdamConfig config = {});

  /// Register a parameter tensor with its gradient tensor.  Both must outlive
  /// the optimizer; shapes must match.
  void attach(Matrix* param, Matrix* grad);

  /// One Adam update across all attached tensors.
  void step();

  /// Reset moments and the step counter (e.g. when re-using the optimizer for
  /// a fresh C&W run).
  void reset();

  const AdamConfig& config() const { return config_; }
  void set_learning_rate(double lr) { config_.learning_rate = lr; }

 private:
  struct Slot {
    Matrix* param;
    Matrix* grad;
    // Aligned like the parameters they shadow, so the step() sweep runs on
    // cache-line-aligned streams.
    kernels::AlignedVector m;
    kernels::AlignedVector v;
  };

  AdamConfig config_;
  std::vector<Slot> slots_;
  std::size_t t_ = 0;
};

}  // namespace trajkit::nn
