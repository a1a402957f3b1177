// Per-sample oracle of the nn stack, kept beside the tests.
//
// These are the naive matvec kernels, the per-sequence LSTM forward and
// BPTT and the dense head exactly as the library ran them before the
// packed-GEMM batched kernels (src/nn/kernels) replaced them.  The kernels promise to reproduce
// them bit for bit, so kernels_test, golden_test, nn_test and bench_nn
// compare against this code.  It is not part of traj_core: no serving,
// training or attack path can reach it.
//
// Reduction orders are the contract (see src/nn/kernels/gemm.hpp): every
// output element of gemv_t_acc and rank1_acc is one sequential sum in
// ascending row order, and the BPTT walks t descending.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/classifier.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "nn/quant_classifier.hpp"
#include "traj/features.hpp"

namespace trajkit::nn::reference {

/// The classifier's private parameters and pack cache, which train() drives
/// exactly as LstmClassifier::train does and tests may set by hand.
struct ClassifierAccess {
  static std::vector<LstmLayer>& layers(LstmClassifier& m) { return m.layers_; }
  static DenseLayer& head(LstmClassifier& m) { return m.head_; }
  static void rebuild_packs(LstmClassifier& m) { m.rebuild_packs(); }
};

/// Raw dump of a quantized model's serving image — dimensions, each layer's
/// scales, bias, packed int8 weights and derived row sums, the fp64 head —
/// so tests can compare two models byte for byte.  Not a file format:
/// nothing loads it.
struct QuantAccess {
  static std::string image(const QuantizedLstm& q);
};

/// Gradient buffers shaped like one layer's parameters.  The layers hold
/// parameters only, so the per-sample backward passes accumulate here.
struct Grads {
  /// Zeroed, for an LstmLayer or a DenseLayer.
  template <typename Layer>
  explicit Grads(const Layer& layer)
      : dw(layer.weights().rows(), layer.weights().cols()), db(layer.bias().rows(), 1) {}
  void zero();

  Matrix dw;
  Matrix db;
};

/// Cached activations of one LSTM forward pass (one sequence).
struct LstmTrace {
  std::size_t steps = 0;
  std::vector<double> inputs;   ///< steps x input_dim
  std::vector<double> gates;    ///< steps x 4*hidden, post-activation [i,f,g,o]
  std::vector<double> cells;    ///< steps x hidden (c_t)
  std::vector<double> hiddens;  ///< steps x hidden (h_t)
};

/// Run one layer over a sequence (row-major steps x input_dim) with zero
/// initial h and c, caching every activation.  One GEMV per step: the
/// per-sample forward the batched kernels reproduce bit for bit.
LstmTrace lstm_forward(const LstmLayer& layer, const std::vector<double>& xs,
                       std::size_t steps);

/// y += M * x (y has M.rows() entries, x has M.cols()): one accumulator per
/// row, added to y once.
void gemv_acc(const Matrix& m, const double* x, double* y);

/// y += M^T * x (y has M.cols() entries, x has M.rows()).
void gemv_t_acc(const Matrix& m, const double* x, double* y);

/// M += alpha * x * y^T (rank-1 update; x has M.rows(), y has M.cols()).
void rank1_acc(Matrix& m, double alpha, const double* x, const double* y);

/// Dense head forward: y = W x + b.
std::vector<double> dense_forward(const DenseLayer& layer,
                                  const std::vector<double>& x);

/// Dense head backward for the pair (x, dy): accumulates into `grads` and
/// returns dx.
std::vector<double> dense_backward(const DenseLayer& layer, Grads& grads,
                                   const std::vector<double>& x,
                                   const std::vector<double>& dy);

/// BPTT with the loss gradient injected only at the final hidden state.
/// `dh_last` is d(loss)/d(h_T) (hidden_dim entries); parameter gradients
/// accumulate into `grads` (zero them between batches).  If `dx` is non-null
/// it receives d(loss)/d(inputs) (steps x input_dim, overwritten).
void lstm_backward(const LstmLayer& layer, Grads& grads, const LstmTrace& trace,
                   const std::vector<double>& dh_last, std::vector<double>* dx);

/// BPTT with the loss gradient injected at every step's hidden output — the
/// stacked-layer path.  `dh_seq` has steps x hidden_dim entries.
void lstm_backward_seq(const LstmLayer& layer, Grads& grads, const LstmTrace& trace,
                       const std::vector<double>& dh_seq, std::vector<double>* dx);

/// Pre-sigmoid classifier output, one sequence through the per-sample
/// layers (LstmClassifier::predict_logit must match it bitwise).
double logit(const LstmClassifier& model, const FeatureSequence& x);

/// LstmClassifier::calibration_pass one sequence at a time through
/// lstm_forward: logits, and per-layer max |input| and max |h_t| over each
/// sequence's own steps.
CalibrationPass calibration_pass(const LstmClassifier& model,
                                 const std::vector<FeatureSequence>& xs);

/// Cross-entropy toward `target_label` and its input gradient (overwritten
/// into `dx` if non-null), per-sample.  `model` is not modified: the
/// backward pass scratches its parameter gradients into local buffers.
double loss_and_input_gradient(const LstmClassifier& model, const FeatureSequence& x,
                               int target_label, FeatureSequence* dx);

/// Mini-batch Adam training through the per-sample layers, in the exact
/// order LstmClassifier::train uses: same shuffle seed, minibatches split
/// into kernels::kLanes-sample chunks whose gradients fold in chunk order,
/// global-norm clip (head dw + db first, then each layer's dw + db), Adam
/// step.  Leaves `model` trained (pack cache rebuilt) and returns the same
/// per-epoch telemetry.
TrainReport train(LstmClassifier& model, const std::vector<FeatureSequence>& xs,
                  const std::vector<int>& ys, std::size_t epochs);

}  // namespace trajkit::nn::reference
