// Quantized serving image of an LstmClassifier, plus the QuantGate check
// that decides whether it may serve at all.
//
// QuantizedLstm is inference-only: it is built *from* a trained fp64
// classifier (never trained itself) by `quantize()`, which
//
//  1. quantizes each layer's weight matrix per gate, symmetric, int8, with
//     the input and recurrent column halves scaled separately
//     (kernels/rnn_quant.hpp explains why), and
//  2. fixes the static int8 activation scales — sx for each layer's input
//     stream, sh for its recurrent state — from the max-abs activations of
//     one fp64 pass over held-out trajectories
//     (LstmClassifier::calibration_pass: the batched kernels, spread over
//     the pool, live lanes and steps only).  The batched forward is
//     bit-identical to the per-sample one and max-abs is order-free, so the
//     image is byte-identical for any thread count.
//
// The dense head stays in fp64 (one dot product per sequence — nothing to
// win) and runs over the quant lane's final hidden state.
//
// The quant lane is NOT bit-identical to the fp64 oracle — int8 rounding and
// the polynomial activations both perturb the logit.  quant_gate_check()
// therefore asserts the *decision contract* on a calibration set: thresholded
// verdicts must agree exactly and the worst logit delta must stay under a
// bound.  The same calibration pass yields the fp64 logits the gate compares
// against, so arming (serve/service.hpp MotionPolicy) costs one fp64 pass;
// it installs the quantized model only when the gate passes and falls back
// to fp64 per model otherwise.
//
// The int8 image is never persisted: every process rebuilds it from the fp64
// model it loaded and gates it before serving, so no quantized lane serves
// without a gate report behind it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/classifier.hpp"
#include "nn/kernels/quant.hpp"
#include "nn/kernels/rnn_quant.hpp"

namespace trajkit::nn {

namespace reference {
struct QuantAccess;
}  // namespace reference

using QuantMode = kernels::QuantMode;

class QuantizedLstm {
 public:
  QuantizedLstm() = default;

  /// Quantize `model` with a calibration pass over `calibration` (held-out
  /// feature sequences; must be non-empty so the activation scales are
  /// data-backed, else std::invalid_argument).  Deterministic: same model +
  /// same calibration set give a byte-identical artifact on any thread count.
  static QuantizedLstm quantize(const LstmClassifier& model,
                                const std::vector<FeatureSequence>& calibration);
  /// The same from an already-run calibration pass of `model`: the image
  /// depends on the weights and the pass's per-layer maxima alone.
  static QuantizedLstm quantize(const LstmClassifier& model, const CalibrationPass& pass);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }
  std::size_t num_layers() const { return layers_.size(); }

  double predict_logit(const FeatureSequence& x) const;
  double predict_proba(const FeatureSequence& x) const;
  int predict(const FeatureSequence& x, double threshold = 0.5) const;

  /// Batch predictions in groups of up to kernels::kLanes sequences; a
  /// group costs in proportion to its live width, and each sequence's logit
  /// is bit-identical at every width (predict_logit is a group of one).  The
  /// serving dispatcher feeds one micro-batch (trajectories from *different*
  /// requests) straight through here.
  std::vector<double> predict_logit_batch(const std::vector<FeatureSequence>& xs) const;
  std::vector<double> predict_proba_batch(const std::vector<FeatureSequence>& xs) const;

 private:
  // Tests compare two images byte for byte through a raw dump
  // (tests/reference).
  friend struct reference::QuantAccess;

  using AlignedBytes =
      std::vector<std::int8_t, kernels::AlignedAllocator<std::int8_t>>;

  struct Layer {
    std::size_t input = 0;
    std::size_t hidden = 0;
    AlignedBytes wx;  ///< packed quant image of W[:, :input]
    AlignedBytes wh;  ///< packed quant image of W[:, input:]
    /// Per-row coefficient sums of each pack, derived from the packed image
    /// by quantize, for the GEMM's offset-binary activation correction.
    std::vector<std::int64_t> wx_row_sums;
    std::vector<std::int64_t> wh_row_sums;
    std::vector<double> bias;
    double sw_x[4] = {1, 1, 1, 1};
    double sw_h[4] = {1, 1, 1, 1};
    double sx = 1.0;
    double sh = 1.0;
  };

  kernels::QuantLstmLayerView view_of(const Layer& l) const;
  static void derive_row_sums(Layer& l);
  void predict_logit_group(const FeatureSequence* const* xs, std::size_t batch,
                           double* logits) const;

  std::size_t input_dim_ = 0;
  std::size_t hidden_dim_ = 0;
  std::vector<Layer> layers_;
  std::vector<double> head_w_;
  double head_b_ = 0.0;
};

/// Outcome of the fp64-vs-quant decision-contract check.
struct QuantGateReport {
  bool pass = false;
  std::size_t checked = 0;
  std::size_t disagreements = 0;        ///< thresholded verdict mismatches
  double max_abs_logit_delta = 0.0;     ///< worst |logit_fp64 - logit_quant|
  double logit_delta_bound = 0.0;
  double threshold = 0.5;
  /// FNV-1a over the paired (fp64, quant) verdict bits — equal-verdict
  /// streams from independent runs digest identically, so benches can gate
  /// on one number.
  std::uint64_t verdict_checksum = 0;
};

/// Run the gate on a calibration set.  Pass requires zero verdict
/// disagreements at `threshold` AND max logit delta <= `logit_delta_bound`
/// over a non-empty set.
QuantGateReport quant_gate_check(const LstmClassifier& ref,
                                 const QuantizedLstm& quant,
                                 const std::vector<FeatureSequence>& calibration,
                                 double logit_delta_bound,
                                 double threshold = 0.5);
/// The same against fp64 logits already computed for `calibration` (one per
/// sequence, e.g. CalibrationPass::logits); the form above computes them and
/// calls this one.
QuantGateReport quant_gate_check(const std::vector<double>& ref_logits,
                                 const QuantizedLstm& quant,
                                 const std::vector<FeatureSequence>& calibration,
                                 double logit_delta_bound,
                                 double threshold = 0.5);

}  // namespace trajkit::nn
