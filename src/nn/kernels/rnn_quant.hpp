// Quantized batched LSTM forward — the inference-only serving lane.
//
// Mirrors lstm_forward_batched (rnn_batched.hpp) structurally: lane-minor
// blocks of kLanes = 8 trajectories, ragged lengths zero-padded, one GEMM
// per timestep per weight half.  Differences, all covered by the QuantGate
// accuracy check at the model level (nn/quant_classifier.hpp):
//
//  - The weight matrix is split at the x/h column boundary and each half is
//    quantized with its own per-gate scales (input features and recurrent
//    state have very different ranges; a shared scale would waste most of
//    the int8 grid on whichever half is larger).  The two int64 accumulator
//    blocks dequantize separately and meet in the fused gate loop:
//      z = bias + acc_x * (sw_x[gate] * sx) + acc_h * (sw_h[gate] * sh)
//  - Activations quantize to int8 against *static* per-layer scales (sx for
//    the layer input, sh for its own recurrent state) measured by the
//    calibration pass; out-of-range values saturate.
//  - Gate activations are the fast polynomial sigmoid/tanh (quant.hpp), not
//    libm, and cell/hidden state stays in double.
//
// No trace, no backward: training stays on the bit-exact fp64 path.
#pragma once

#include <cstddef>

#include "nn/kernels/quant.hpp"
#include "nn/kernels/rnn_batched.hpp"

namespace trajkit::nn::kernels {

/// Non-owning view of one quantized LSTM layer (storage lives in the model,
/// see nn/quant_classifier.hpp).  wx packs the 4H x I input half, wh the
/// 4H x H recurrent half, both int8 in the VNNI dot-product layout.  Scales
/// are per gate in [i, f, g, o] order.  Each pack carries its per-row
/// coefficient sums (derived at build/load time) for the offset-binary
/// activation correction.
struct QuantLstmLayerView {
  const qi8* wx = nullptr;
  const qi8* wh = nullptr;
  const qi64* wx_row_sums = nullptr;  ///< 4*hidden entries
  const qi64* wh_row_sums = nullptr;  ///< 4*hidden entries
  const double* bias = nullptr;       ///< 4*hidden doubles
  double sw_x[4] = {1, 1, 1, 1};
  double sw_h[4] = {1, 1, 1, 1};
  double sx = 1.0;  ///< static input-activation scale
  double sh = 1.0;  ///< static recurrent-activation scale
  std::size_t input = 0;
  std::size_t hidden = 0;
};

/// Forward over a ragged batch.  `xblocks` holds max_steps blocks of
/// input x kLanes doubles, dead lanes zero-padded (same layout the fp64
/// runner takes).  Requires spec.lanes == kLanes — the quant lane exists to
/// batch, the single-lane fast path stays fp64.  Returns the workspace-owned
/// hidden history: max_steps blocks of hidden x kLanes doubles (a stacked
/// layer feeds it back in as its xblocks; the caller reads each sample's
/// last-step lane for the head).
double* lstm_forward_quant(const QuantLstmLayerView& layer,
                           const double* xblocks, const BatchSpec& spec,
                           Workspace& ws);

}  // namespace trajkit::nn::kernels
