// Quantized batched LSTM forward — the inference-only serving lane.
//
// Mirrors lstm_forward_batched (rnn_batched.hpp) in its arithmetic: ragged
// lengths zero-padded, one GEMM per timestep per weight half.  The layout
// differs: a group holds 1..kLanes live trajectories, stored lane-major (each
// lane's rows contiguous), and every stage — input and recurrent
// quantization, both GEMMs, the gate loop, cell and hidden state — runs over
// the live lanes only, so a lone sequence costs one lane, not kLanes.  The
// gate loop vectorizes over 8 hidden rows of one lane; the polynomial
// activations are elementwise, so a sequence's bits do not depend on the
// group it rides in.  Differences from the fp64 lane, all covered by the
// QuantGate accuracy check at the model level (nn/quant_classifier.hpp):
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

/// Forward over a ragged group of spec.batch live lanes (1..kLanes; each
/// block is exactly that wide, so spec.lanes must equal spec.batch).
/// `xblocks` holds max_steps blocks of batch x input doubles, lane-major
/// (lane l's input at step t is input doubles at
/// xblocks + (t * batch + l) * input), steps past a lane's length
/// zero-padded.  Returns the workspace-owned hidden history in the same
/// layout with hidden in place of input: a stacked layer feeds it back in as
/// its xblocks, and the caller reads each sample's last-step row for the
/// head.
double* lstm_forward_quant(const QuantLstmLayerView& layer,
                           const double* xblocks, const BatchSpec& spec,
                           Workspace& ws);

}  // namespace trajkit::nn::kernels
