// Batched LSTM sequence runners over the packed GEMM kernels.
//
// The runners pack up to kLanes trajectories per timestep into one GEMM per
// gate matrix, with fused gate activations, and run the backward pass the
// same way.  Live lanes are **bit-identical** to the per-sample oracle
// (reference::lstm_forward and the BPTT in tests/reference): every output element
// keeps the reference's single-accumulator reduction order (see
// kernels/gemm.hpp), the elementwise gate math is the exact same scalar
// expression per lane, and parameter
// gradients are folded per sample in batch order with t descending — the same
// global per-element add order the reference produces when looping samples.
//
// Ragged batches: each sample has its own length steps[b] <= max_steps.
// Input blocks are zero-padded past a sample's length; lanes past the end
// compute bounded garbage that never reaches a live value (forward state is
// re-read only by later steps of the *same* lane; backward assigns dh and
// zeroes dc at each sample's own last step before any live math).
//
// All scratch (packed weights, activation blocks, gradient buffers) comes
// from a caller-provided Workspace: zero allocations per call once the arena
// has warmed up.
#pragma once

#include <cstddef>

#include "nn/kernels/align.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/lstm.hpp"

namespace trajkit::nn::kernels {

/// Shape of one ragged batch.  `lanes` is the block stride: 1 when batch == 1
/// (vector fast path), kLanes otherwise; batch <= lanes always.
struct BatchSpec {
  std::size_t batch = 1;
  std::size_t lanes = 1;
  std::size_t max_steps = 0;
  const std::size_t* steps = nullptr;  ///< batch entries, each in [1, max_steps]
};

/// Activation trace of one batched LSTM forward; all pointers live in the
/// Workspace passed to lstm_forward_batched.  A "block" at timestep t stores
/// rows x lanes doubles, lane-minor.
struct LstmBatchTrace {
  std::size_t input = 0;
  std::size_t hidden = 0;
  double* xin = nullptr;      ///< T blocks of (input+hidden) x lanes: [x_t ; h_{t-1}]
  double* gates = nullptr;    ///< T blocks of 4*hidden x lanes, post-activation [i,f,g,o]
  double* cells = nullptr;    ///< T blocks of hidden x lanes
  double* tanh_cells = nullptr;  ///< T blocks of hidden x lanes: tanh(c_t)
  double* hiddens = nullptr;  ///< T blocks of hidden x lanes
};

/// Both packings of one LSTM weight matrix, typically cached by the model so
/// repeated passes (the attack inner loop, serve-side predicts) skip the
/// per-call repack.  Build at a single-threaded point with pack_rows_at /
/// pack_transpose_at; the runners below fall back to packing into the
/// workspace when no cache is supplied.
struct LstmPacks {
  Packed rows;
  Packed transpose;
};

/// Forward over a ragged batch.  `xblocks` holds max_steps blocks of
/// input x lanes with dead lanes zero-padded (a stacked layer may feed the
/// lower trace's hiddens directly: its dead-lane values are bounded garbage
/// and stay confined to dead lanes).
LstmBatchTrace lstm_forward_batched(const LstmLayer& layer, const double* xblocks,
                                    const BatchSpec& spec, Workspace& ws,
                                    const LstmPacks* packs = nullptr);

/// Destination matrices for accumulated LSTM parameter gradients (both null
/// to skip parameter gradients entirely, e.g. on the attack's input-gradient
/// path).
struct LstmGrads {
  Matrix* dw = nullptr;
  Matrix* db = nullptr;
};

/// Batched BPTT.  Exactly one of dh_last / dh_blocks must be non-null:
///  - dh_last (batch x hidden, row-major): final-state objective, injected at
///    each sample's own last step — the oracle's lstm_backward.
///  - dh_blocks (max_steps blocks of hidden x lanes): per-step injection from
///    a stacked layer above — the oracle's lstm_backward_seq.
/// dx_blocks (optional out, max_steps blocks of input x lanes) receives the
/// input gradient.  grads (optional) accumulate like the reference called
/// per-sample in batch order.
void lstm_backward_batched(const LstmLayer& layer, const LstmBatchTrace& trace,
                           const BatchSpec& spec, const double* dh_last,
                           const double* dh_blocks, double* dx_blocks,
                           const LstmGrads& grads, Workspace& ws,
                           const LstmPacks* packs = nullptr);

}  // namespace trajkit::nn::kernels
