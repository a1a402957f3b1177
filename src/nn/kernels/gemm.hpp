// Packed, register-tiled GEMM kernels for the batched nn stack.
//
// Every kernel here reproduces one of the three accumulation conventions of
// the naive matvecs of the per-sample oracle (tests/reference) *bit for
// bit*: gemv_acc, gemv_t_acc and rank1_acc.  The repo
// builds without -ffast-math, so the compiler preserves floating-point
// association;
// as long as each output element is produced by a single accumulator walking
// the reduction dimension in the reference order, register tiling across
// *independent* output elements (rows x batch lanes) changes nothing.  The
// three conventions are:
//
//  1. "wx" (gemv_acc / W.[x;h]): per output element, one accumulator summed
//     from zero over k ascending, then ONE add onto the seed (bias).
//  2. "accseq" (gemv_t_acc / W^T.dz): the destination itself is the
//     accumulator; contributions are added in r (weight-row) ascending order.
//  3. "tdesc" (rank1_acc inside the t-descending BPTT loop): the destination
//     is the accumulator; per-timestep outer products fold in t DESCENDING
//     order, matching the reference backward walking t from T-1 to 0.
//
// Weight packing: rows are grouped into panels of kPanel = 8; within a panel
// the k-th slice holds the 8 rows' k-th coefficients contiguously
// (data[(panel*depth + k)*8 + lane]).  Tail rows are zero-padded — the padded
// lanes compute harmless garbage that is never written back.  The same layout
// serves the transposed operand (pack_transpose), so both W.x and W^T.x run
// the identical inner loop.  Batched activations use the matching layout: a
// "block" stores kLanes = 8 batch columns interleaved per row
// (block[r*lanes + lane]); with lanes == 1 the block is just a plain vector.
#pragma once

#include <cstddef>

#include "nn/kernels/align.hpp"
#include "nn/matrix.hpp"

namespace trajkit::nn::kernels {

/// Rows per packed weight panel (one cache line of doubles).
inline constexpr std::size_t kPanel = 8;
/// Batch columns per activation block in batched mode.
inline constexpr std::size_t kLanes = 8;

/// Panel-packed view of a weight matrix; data lives in a Workspace.
struct Packed {
  const double* data = nullptr;
  std::size_t rows = 0;   ///< logical rows of the packed operand
  std::size_t depth = 0;  ///< reduction length (logical cols)
  std::size_t panels() const { return (rows + kPanel - 1) / kPanel; }
};

/// Doubles needed to pack a rows x depth operand (whole panels).
std::size_t packed_doubles(std::size_t rows, std::size_t depth);

/// Pack m row-major into panels (operand for y = W x).
Packed pack_rows(const Matrix& m, Workspace& ws);
/// Pack m^T into panels (operand for y = W^T x): rows = m.cols(),
/// depth = m.rows().
Packed pack_transpose(const Matrix& m, Workspace& ws);

/// Caller-owned-storage variants: `out` must hold packed_doubles() entries
/// (64-byte aligned for best codegen).  Lets a model cache its packed weights
/// across calls instead of repacking into a workspace every pass.
Packed pack_rows_at(const Matrix& m, double* out);
Packed pack_transpose_at(const Matrix& m, double* out);

/// Convention 1, single lane: y[r] = (bias ? bias[r] : 0) + sum_k p[r,k] x[k].
/// Bit-identical to `y[r] = bias[r]; gemv_acc(m, x, y)`.
void gemv_wx(const Packed& p, const double* bias, const double* x, double* y);

/// Convention 1, kLanes batch columns: y[r*kLanes+l] = bias[r] + sum_k
/// p[r,k] x[k*kLanes+l].  One fused multiply chain per (r, l) element.
void gemm_wx8(const Packed& p, const double* bias, const double* x, double* y);

/// Convention 2, single lane: y[r] += p[r,k]*x[k], k ascending, accumulating
/// directly into y.  With p = pack_transpose(W) this is gemv_t_acc(W, x, y).
void gemv_accseq(const Packed& p, const double* x, double* y);

/// Convention 2, kLanes batch columns (destination-seeded).
void gemm_accseq8(const Packed& p, const double* x, double* y);

/// Convention 3: dw[r,c] += sum over t DESCENDING of a[r*tsteps+t] *
/// bm[t*cols+c], for t in [t_stop, tsteps).  `a` is (rows x tsteps) with t
/// minor; `bm` is (tsteps x cols).  Seeded from dw's current contents with
/// sequential adds — bit-identical to calling rank1_acc(dw, 1, a_t, bm_t) for
/// t = tsteps-1 ... t_stop.
void gemm_acc_tdesc(const double* a, std::size_t rows, std::size_t tsteps,
                    const double* bm, std::size_t cols, std::size_t t_stop,
                    Matrix& dw);

/// Convention 3 bias reduction: db[r,0] += sum over t DESCENDING of
/// a[r*tsteps+t].
void rowsum_acc_tdesc(const double* a, std::size_t rows, std::size_t tsteps,
                      Matrix& db);

/// Dispatch helper: lanes must be 1 or kLanes.
inline void gemm_wx_l(const Packed& p, const double* bias, const double* x,
                      double* y, std::size_t lanes) {
  if (lanes == 1) {
    gemv_wx(p, bias, x, y);
  } else {
    gemm_wx8(p, bias, x, y);
  }
}

inline void gemm_accseq_l(const Packed& p, const double* x, double* y,
                          std::size_t lanes) {
  if (lanes == 1) {
    gemv_accseq(p, x, y);
  } else {
    gemm_accseq8(p, x, y);
  }
}

}  // namespace trajkit::nn::kernels
