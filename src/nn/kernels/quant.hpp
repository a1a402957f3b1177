// Quantized inference primitives for the verification hot path.
//
// The fp64 kernels (gemm.hpp) are the bit-exact oracle; everything here is
// the reduced-precision serving lane behind the QuantGate accuracy check
// (nn/quant_classifier.hpp).  Three pieces:
//
//  - Symmetric weight quantization + dot-product packing.  Weights quantize
//    to int8 with one scale per row (callers pass per-gate scales broadcast
//    over each gate's row range): q = clamp(round(w / s)).  The packed
//    layout is NOT the fp64 panel scheme: rows group in blocks of
//    kQuantGroup = 16 and the depth axis interleaves in dword-sized runs
//    (4 int8 coefficients), so each 64-byte slice of the pack holds one
//    dword of 16 consecutive rows.  That is exactly the operand shape of the
//    AVX512-VNNI dot-product instruction vpdpbusd: one weight load + one
//    activation broadcast per 64 MACs, versus one broadcast per 8 MACs in
//    the fp64 panel loop.  On VNNI hardware the int8 GEMM runs several times
//    *faster* than the fp64 GEMM while touching 8x less weight memory; a
//    portable scalar walk of the same layout (bit-identical results —
//    integer sums are exact in any order) serves as the fallback elsewhere.
//
//  - Int GEMM over 1..kLanes live batch columns, int8 activations.  Its
//    cost follows the live width: one weight load feeds one broadcast +
//    vpdpbusd per live lane, so a lone sequence pays for one lane, not
//    eight.  vpdpbusd is unsigned x signed, so activations carry a +128
//    offset (offset-binary uint8) and the kernel subtracts
//    128 * rowsum(weights) from each accumulator — the row sums are derived
//    from the pack when it is built.  Accumulation
//    overflow is impossible by construction: partials are bounded by
//    255 * 127 * depth (depth <= 65536 fits int32).
//
//  - Fast vectorized activations.  The quant forward dequantizes gate
//    pre-activations into doubles and applies polynomial exp-based
//    sigmoid/tanh (~5e-9 relative error) to 8 doubles at once, elementwise,
//    so a value's result does not depend on its neighbours.  At small
//    hidden sizes the scalar libm calls dominate the fp64 forward and this
//    fusion carries the speedup; at large hidden sizes the VNNI GEMM does.
//    The approximation error is orders of magnitude below the int8 weight
//    rounding error the gate already budgets for.
//
// Rounding contract: quantization rounds half away from zero
// (q = trunc(x/s ± 0.5)), implemented identically in the scalar and vector
// paths, so calibration and serving produce the same integers on every
// thread count.
#pragma once

#include <cstddef>
#include <cstdint>

#include "nn/kernels/align.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/matrix.hpp"

namespace trajkit::nn::kernels {

/// Inert seam kept for servebench, which spells the mode when it arms the
/// quant lane: weights and activations are always int8 (|q| <= 127).
enum class QuantMode : std::uint8_t {
  kInt8 = 0,
};

/// May-alias scalar views: quantized scratch lives in the double Workspace
/// arena and packed weights in byte buffers, so every access goes through
/// these typedefs.  qu8 is the offset-binary activation view (int8 q + 128)
/// the unsigned-by-signed VNNI dot product consumes.
typedef std::int8_t qi8 __attribute__((may_alias));
typedef std::uint8_t qu8 __attribute__((may_alias));
typedef std::int64_t qi64 __attribute__((may_alias));

/// Quantization maximum of weights and activations (the int8 grid).
inline constexpr std::int32_t kQmax = 127;

/// Rows per weight group in the quant pack: one zmm of int32 accumulators.
inline constexpr std::size_t kQuantGroup = 16;

/// The depth axis pads to a whole number of int8 dwords.
inline std::size_t quant_depth_pad(std::size_t depth) {
  return (depth + 3) & ~std::size_t(3);
}

/// Bytes (one int8 each) needed to pack a rows x depth quant operand: rows
/// pad to kQuantGroup, depth to the dword quantum.
inline std::size_t quant_packed_elems(std::size_t rows, std::size_t depth) {
  return ((rows + kQuantGroup - 1) / kQuantGroup) * kQuantGroup *
         quant_depth_pad(depth);
}

/// Scalar reference for the quantization rounding contract: round half away
/// from zero after clamping to ±qmax.  The vector paths below compute the
/// exact same operation lane-wise.
inline std::int32_t quantize_value(double x, double inv_scale,
                                   std::int32_t qmax) {
  double t = x * inv_scale;
  const double q = static_cast<double>(qmax);
  t = t > q ? q : (t < -q ? -q : t);
  t += t >= 0.0 ? 0.5 : -0.5;
  return static_cast<std::int32_t>(t);  // truncation completes half-away
}

/// Largest |m(r, c)| over rows [r0, r1) x cols [c0, c1); 0 for empty ranges.
double max_abs_block(const Matrix& m, std::size_t r0, std::size_t r1,
                     std::size_t c0, std::size_t c1);

/// Quantize + VNNI-pack the column slice [c0, c1) of `m` (all rows) with a
/// per-row scale: pack element (r, k) = quantize(m(r, c0 + k) / row_scale[r]).
/// Layout: row group g, dword run d, row-in-group j, coefficient-in-dword c
/// at offset ((g * runs + d) * kQuantGroup + j) * 4 + c.  Tail rows and
/// padded depth are zero.  `out` must hold quant_packed_elems(m.rows(),
/// c1 - c0) elements and both m's storage and `out` must be 64-byte aligned
/// — misalignment throws (require_aligned64) instead of silently degrading.
void pack_quant_rows_i8(const Matrix& m, std::size_t c0, std::size_t c1,
                        const double* row_inv_scale, qi8* out);

/// Per-row coefficient sums of an int8 pack (rows int64s, tail rows of the
/// last group excluded).  Derived data for the offset-binary activation
/// correction, computed after packing.
void quant_row_sums_i8(const qi8* pack, std::size_t rows, std::size_t depth,
                       qi64* out);

/// Quantize n doubles to int8 with one scale (vectorized, any n; scalar tail
/// matches the vector lanes bit for bit per the rounding contract).
void quantize_i8(const double* x, std::size_t n, double inv_scale, qi8* out);

/// Quantize `lanes` lane-major activation rows (row l is depth doubles at
/// x + l * depth) into the image the quant GEMM reads: out[l * depth_pad + k]
/// holds q + 128 (offset-binary, pad byte 128 == q 0).  Rounding matches
/// quantize_value per the contract.  Writes lanes * depth_pad bytes.
void quantize_act_u8(const double* x, std::size_t lanes, std::size_t depth,
                     std::size_t depth_pad, double inv_scale, qu8* out);

/// Int GEMM, convention "wx", over `lanes` live batch columns (1..kLanes):
///   acc[l * rows + r] = sum_k w[r, k] * x_q[l, k]   (int64, overwritten)
/// `w` is a quant pack (pack_quant_rows_i8), `depth_pad` its padded depth
/// (quant_depth_pad of the logical depth; the zero-padded tail contributes
/// nothing).  Activations arrive lane-major and offset-binary
/// (quantize_act_u8) with the pack's row sums for the -128 correction.
/// Only live lanes are touched: the kernel reads exactly lanes * depth_pad
/// bytes of `x` and writes exactly lanes * rows int64 of `acc`, so the
/// buffers may be sized for the live width and anything past them is left
/// as it was.  The work is proportional to `lanes`.  Bias and
/// dequantization are the caller's (fused into the gate loop in
/// rnn_quant.cpp).  Throws unless 1 <= lanes <= kLanes and depth_pad <=
/// 65536 (a whole row must fit one int32 accumulator).
void gemm_q8x8(const qi8* w, const qi64* row_sums, std::size_t rows,
               std::size_t depth_pad, const qu8* x, std::size_t lanes,
               qi64* acc);

/// Workspace carve-outs for quantized scratch: the arena hands out doubles,
/// these reinterpret whole 64-byte-aligned blocks.
inline qu8* take_u8(Workspace& ws, std::size_t n) {
  return reinterpret_cast<qu8*>(ws.take((n + 7) / 8));
}
inline qi64* take_i64(Workspace& ws, std::size_t n) {
  return reinterpret_cast<qi64*>(ws.take(n));
}

// ---------------------------------------------------------------------------
// Fast vectorized activations (inference lane only — never the fp64 oracle).
// The 8-lane versions (fast_exp8, fast_sigmoid8, fast_tanh8) live in
// kernels/lanes.hpp, which only the kernel sources include.
// ---------------------------------------------------------------------------

/// Scalar views of the fast activations (tests/benches): lane 0 of the
/// vector op, so scalar and vector answers are identical by construction.
double fast_sigmoid(double x);
double fast_tanh(double x);
double fast_exp(double x);

}  // namespace trajkit::nn::kernels
