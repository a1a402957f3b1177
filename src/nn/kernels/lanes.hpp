// 8-lane vector values for the nn kernel sources (gemm.cpp, quant.cpp,
// rnn_quant.cpp) and nothing else: no public header includes this one.
//
// Lane-wise SIMD spelled out with GCC vector extensions.  A v8df operation is
// eight independent scalar IEEE operations, one per lane, and a scalar
// operand of a vector operator is broadcast to every lane, so `w * x[k]`
// multiplies exactly as the scalar code does.
//
// No helper here takes or returns a 64-byte lane by value.  Where AVX-512F is
// off, such an argument or result travels differently than where it is on
// (GCC's -Wpsabi), so lanes are read and written in place: lanes_at() views
// memory as a lane, and the activations rewrite their argument.
#pragma once

#include <cstdint>
#include <cstring>

namespace trajkit::nn::kernels {

typedef double v8df __attribute__((vector_size(64), may_alias));
typedef std::int64_t v8di __attribute__((vector_size(64), may_alias));
typedef std::int32_t v8si __attribute__((vector_size(32), may_alias));
typedef std::int8_t v8qi __attribute__((vector_size(8), may_alias));

/// Unaligned may-alias views of 8 consecutive doubles / int64s.
typedef double v8df_u __attribute__((vector_size(64), may_alias, aligned(8)));
typedef std::int64_t v8di_u __attribute__((vector_size(64), may_alias, aligned(8)));

inline const v8df_u& lanes_at(const double* p) { return *reinterpret_cast<const v8df_u*>(p); }
inline v8df_u& lanes_at(double* p) { return *reinterpret_cast<v8df_u*>(p); }
inline const v8di_u& lanes_at(const std::int64_t* p) {
  return *reinterpret_cast<const v8di_u*>(p);
}

/// exp(x) on 8 lanes, in place: range-reduced 2^k * e^r with a degree-7
/// polynomial on r in [-ln2/2, ln2/2]; ~5e-9 relative error, monotone clamp
/// at ±708.
inline void fast_exp8(v8df& x) {
  x = x > 708.0 ? 708.0 : x;
  x = x < -708.0 ? -708.0 : x;
  const v8df t = x * 1.4426950408889634074;  // x * log2(e)
  // Round to nearest via the shift trick (|t| < 1022 so the low mantissa
  // bits of t + 1.5*2^52 hold the rounded integer exactly).
  const v8df kf = (t + 6755399441055744.0) - 6755399441055744.0;
  const v8di ki = __builtin_convertvector(kf, v8di);
  // r = x - k*ln2, split high/low to keep the reduction exact.
  const v8df r = (x - kf * 6.93147180369123816490e-01) - kf * 1.90821492927058770002e-10;
  // e^r, Horner degree 7 (Taylor; max rel err ~5e-9 on the reduced range).
  v8df p = r * (1.0 / 5040.0) + 1.0 / 720.0;
  p = p * r + 1.0 / 120.0;
  p = p * r + 1.0 / 24.0;
  p = p * r + 1.0 / 6.0;
  p = p * r + 0.5;
  p = p * r + 1.0;
  p = p * r + 1.0;
  // 2^k by exponent-field construction (k in [-1022, 1022] after the clamp).
  const v8di bits = (ki + 1023) << 52;
  v8df two_k;
  std::memcpy(&two_k, &bits, sizeof(two_k));
  x = p * two_k;
}

/// Numerically safe sigmoid on 8 lanes, in place (same structure as
/// nn::sigmoid: exp of a non-positive argument, then one division).
inline void fast_sigmoid8(v8df& x) {
  v8df e = x >= 0.0 ? -x : x;  // -|x|
  fast_exp8(e);
  const v8df num = x >= 0.0 ? 1.0 : e;
  x = num / (1.0 + e);
}

/// tanh on 8 lanes via e^{-2|x|}, in place.
inline void fast_tanh8(v8df& x) {
  const v8df ax = x >= 0.0 ? x : -x;
  v8df e2 = -2.0 * ax;
  fast_exp8(e2);
  const v8df t = (1.0 - e2) / (1.0 + e2);
  x = x >= 0.0 ? t : -t;
}

}  // namespace trajkit::nn::kernels
