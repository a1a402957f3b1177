#include "nn/kernels/quant.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/kernels/lanes.hpp"

// The hot GEMM is written twice: an AVX512-VNNI path (vpdpbusd — one weight
// load + one activation broadcast per 64 MACs, the reason the int8 lane beats
// the fp64 panels at every hidden size) and a portable scalar walk of the
// same pack.  Integer sums are exact in any order, so the two paths are
// bit-identical and the tests' scalar reference covers both.
#if defined(__AVX512VNNI__) && defined(__AVX512F__)
#include <immintrin.h>
#define TRAJKIT_QUANT_VNNI 1
#endif

namespace trajkit::nn::kernels {

namespace {

// Pack-layout index of coefficient (r, k): row group, dword run, row in
// group, coefficient in dword.
inline std::size_t pack_index(std::size_t r, std::size_t k,
                              std::size_t depth_pad) {
  const std::size_t g = r / kQuantGroup, j = r % kQuantGroup;
  const std::size_t d = k / 4, c = k % 4;
  const std::size_t runs = depth_pad / 4;
  return ((g * runs + d) * kQuantGroup + j) * 4 + c;
}

// One lane-row of the activation quantizer: 8 doubles -> 8 int8, the exact
// vector body the rounding-contract test pins against quantize_value.
inline v8qi quantize8(const double* src, double inv_scale) {
  v8df t = lanes_at(src) * inv_scale;
  t = t > 127.0 ? 127.0 : t;
  t = t < -127.0 ? -127.0 : t;
  t = t + (t >= 0.0 ? 0.5 : -0.5);
  const v8si qv = __builtin_convertvector(t, v8si);  // trunc -> half-away
  return __builtin_convertvector(qv, v8qi);
}

}  // namespace

double max_abs_block(const Matrix& m, std::size_t r0, std::size_t r1,
                     std::size_t c0, std::size_t c1) {
  double best = 0.0;
  for (std::size_t r = r0; r < r1; ++r) {
    for (std::size_t c = c0; c < c1; ++c) {
      const double a = m(r, c) < 0.0 ? -m(r, c) : m(r, c);
      if (a > best) best = a;
    }
  }
  return best;
}

void pack_quant_rows_i8(const Matrix& m, std::size_t c0, std::size_t c1,
                        const double* row_inv_scale, qi8* out) {
  require_aligned64(m.data(), "quant pack: Matrix storage");
  require_aligned64(out, "quant pack: output buffer");
  if (c1 > m.cols() || c0 > c1) {
    throw std::invalid_argument("quant pack: column slice out of range");
  }
  const std::size_t rows = m.rows();
  const std::size_t depth = c1 - c0;
  const std::size_t depth_pad = quant_depth_pad(depth);
  const std::size_t rows_pad =
      ((rows + kQuantGroup - 1) / kQuantGroup) * kQuantGroup;
  for (std::size_t r = 0; r < rows_pad; ++r) {
    for (std::size_t k = 0; k < depth_pad; ++k) {
      const bool live = r < rows && k < depth;
      out[pack_index(r, k, depth_pad)] =
          live ? static_cast<qi8>(
                     quantize_value(m(r, c0 + k), row_inv_scale[r], kQmax))
               : qi8{0};
    }
  }
}

void quant_row_sums_i8(const qi8* pack, std::size_t rows, std::size_t depth,
                       qi64* out) {
  const std::size_t depth_pad = quant_depth_pad(depth);
  for (std::size_t r = 0; r < rows; ++r) {
    std::int64_t s = 0;
    for (std::size_t k = 0; k < depth_pad; ++k) {
      s += pack[pack_index(r, k, depth_pad)];
    }
    out[r] = s;
  }
}

void quantize_i8(const double* x, std::size_t n, double inv_scale, qi8* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const v8qi b = quantize8(x + i, inv_scale);
    std::memcpy(out + i, &b, sizeof(b));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<qi8>(quantize_value(x[i], inv_scale, kQmax));
  }
}

double fast_sigmoid(double x) {
  v8df v = {x, x, x, x, x, x, x, x};
  fast_sigmoid8(v);
  return v[0];
}

double fast_tanh(double x) {
  v8df v = {x, x, x, x, x, x, x, x};
  fast_tanh8(v);
  return v[0];
}

double fast_exp(double x) {
  v8df v = {x, x, x, x, x, x, x, x};
  fast_exp8(v);
  return v[0];
}

// Each lane's row reuses the vector quantizer, then flips the sign bit:
// for |q| <= 127, (q ^ 0x80) read as uint8 is exactly q + 128.
void quantize_act_u8(const double* x, std::size_t lanes, std::size_t depth,
                     std::size_t depth_pad, double inv_scale, qu8* out) {
  for (std::size_t l = 0; l < lanes; ++l) {
    qu8* row = out + l * depth_pad;
    quantize_i8(x + l * depth, depth, inv_scale, reinterpret_cast<qi8*>(row));
    for (std::size_t k = 0; k < depth; ++k) {
      row[k] = static_cast<qu8>(row[k] ^ 0x80u);
    }
    for (std::size_t k = depth; k < depth_pad; ++k) {
      row[k] = 128;  // q == 0 in offset-binary
    }
  }
}

namespace {

#ifdef TRAJKIT_QUANT_VNNI
// N live lanes, C accumulator chains per lane, S = N * C named accumulators
// ("slots").  Slot k dots lane k % N against dword run d + k / N, so each
// pass over C runs issues one broadcast + vpdpbusd per live lane per run,
// and a narrow group still keeps S dot products in flight to cover the
// instruction's latency.  Named accumulators, not an array: GCC keeps an
// array of __m512i in registers only by copying it every iteration.  Chains
// fold by integer addition (exact; an int32 wrap in a partial sum cancels,
// because the final row sum fits, see gemm_q8x8).
template <std::size_t N, std::size_t C>
void gemm_vnni(const qi8* w, const qi64* row_sums, std::size_t rows,
               std::size_t depth_pad, const qu8* x, qi64* acc) {
  constexpr std::size_t S = N * C;
  static_assert(S >= 1 && S <= 8);
  const std::size_t ngroups = (rows + kQuantGroup - 1) / kQuantGroup;
  const std::size_t runs = depth_pad / 4;
  for (std::size_t g = 0; g < ngroups; ++g) {
    const qi8* wg = w + g * depth_pad * kQuantGroup;
    const auto dot = [&](__m512i& a, std::size_t k, std::size_t d) {
      const std::size_t run = d + k / N;
      std::int32_t xd;
      std::memcpy(&xd, x + (k % N) * depth_pad + 4 * run, 4);
      a = _mm512_dpbusd_epi32(a, _mm512_set1_epi32(xd),
                              _mm512_loadu_si512(wg + run * 64));
    };
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
    __m512i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    std::size_t d = 0;
    for (; d + C <= runs; d += C) {
      dot(a0, 0, d);
      if constexpr (S > 1) dot(a1, 1, d);
      if constexpr (S > 2) dot(a2, 2, d);
      if constexpr (S > 3) dot(a3, 3, d);
      if constexpr (S > 4) dot(a4, 4, d);
      if constexpr (S > 5) dot(a5, 5, d);
      if constexpr (S > 6) dot(a6, 6, d);
      if constexpr (S > 7) dot(a7, 7, d);
    }
    if constexpr (C > 1) {  // leftover runs, chain 0 (C > 1 only for N <= 4)
      static_assert(N <= 4);
      for (; d < runs; ++d) {
        dot(a0, 0, d);
        if constexpr (N > 1) dot(a1, 1, d);
        if constexpr (N > 2) dot(a2, 2, d);
        if constexpr (N > 3) dot(a3, 3, d);
      }
    }
    const __m512i slots[8] = {a0, a1, a2, a3, a4, a5, a6, a7};
    const std::size_t valid = std::min(rows - g * kQuantGroup, kQuantGroup);
    for (std::size_t l = 0; l < N; ++l) {
      __m512i sum = slots[l];
      for (std::size_t c = 1; c < C; ++c) sum = _mm512_add_epi32(sum, slots[c * N + l]);
      alignas(64) std::int32_t part[kQuantGroup];
      _mm512_store_si512(part, sum);
      qi64* out = acc + l * rows + g * kQuantGroup;
      const qi64* rs = row_sums + g * kQuantGroup;
      for (std::size_t j = 0; j < valid; ++j) {
        out[j] = static_cast<std::int64_t>(part[j]) - 128 * rs[j];
      }
    }
  }
}
#endif

}  // namespace

void gemm_q8x8(const qi8* w, const qi64* row_sums, std::size_t rows,
               std::size_t depth_pad, const qu8* x, std::size_t lanes,
               qi64* acc) {
  // 255 * 127 * 65536 < 2^31: one int32 accumulator covers the whole row for
  // every depth the model loaders admit (kMaxDim).  Anything larger is a
  // caller bug, not a silent wrap.
  if (depth_pad > 65536) {
    throw std::invalid_argument("gemm_q8x8: depth exceeds int32 budget");
  }
  if (lanes == 0 || lanes > kLanes) {
    throw std::invalid_argument("gemm_q8x8: lanes must be in [1, kLanes]");
  }
#ifdef TRAJKIT_QUANT_VNNI
  // Chains per lane: six to eight dot products in flight at every width.
  switch (lanes) {
    case 1: return gemm_vnni<1, 8>(w, row_sums, rows, depth_pad, x, acc);
    case 2: return gemm_vnni<2, 4>(w, row_sums, rows, depth_pad, x, acc);
    case 3: return gemm_vnni<3, 2>(w, row_sums, rows, depth_pad, x, acc);
    case 4: return gemm_vnni<4, 2>(w, row_sums, rows, depth_pad, x, acc);
    case 5: return gemm_vnni<5, 1>(w, row_sums, rows, depth_pad, x, acc);
    case 6: return gemm_vnni<6, 1>(w, row_sums, rows, depth_pad, x, acc);
    case 7: return gemm_vnni<7, 1>(w, row_sums, rows, depth_pad, x, acc);
    default: return gemm_vnni<8, 1>(w, row_sums, rows, depth_pad, x, acc);
  }
#else
  for (std::size_t l = 0; l < lanes; ++l) {
    const qu8* xl = x + l * depth_pad;
    for (std::size_t r = 0; r < rows; ++r) {
      std::int64_t s = 0;
      for (std::size_t k = 0; k < depth_pad; ++k) {
        s += static_cast<std::int64_t>(xl[k]) * w[pack_index(r, k, depth_pad)];
      }
      acc[l * rows + r] = s - 128 * row_sums[r];
    }
  }
#endif
}

}  // namespace trajkit::nn::kernels
