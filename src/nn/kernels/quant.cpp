#include "nn/kernels/quant.hpp"

#include <algorithm>
#include <stdexcept>

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
inline v8qi quantize8(const double* src, v8df inv) {
  const v8df q = vsplat(127.0), nq = vsplat(-127.0);
  const v8df half = vsplat(0.5), nhalf = vsplat(-0.5), zero = vsplat(0.0);
  v8df t = vload(src) * inv;
  t = t > q ? q : t;
  t = t < nq ? nq : t;
  t = t + (t >= zero ? half : nhalf);
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
  const v8df inv = vsplat(inv_scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const v8qi b = quantize8(x + i, inv);
    std::memcpy(out + i, &b, sizeof(b));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<qi8>(quantize_value(x[i], inv_scale, kQmax));
  }
}

// The activation blocks arrive lane-minor (depth rows of kLanes doubles), so
// every k is one full vector quantize; the 8x8 tile then transposes to the
// lane-major image the dot-product GEMM broadcasts from.
void quantize_act_u8(const double* block, std::size_t depth,
                     std::size_t depth_pad, double inv_scale, qu8* out) {
  const v8df inv = vsplat(inv_scale);
  for (std::size_t k0 = 0; k0 < depth; k0 += 8) {
    const std::size_t kn = std::min<std::size_t>(8, depth - k0);
    qi8 tile[8][kLanes];
    for (std::size_t kk = 0; kk < kn; ++kk) {
      const v8qi b = quantize8(block + (k0 + kk) * kLanes, inv);
      std::memcpy(tile[kk], &b, sizeof(b));
    }
    for (std::size_t l = 0; l < kLanes; ++l) {
      for (std::size_t kk = 0; kk < kn; ++kk) {
        out[l * depth_pad + k0 + kk] =
            static_cast<qu8>(static_cast<std::int32_t>(tile[kk][l]) + 128);
      }
    }
  }
  for (std::size_t l = 0; l < kLanes; ++l) {
    for (std::size_t k = depth; k < depth_pad; ++k) {
      out[l * depth_pad + k] = 128;  // q == 0 in offset-binary
    }
  }
}

void gemm_q8x8(const qi8* w, const qi64* row_sums, std::size_t rows,
               std::size_t depth_pad, const qu8* x, qi64* acc) {
  // 255 * 127 * 65536 < 2^31: one int32 accumulator covers the whole row for
  // every depth the model loaders admit (kMaxDim).  Anything larger is a
  // caller bug, not a silent wrap.
  if (depth_pad > 65536) {
    throw std::invalid_argument("gemm_q8x8: depth exceeds int32 budget");
  }
  const std::size_t ngroups = (rows + kQuantGroup - 1) / kQuantGroup;
  const std::size_t runs = depth_pad / 4;
#ifdef TRAJKIT_QUANT_VNNI
  for (std::size_t g = 0; g < ngroups; ++g) {
    const qi8* wg = w + g * depth_pad * kQuantGroup;
    __m512i a0 = _mm512_setzero_si512(), a1 = a0, a2 = a0, a3 = a0;
    __m512i a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    for (std::size_t d = 0; d < runs; ++d) {
      const __m512i wv = _mm512_loadu_si512(wg + d * 64);
      std::int32_t xd[kLanes];
      std::memcpy(&xd[0], x + 0 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[1], x + 1 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[2], x + 2 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[3], x + 3 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[4], x + 4 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[5], x + 5 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[6], x + 6 * depth_pad + 4 * d, 4);
      std::memcpy(&xd[7], x + 7 * depth_pad + 4 * d, 4);
      a0 = _mm512_dpbusd_epi32(a0, _mm512_set1_epi32(xd[0]), wv);
      a1 = _mm512_dpbusd_epi32(a1, _mm512_set1_epi32(xd[1]), wv);
      a2 = _mm512_dpbusd_epi32(a2, _mm512_set1_epi32(xd[2]), wv);
      a3 = _mm512_dpbusd_epi32(a3, _mm512_set1_epi32(xd[3]), wv);
      a4 = _mm512_dpbusd_epi32(a4, _mm512_set1_epi32(xd[4]), wv);
      a5 = _mm512_dpbusd_epi32(a5, _mm512_set1_epi32(xd[5]), wv);
      a6 = _mm512_dpbusd_epi32(a6, _mm512_set1_epi32(xd[6]), wv);
      a7 = _mm512_dpbusd_epi32(a7, _mm512_set1_epi32(xd[7]), wv);
    }
    alignas(64) std::int32_t lanes[kLanes][kQuantGroup];
    _mm512_store_si512(lanes[0], a0);
    _mm512_store_si512(lanes[1], a1);
    _mm512_store_si512(lanes[2], a2);
    _mm512_store_si512(lanes[3], a3);
    _mm512_store_si512(lanes[4], a4);
    _mm512_store_si512(lanes[5], a5);
    _mm512_store_si512(lanes[6], a6);
    _mm512_store_si512(lanes[7], a7);
    const std::size_t valid = std::min(rows - g * kQuantGroup, kQuantGroup);
    for (std::size_t j = 0; j < valid; ++j) {
      const std::size_t r = g * kQuantGroup + j;
      const std::int64_t corr = 128 * row_sums[r];
      for (std::size_t l = 0; l < kLanes; ++l) {
        acc[r * kLanes + l] = static_cast<std::int64_t>(lanes[l][j]) - corr;
      }
    }
  }
#else
  (void)runs;
  (void)ngroups;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::int64_t corr = 128 * row_sums[r];
    for (std::size_t l = 0; l < kLanes; ++l) {
      const qu8* xl = x + l * depth_pad;
      std::int64_t s = 0;
      for (std::size_t k = 0; k < depth_pad; ++k) {
        s += static_cast<std::int64_t>(xl[k]) *
             w[pack_index(r, k, depth_pad)];
      }
      acc[r * kLanes + l] = s - corr;
    }
  }
#endif
}

}  // namespace trajkit::nn::kernels
