#include "nn/kernels/rnn_quant.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "nn/kernels/lanes.hpp"

namespace trajkit::nn::kernels {

namespace {

void check_quant_spec(const QuantLstmLayerView& layer, const BatchSpec& spec) {
  if (spec.batch == 0 || spec.max_steps == 0 || spec.steps == nullptr) {
    throw std::invalid_argument("rnn_quant: empty batch");
  }
  if (spec.batch > kLanes || spec.lanes != spec.batch) {
    throw std::invalid_argument("rnn_quant: lanes must equal batch <= kLanes");
  }
  for (std::size_t b = 0; b < spec.batch; ++b) {
    if (spec.steps[b] == 0 || spec.steps[b] > spec.max_steps) {
      throw std::invalid_argument("rnn_quant: bad sample length");
    }
  }
  if (layer.wx == nullptr || layer.wh == nullptr || layer.bias == nullptr ||
      layer.wx_row_sums == nullptr || layer.wh_row_sums == nullptr ||
      layer.input == 0 || layer.hidden == 0) {
    throw std::invalid_argument("rnn_quant: incomplete layer view");
  }
}

// Up to 8 consecutive rows of one lane: whole vectors in the body, a
// zero-filled copy for the last partial one.  The spare elements compute on
// zeros and are never stored.
inline void load_rows(v8df& v, const double* p, std::size_t m) {
  if (m == 8) {
    v = lanes_at(p);
    return;
  }
  alignas(64) double tmp[8] = {};
  std::memcpy(tmp, p, m * sizeof(double));
  v = lanes_at(tmp);
}

inline void load_acc(v8df& v, const qi64* p, std::size_t m) {
  alignas(64) std::int64_t tmp[8] = {};
  if (m != 8) {
    std::memcpy(tmp, p, m * sizeof(std::int64_t));
    p = tmp;
  }
  v = __builtin_convertvector(lanes_at(p), v8df);  // exact: |acc| < 2^53 always
}

inline void store_rows(double* p, const v8df& v, std::size_t m) {
  if (m == 8) {
    lanes_at(p) = v;
  } else {
    std::memcpy(p, &v, m * sizeof(double));
  }
}

}  // namespace

double* lstm_forward_quant(const QuantLstmLayerView& layer,
                           const double* xblocks, const BatchSpec& spec,
                           Workspace& ws) {
  check_quant_spec(layer, spec);
  const std::size_t I = layer.input;
  const std::size_t H = layer.hidden;
  const std::size_t G = 4 * H;  // gate rows per lane
  const std::size_t n = spec.batch;
  const std::size_t T = spec.max_steps;
  const std::size_t nH = n * H;

  // Dequantization factors, one per gate per weight half.
  double dqx[4], dqh[4];
  for (std::size_t g = 0; g < 4; ++g) {
    dqx[g] = layer.sw_x[g] * layer.sx;
    dqh[g] = layer.sw_h[g] * layer.sh;
  }
  const double inv_sx = layer.sx != 0.0 ? 1.0 / layer.sx : 0.0;
  const double inv_sh = layer.sh != 0.0 ? 1.0 / layer.sh : 0.0;
  const std::size_t IPad = quant_depth_pad(I);
  const std::size_t HPad = quant_depth_pad(H);

  // Scratch is laid out for the n live lanes but reserved for kLanes: with
  // width-dependent sizes, the arena's doubling growth skips chunks left too
  // small by a narrower group and opens new ones, so a mix of widths held
  // ~30% more memory per thread than full groups do.  Only live lanes are
  // touched.
  const std::size_t cap = kLanes;

  // The whole input history is known up front, so its quantized image is
  // built once (T * n lane rows); only the recurrent state re-quantizes per
  // step.  Activations are offset-binary uint8 (the VNNI dot product is
  // u8 x s8).
  qu8* qx = take_u8(ws, T * cap * IPad);
  qu8* qh = take_u8(ws, cap * HPad);
  quantize_act_u8(xblocks, T * n, I, IPad, inv_sx, qx);
  qi64* accx = take_i64(ws, cap * G);
  qi64* acch = take_i64(ws, cap * G);
  double* cells = ws.take(2 * cap * H);  // ping-pong c_{t-1} / c_t
  double* hiddens = ws.take(T * cap * H);

  for (std::size_t t = 0; t < T; ++t) {
    gemm_q8x8(layer.wx, layer.wx_row_sums, G, IPad, qx + t * n * IPad, n, accx);
    if (t > 0) {
      quantize_act_u8(hiddens + (t - 1) * nH, n, H, HPad, inv_sh, qh);
      gemm_q8x8(layer.wh, layer.wh_row_sums, G, HPad, qh, n, acch);
    } else {
      std::memset(acch, 0, n * G * sizeof(qi64));
    }

    // Fused dequant + gate loop, per live lane over 8 hidden rows at a time:
    // fast polynomial activations, state in double.
    for (std::size_t l = 0; l < n; ++l) {
      const qi64* ax = accx + l * G;
      const qi64* ah = acch + l * G;
      const double* c_prev = cells + (t % 2) * nH + l * H;
      double* c = cells + ((t + 1) % 2) * nH + l * H;
      double* h = hiddens + t * nH + l * H;
      // Rows [r, r + m): m is a compile-time 8 in the body loop.
      const auto rows = [&](std::size_t r, auto m) {
        // z[0..3] become the input, forget, cell and output gates in place.
        v8df z[4];
        for (std::size_t g = 0; g < 4; ++g) {
          v8df bias, acc_x, acc_h;
          load_rows(bias, layer.bias + g * H + r, m);
          load_acc(acc_x, ax + g * H + r, m);
          load_acc(acc_h, ah + g * H + r, m);
          z[g] = bias + acc_x * dqx[g] + acc_h * dqh[g];
        }
        fast_sigmoid8(z[0]);
        fast_sigmoid8(z[1]);
        fast_tanh8(z[2]);
        fast_sigmoid8(z[3]);
        v8df cp = {};
        if (t > 0) load_rows(cp, c_prev + r, m);
        const v8df cc = z[1] * cp + z[0] * z[2];
        store_rows(c + r, cc, m);
        v8df tanh_cc = cc;
        fast_tanh8(tanh_cc);
        store_rows(h + r, z[3] * tanh_cc, m);
      };
      std::size_t r = 0;
      for (; r + 8 <= H; r += 8) rows(r, std::integral_constant<std::size_t, 8>{});
      if (r < H) rows(r, H - r);
    }
  }
  return hiddens;
}

}  // namespace trajkit::nn::kernels
