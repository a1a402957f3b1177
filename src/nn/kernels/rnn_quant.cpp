#include "nn/kernels/rnn_quant.hpp"

#include <cstring>
#include <stdexcept>

namespace trajkit::nn::kernels {

namespace {

void check_quant_spec(const QuantLstmLayerView& layer, const BatchSpec& spec) {
  if (spec.batch == 0 || spec.max_steps == 0 || spec.steps == nullptr) {
    throw std::invalid_argument("rnn_quant: empty batch");
  }
  if (spec.lanes != kLanes) {
    throw std::invalid_argument("rnn_quant: lanes must be kLanes");
  }
  if (spec.batch > spec.lanes) {
    throw std::invalid_argument("rnn_quant: batch exceeds lanes");
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

}  // namespace

double* lstm_forward_quant(const QuantLstmLayerView& layer,
                           const double* xblocks, const BatchSpec& spec,
                           Workspace& ws) {
  check_quant_spec(layer, spec);
  const std::size_t I = layer.input;
  const std::size_t H = layer.hidden;
  const std::size_t L = kLanes;
  const std::size_t T = spec.max_steps;
  const std::size_t HL = H * L;

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

  // The whole input history is known up front, so its quantized lane-major
  // image is built once; only the recurrent state re-quantizes per step.
  // Activations are offset-binary uint8 (the VNNI dot product is u8 x s8).
  qu8* qx = take_u8(ws, T * L * IPad);
  qu8* qh = take_u8(ws, L * HPad);
  for (std::size_t t = 0; t < T; ++t) {
    quantize_act_u8(xblocks + t * I * L, I, IPad, inv_sx, qx + t * L * IPad);
  }
  qi64* accx = take_i64(ws, 4 * HL);
  qi64* acch = take_i64(ws, 4 * HL);
  double* cells = ws.take(2 * HL);  // ping-pong c_{t-1} / c_t
  double* hiddens = ws.take(T * HL);

  for (std::size_t t = 0; t < T; ++t) {
    gemm_q8x8(layer.wx, layer.wx_row_sums, 4 * H, IPad, qx + t * L * IPad,
              accx);
    if (t > 0) {
      quantize_act_u8(hiddens + (t - 1) * HL, H, HPad, inv_sh, qh);
      gemm_q8x8(layer.wh, layer.wh_row_sums, 4 * H, HPad, qh, acch);
    } else {
      std::memset(acch, 0, 4 * HL * sizeof(qi64));
    }

    const double* c_prev = cells + (t % 2) * HL;
    double* c = cells + ((t + 1) % 2) * HL;
    double* h = hiddens + t * HL;
    // Fused dequant + gate loop: one v8df per hidden row per gate (L == 8),
    // fast polynomial activations, state in double.
    for (std::size_t r = 0; r < H; ++r) {
      const std::size_t e = r * L;
      const v8df zi = vsplat(layer.bias[r]) + vcvt_i64(accx + e) * vsplat(dqx[0]) +
                      vcvt_i64(acch + e) * vsplat(dqh[0]);
      const v8df zf = vsplat(layer.bias[H + r]) +
                      vcvt_i64(accx + HL + e) * vsplat(dqx[1]) +
                      vcvt_i64(acch + HL + e) * vsplat(dqh[1]);
      const v8df zg = vsplat(layer.bias[2 * H + r]) +
                      vcvt_i64(accx + 2 * HL + e) * vsplat(dqx[2]) +
                      vcvt_i64(acch + 2 * HL + e) * vsplat(dqh[2]);
      const v8df zo = vsplat(layer.bias[3 * H + r]) +
                      vcvt_i64(accx + 3 * HL + e) * vsplat(dqx[3]) +
                      vcvt_i64(acch + 3 * HL + e) * vsplat(dqh[3]);
      const v8df ig = fast_sigmoid8(zi);
      const v8df fg = fast_sigmoid8(zf);
      const v8df gg = fast_tanh8(zg);
      const v8df og = fast_sigmoid8(zo);
      const v8df cp = t > 0 ? vload(c_prev + e) : vsplat(0.0);
      const v8df cc = fg * cp + ig * gg;
      vstore(c + e, cc);
      vstore(h + e, og * fast_tanh8(cc));
    }
  }
  return hiddens;
}

}  // namespace trajkit::nn::kernels
