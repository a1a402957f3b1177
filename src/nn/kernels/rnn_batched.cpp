#include "nn/kernels/rnn_batched.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace trajkit::nn::kernels {

namespace {

void check_spec(const BatchSpec& spec) {
  if (spec.batch == 0 || spec.max_steps == 0 || spec.steps == nullptr) {
    throw std::invalid_argument("rnn_batched: empty batch");
  }
  if (spec.lanes != 1 && spec.lanes != kLanes) {
    throw std::invalid_argument("rnn_batched: lanes must be 1 or kLanes");
  }
  if (spec.batch > spec.lanes) {
    throw std::invalid_argument("rnn_batched: batch exceeds lanes");
  }
  for (std::size_t b = 0; b < spec.batch; ++b) {
    if (spec.steps[b] == 0 || spec.steps[b] > spec.max_steps) {
      throw std::invalid_argument("rnn_batched: bad sample length");
    }
  }
}

/// Upstream-gradient injection for the backward pass.  At a sample's last step
/// the reference *assigns* dh (it copies the final dh_seq block), so lanes are
/// assigned there — this also scrubs any dead-lane garbage before live math.
/// Earlier live steps add the (possibly zero) per-step injection, exactly
/// like the reference's `dh[k] += inject[k]`.
void inject_dh(const BatchSpec& spec, std::size_t hidden, std::size_t t,
               const double* dh_last, const double* dh_blocks, double* dh,
               double* dc) {
  const std::size_t L = spec.lanes;
  for (std::size_t b = 0; b < spec.batch; ++b) {
    const std::size_t last = spec.steps[b] - 1;
    if (last == t) {
      for (std::size_t k = 0; k < hidden; ++k) {
        dh[k * L + b] = dh_last ? dh_last[b * hidden + k]
                                : dh_blocks[t * hidden * L + k * L + b];
        dc[k * L + b] = 0.0;
      }
    } else if (last > t && dh_blocks) {
      for (std::size_t k = 0; k < hidden; ++k) {
        dh[k * L + b] += dh_blocks[t * hidden * L + k * L + b];
      }
    }
    // Note: in dh_last mode the reference adds a literal zero injection at
    // every non-final step.  The recurrent dh is built by zero-seeded
    // sequential sums, which can never produce -0.0, so skipping the += 0.0
    // is bit-identical.
  }
}

/// Gather one sample's lane out of `count` lane-minor blocks of `rows` rows
/// into a dense (rows-major, stride `rows`) matrix of t columns — operand
/// layout for the t-descending gradient GEMMs.
void gather_rows_t(const double* blocks, std::size_t rows, std::size_t lanes,
                   std::size_t block_stride, std::size_t tsteps, std::size_t lane,
                   double* out) {
  for (std::size_t t = 0; t < tsteps; ++t) {
    const double* blk = blocks + t * block_stride;
    for (std::size_t r = 0; r < rows; ++r) out[r * tsteps + t] = blk[r * lanes + lane];
  }
}

/// Gather one sample's lane into a (tsteps x cols) row-major matrix.
void gather_t_cols(const double* blocks, std::size_t cols, std::size_t lanes,
                   std::size_t block_stride, std::size_t tsteps, std::size_t lane,
                   double* out) {
  for (std::size_t t = 0; t < tsteps; ++t) {
    const double* blk = blocks + t * block_stride;
    for (std::size_t c = 0; c < cols; ++c) out[t * cols + c] = blk[c * lanes + lane];
  }
}

}  // namespace

LstmBatchTrace lstm_forward_batched(const LstmLayer& layer, const double* xblocks,
                                    const BatchSpec& spec, Workspace& ws,
                                    const LstmPacks* packs) {
  check_spec(spec);
  const std::size_t I = layer.input_dim();
  const std::size_t H = layer.hidden_dim();
  const std::size_t L = spec.lanes;
  const std::size_t T = spec.max_steps;

  const Packed pw = packs ? packs->rows : pack_rows(layer.weights(), ws);
  const double* bias = layer.bias().data();

  LstmBatchTrace tr;
  tr.input = I;
  tr.hidden = H;
  tr.xin = ws.take(T * (I + H) * L);
  tr.gates = ws.take(T * 4 * H * L);
  tr.cells = ws.take(T * H * L);
  tr.tanh_cells = ws.take(T * H * L);
  tr.hiddens = ws.take(T * H * L);

  for (std::size_t t = 0; t < T; ++t) {
    double* xin = tr.xin + t * (I + H) * L;
    std::memcpy(xin, xblocks + t * I * L, I * L * sizeof(double));
    if (t > 0) {
      std::memcpy(xin + I * L, tr.hiddens + (t - 1) * H * L, H * L * sizeof(double));
    } else {
      std::memset(xin + I * L, 0, H * L * sizeof(double));
    }

    double* z = tr.gates + t * 4 * H * L;
    gemm_wx_l(pw, bias, xin, z, L);

    double* c = tr.cells + t * H * L;
    double* tc = tr.tanh_cells + t * H * L;
    double* h = tr.hiddens + t * H * L;
    const double* c_prev = t > 0 ? tr.cells + (t - 1) * H * L : nullptr;
    const std::size_t HL = H * L;
    for (std::size_t e = 0; e < HL; ++e) {
      const double i_g = sigmoid(z[e]);
      const double f_g = sigmoid(z[HL + e]);
      const double g_g = std::tanh(z[2 * HL + e]);
      const double o_g = sigmoid(z[3 * HL + e]);
      z[e] = i_g;
      z[HL + e] = f_g;
      z[2 * HL + e] = g_g;
      z[3 * HL + e] = o_g;
      const double cp = c_prev ? c_prev[e] : 0.0;
      c[e] = f_g * cp + i_g * g_g;
      tc[e] = std::tanh(c[e]);
      h[e] = o_g * tc[e];
    }
  }
  return tr;
}

void lstm_backward_batched(const LstmLayer& layer, const LstmBatchTrace& trace,
                           const BatchSpec& spec, const double* dh_last,
                           const double* dh_blocks, double* dx_blocks,
                           const LstmGrads& grads, Workspace& ws,
                           const LstmPacks* packs) {
  check_spec(spec);
  if ((dh_last == nullptr) == (dh_blocks == nullptr)) {
    throw std::invalid_argument(
        "lstm_backward_batched: exactly one of dh_last / dh_blocks");
  }
  const std::size_t I = trace.input;
  const std::size_t H = trace.hidden;
  const std::size_t L = spec.lanes;
  const std::size_t T = spec.max_steps;
  const std::size_t HL = H * L;
  const bool want_grads = grads.dw != nullptr;

  const Packed pwt = packs ? packs->transpose : pack_transpose(layer.weights(), ws);
  double* dh = ws.take_zero(HL);
  double* dc = ws.take_zero(HL);
  double* dzin = ws.take((I + H) * L);
  double* dzbuf = ws.take(want_grads ? T * 4 * HL : 4 * HL);

  for (std::size_t t = T; t-- > 0;) {
    inject_dh(spec, H, t, dh_last, dh_blocks, dh, dc);

    const double* gate = trace.gates + t * 4 * HL;
    const double* tcs = trace.tanh_cells + t * HL;
    const double* c_prev = t > 0 ? trace.cells + (t - 1) * HL : nullptr;
    double* dz = want_grads ? dzbuf + t * 4 * HL : dzbuf;
    for (std::size_t e = 0; e < HL; ++e) {
      const double i_g = gate[e];
      const double f_g = gate[HL + e];
      const double g_g = gate[2 * HL + e];
      const double o_g = gate[3 * HL + e];
      // The forward stored tanh(c_t); same input bits, same libm call, so the
      // load is bit-identical to the reference's recomputation.
      const double tanh_c = tcs[e];
      const double dct = dc[e] + dh[e] * o_g * (1.0 - tanh_c * tanh_c);
      const double cp = c_prev ? c_prev[e] : 0.0;
      dz[e] = dct * g_g * i_g * (1.0 - i_g);
      dz[HL + e] = dct * cp * f_g * (1.0 - f_g);
      dz[2 * HL + e] = dct * i_g * (1.0 - g_g * g_g);
      dz[3 * HL + e] = dh[e] * tanh_c * o_g * (1.0 - o_g);
      dc[e] = dct * f_g;
    }

    // dzin = W^T dz, zero-seeded sequential like the reference.
    const std::size_t ZL = (I + H) * L;
    for (std::size_t e = 0; e < ZL; ++e) dzin[e] = 0.0;
    gemm_accseq_l(pwt, dz, dzin, L);
    if (dx_blocks) {
      std::memcpy(dx_blocks + t * I * L, dzin, I * L * sizeof(double));
    }
    std::memcpy(dh, dzin + I * L, HL * sizeof(double));
  }

  if (want_grads) {
    double* az = ws.take(4 * H * T);
    double* zin = ws.take(T * (I + H));
    for (std::size_t b = 0; b < spec.batch; ++b) {
      const std::size_t ts = spec.steps[b];
      gather_rows_t(dzbuf, 4 * H, L, 4 * HL, ts, b, az);
      gather_t_cols(trace.xin, I + H, L, (I + H) * L, ts, b, zin);
      gemm_acc_tdesc(az, 4 * H, ts, zin, I + H, 0, *grads.dw);
      rowsum_acc_tdesc(az, 4 * H, ts, *grads.db);
    }
  }
}

}  // namespace trajkit::nn::kernels
