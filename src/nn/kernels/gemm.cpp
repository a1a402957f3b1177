#include "nn/kernels/gemm.hpp"

#include <algorithm>

#include "nn/kernels/lanes.hpp"

namespace trajkit::nn::kernels {

namespace {

// Every accumulator below is one single-chain reduction per output element
// in the reference order: the 8-lane vectors (lanes.hpp) only run
// *independent* output elements side by side, never the reduction dimension.
// (Left to its own devices the compiler vectorised these loops along k,
// building 8x8 vpermt2pd transposes per block — slower than the naive
// reference.  Explicit lanes pin the codegen to broadcast-multiply-add.)

// Shared packing loop: src(r, k) with `rows` x `depth` logical shape, fetched
// through an indexer so the same code packs both W and W^T.
template <typename At>
void pack_into(std::size_t rows, std::size_t depth, At at, double* out) {
  const std::size_t npanels = (rows + kPanel - 1) / kPanel;
  for (std::size_t p = 0; p < npanels; ++p) {
    double* panel = out + p * depth * kPanel;
    const std::size_t r0 = p * kPanel;
    const std::size_t valid = std::min(rows - r0, kPanel);
    for (std::size_t k = 0; k < depth; ++k) {
      double* slice = panel + k * kPanel;
      for (std::size_t j = 0; j < valid; ++j) slice[j] = at(r0 + j, k);
      for (std::size_t j = valid; j < kPanel; ++j) slice[j] = 0.0;
    }
  }
}

/// Seed one panel's accumulator from the destination (convention 2); padded
/// tail lanes start at zero and are never written back.
inline void seed_panel(v8df& acc, const Packed& p, const double* y, std::size_t pi) {
  const std::size_t r0 = pi * kPanel;
  const std::size_t valid = std::min(p.rows - r0, kPanel);
  double tmp[kPanel] = {};
  for (std::size_t j = 0; j < valid; ++j) tmp[j] = y[r0 + j];
  acc = lanes_at(tmp);
}

inline void flush_panel(const Packed& p, double* y, std::size_t pi, const v8df& acc) {
  const std::size_t r0 = pi * kPanel;
  const std::size_t valid = std::min(p.rows - r0, kPanel);
  for (std::size_t j = 0; j < valid; ++j) y[r0 + j] = acc[j];
}

inline void flush_panel_bias(const Packed& p, const double* bias, double* y,
                             std::size_t pi, const v8df& acc) {
  const std::size_t r0 = pi * kPanel;
  const std::size_t valid = std::min(p.rows - r0, kPanel);
  for (std::size_t j = 0; j < valid; ++j) {
    y[r0 + j] = (bias ? bias[r0 + j] : 0.0) + acc[j];
  }
}

}  // namespace

std::size_t packed_doubles(std::size_t rows, std::size_t depth) {
  return ((rows + kPanel - 1) / kPanel) * depth * kPanel;
}

Packed pack_rows_at(const Matrix& m, double* out) {
  const double* d = m.data();
  const std::size_t cols = m.cols();
  pack_into(
      m.rows(), cols, [d, cols](std::size_t r, std::size_t k) { return d[r * cols + k]; },
      out);
  return Packed{out, m.rows(), cols};
}

Packed pack_transpose_at(const Matrix& m, double* out) {
  const double* d = m.data();
  const std::size_t cols = m.cols();
  pack_into(
      m.cols(), m.rows(),
      [d, cols](std::size_t r, std::size_t k) { return d[k * cols + r]; }, out);
  return Packed{out, m.cols(), m.rows()};
}

Packed pack_rows(const Matrix& m, Workspace& ws) {
  return pack_rows_at(m, ws.take(packed_doubles(m.rows(), m.cols())));
}

Packed pack_transpose(const Matrix& m, Workspace& ws) {
  return pack_transpose_at(m, ws.take(packed_doubles(m.cols(), m.rows())));
}

void gemv_wx(const Packed& p, const double* bias, const double* x, double* y) {
  const std::size_t npanels = p.panels();
  const std::size_t depth = p.depth;
  const std::size_t pstride = depth * kPanel;
  std::size_t pi = 0;
  // Four panels in flight: four independent add chains hide the latency a
  // single sequential accumulator would expose.
  for (; pi + 4 <= npanels; pi += 4) {
    const double* w = p.data + pi * pstride;
    v8df a0 = {}, a1 = {}, a2 = {}, a3 = {};
    for (std::size_t k = 0; k < depth; ++k) {
      const double xk = x[k];
      const double* wk = w + k * kPanel;
      a0 += lanes_at(wk) * xk;
      a1 += lanes_at(wk + pstride) * xk;
      a2 += lanes_at(wk + 2 * pstride) * xk;
      a3 += lanes_at(wk + 3 * pstride) * xk;
    }
    flush_panel_bias(p, bias, y, pi, a0);
    flush_panel_bias(p, bias, y, pi + 1, a1);
    flush_panel_bias(p, bias, y, pi + 2, a2);
    flush_panel_bias(p, bias, y, pi + 3, a3);
  }
  for (; pi < npanels; ++pi) {
    const double* w = p.data + pi * pstride;
    v8df acc = {};
    for (std::size_t k = 0; k < depth; ++k) {
      acc += lanes_at(w + k * kPanel) * x[k];
    }
    flush_panel_bias(p, bias, y, pi, acc);
  }
}

void gemm_wx8(const Packed& p, const double* bias, const double* x, double* y) {
  const std::size_t npanels = p.panels();
  const std::size_t depth = p.depth;
  for (std::size_t pi = 0; pi < npanels; ++pi) {
    const double* w = p.data + pi * depth * kPanel;
    const std::size_t r0 = pi * kPanel;
    const std::size_t valid = std::min(p.rows - r0, kPanel);
    // 8 rows x 8 lanes of independent accumulators per panel: the activation
    // block is loaded once per k and fans out to eight broadcast-multiply-add
    // chains (AVX-512 has the registers; narrower targets just spill a bit).
    v8df acc[kPanel] = {};
    for (std::size_t k = 0; k < depth; ++k) {
      const v8df xv = lanes_at(x + k * kLanes);
      const double* wk = w + k * kPanel;
      acc[0] += wk[0] * xv;
      acc[1] += wk[1] * xv;
      acc[2] += wk[2] * xv;
      acc[3] += wk[3] * xv;
      acc[4] += wk[4] * xv;
      acc[5] += wk[5] * xv;
      acc[6] += wk[6] * xv;
      acc[7] += wk[7] * xv;
    }
    for (std::size_t j = 0; j < valid; ++j) {
      const std::size_t r = r0 + j;
      lanes_at(y + r * kLanes) = (bias ? bias[r] : 0.0) + acc[j];
    }
  }
}

void gemv_accseq(const Packed& p, const double* x, double* y) {
  const std::size_t npanels = p.panels();
  const std::size_t depth = p.depth;
  const std::size_t pstride = depth * kPanel;
  std::size_t pi = 0;
  // The destination seeds the accumulator: ((y + a_0) + a_1) + ... exactly
  // as the reference adds one contribution per weight row.
  for (; pi + 4 <= npanels; pi += 4) {
    const double* w = p.data + pi * pstride;
    v8df a0, a1, a2, a3;
    seed_panel(a0, p, y, pi);
    seed_panel(a1, p, y, pi + 1);
    seed_panel(a2, p, y, pi + 2);
    seed_panel(a3, p, y, pi + 3);
    for (std::size_t k = 0; k < depth; ++k) {
      const double xk = x[k];
      const double* wk = w + k * kPanel;
      a0 += lanes_at(wk) * xk;
      a1 += lanes_at(wk + pstride) * xk;
      a2 += lanes_at(wk + 2 * pstride) * xk;
      a3 += lanes_at(wk + 3 * pstride) * xk;
    }
    flush_panel(p, y, pi, a0);
    flush_panel(p, y, pi + 1, a1);
    flush_panel(p, y, pi + 2, a2);
    flush_panel(p, y, pi + 3, a3);
  }
  for (; pi < npanels; ++pi) {
    const double* w = p.data + pi * pstride;
    v8df acc;
    seed_panel(acc, p, y, pi);
    for (std::size_t k = 0; k < depth; ++k) {
      acc += lanes_at(w + k * kPanel) * x[k];
    }
    flush_panel(p, y, pi, acc);
  }
}

void gemm_accseq8(const Packed& p, const double* x, double* y) {
  const std::size_t npanels = p.panels();
  const std::size_t depth = p.depth;
  for (std::size_t pi = 0; pi < npanels; ++pi) {
    const double* w = p.data + pi * depth * kPanel;
    const std::size_t r0 = pi * kPanel;
    const std::size_t valid = std::min(p.rows - r0, kPanel);
    // Destination-seeded full panel, same 8-chain shape as gemm_wx8.
    v8df acc[kPanel] = {};
    for (std::size_t j = 0; j < valid; ++j) acc[j] = lanes_at(y + (r0 + j) * kLanes);
    for (std::size_t k = 0; k < depth; ++k) {
      const v8df xv = lanes_at(x + k * kLanes);
      const double* wk = w + k * kPanel;
      acc[0] += wk[0] * xv;
      acc[1] += wk[1] * xv;
      acc[2] += wk[2] * xv;
      acc[3] += wk[3] * xv;
      acc[4] += wk[4] * xv;
      acc[5] += wk[5] * xv;
      acc[6] += wk[6] * xv;
      acc[7] += wk[7] * xv;
    }
    for (std::size_t j = 0; j < valid; ++j) lanes_at(y + (r0 + j) * kLanes) = acc[j];
  }
}

void gemm_acc_tdesc(const double* a, std::size_t rows, std::size_t tsteps,
                    const double* bm, std::size_t cols, std::size_t t_stop,
                    Matrix& dw) {
  // Four dw rows share one walk of the t dimension: their accumulators are
  // independent chains (distinct output elements), and the bm row loaded per
  // timestep is reused fourfold.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* ar0 = a + r * tsteps;
    const double* ar1 = a + (r + 1) * tsteps;
    const double* ar2 = a + (r + 2) * tsteps;
    const double* ar3 = a + (r + 3) * tsteps;
    double* dw0 = dw.row(r);
    double* dw1 = dw.row(r + 1);
    double* dw2 = dw.row(r + 2);
    double* dw3 = dw.row(r + 3);
    std::size_t c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
      v8df a0 = lanes_at(dw0 + c), a1 = lanes_at(dw1 + c);
      v8df a2 = lanes_at(dw2 + c), a3 = lanes_at(dw3 + c);
      for (std::size_t t = tsteps; t-- > t_stop;) {
        const v8df bt = lanes_at(bm + t * cols + c);
        a0 += ar0[t] * bt;
        a1 += ar1[t] * bt;
        a2 += ar2[t] * bt;
        a3 += ar3[t] * bt;
      }
      lanes_at(dw0 + c) = a0;
      lanes_at(dw1 + c) = a1;
      lanes_at(dw2 + c) = a2;
      lanes_at(dw3 + c) = a3;
    }
    for (; c < cols; ++c) {
      double s0 = dw0[c], s1 = dw1[c], s2 = dw2[c], s3 = dw3[c];
      for (std::size_t t = tsteps; t-- > t_stop;) {
        const double bt = bm[t * cols + c];
        s0 += ar0[t] * bt;
        s1 += ar1[t] * bt;
        s2 += ar2[t] * bt;
        s3 += ar3[t] * bt;
      }
      dw0[c] = s0;
      dw1[c] = s1;
      dw2[c] = s2;
      dw3[c] = s3;
    }
  }
  for (; r < rows; ++r) {
    const double* ar = a + r * tsteps;
    double* dwr = dw.row(r);
    std::size_t c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
      v8df acc = lanes_at(dwr + c);
      for (std::size_t t = tsteps; t-- > t_stop;) {
        acc += ar[t] * lanes_at(bm + t * cols + c);
      }
      lanes_at(dwr + c) = acc;
    }
    for (; c < cols; ++c) {
      double acc = dwr[c];
      for (std::size_t t = tsteps; t-- > t_stop;) {
        acc += ar[t] * bm[t * cols + c];
      }
      dwr[c] = acc;
    }
  }
}

void rowsum_acc_tdesc(const double* a, std::size_t rows, std::size_t tsteps,
                      Matrix& db) {
  // Four rows per pass: four independent t-descending chains.
  std::size_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    const double* ar0 = a + r * tsteps;
    const double* ar1 = a + (r + 1) * tsteps;
    const double* ar2 = a + (r + 2) * tsteps;
    const double* ar3 = a + (r + 3) * tsteps;
    double s0 = db(r, 0), s1 = db(r + 1, 0), s2 = db(r + 2, 0), s3 = db(r + 3, 0);
    for (std::size_t t = tsteps; t-- > 0;) {
      s0 += ar0[t];
      s1 += ar1[t];
      s2 += ar2[t];
      s3 += ar3[t];
    }
    db(r, 0) = s0;
    db(r + 1, 0) = s1;
    db(r + 2, 0) = s2;
    db(r + 3, 0) = s3;
  }
  for (; r < rows; ++r) {
    const double* ar = a + r * tsteps;
    double acc = db(r, 0);
    for (std::size_t t = tsteps; t-- > 0;) acc += ar[t];
    db(r, 0) = acc;
  }
}

}  // namespace trajkit::nn::kernels
