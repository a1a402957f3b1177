// Batched kernel layer vs the per-sample oracle (tests/reference): every
// comparison in this file is for BIT-identity (EXPECT_EQ on doubles, no
// tolerance).  The packed GEMMs, the batched LSTM runners and the
// classifier's forward, input gradient and training must reproduce the
// reference matvec path exactly — that is the determinism contract the
// kernel layer was built under (see DESIGN.md).
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/classifier.hpp"
#include "nn/kernels/align.hpp"
#include "nn/kernels/gemm.hpp"
#include "nn/kernels/rnn_batched.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "reference/nn_reference.hpp"

namespace trajkit::nn {
namespace {

using kernels::BatchSpec;
using kernels::kLanes;
using kernels::Packed;
using kernels::Workspace;

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-2.0, 2.0);
  return m;
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

FeatureSequence random_sequence(std::size_t steps, std::size_t dim, Rng& rng) {
  FeatureSequence x;
  x.steps = steps;
  x.dim = dim;
  x.values = random_vec(steps * dim, rng);
  return x;
}

/// Extract one lane of a block sequence into flat steps x rows layout.
std::vector<double> extract_lane(const double* blocks, std::size_t rows,
                                 std::size_t lanes, std::size_t steps,
                                 std::size_t lane) {
  std::vector<double> out(steps * rows);
  for (std::size_t t = 0; t < steps; ++t) {
    for (std::size_t r = 0; r < rows; ++r) {
      out[t * rows + r] = blocks[t * rows * lanes + r * lanes + lane];
    }
  }
  return out;
}

void expect_bits_equal(const std::vector<double>& a, const std::vector<double>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
}

void expect_matrix_equal(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data()[i], b.data()[i]) << what << " diverges at element " << i;
  }
}

const std::size_t kShapes[][2] = {{1, 1},  {3, 2},  {7, 5},  {8, 8},
                                  {9, 4},  {16, 3}, {20, 17}, {33, 12}};

TEST(Kernels, GemvWxMatchesGemvAcc) {
  Rng rng(11);
  for (const auto& shape : kShapes) {
    const std::size_t rows = shape[0], depth = shape[1];
    const Matrix w = random_matrix(rows, depth, rng);
    const std::vector<double> bias = random_vec(rows, rng);
    const std::vector<double> x = random_vec(depth, rng);

    std::vector<double> ref(bias);
    reference::gemv_acc(w, x.data(), ref.data());

    Workspace ws;
    const Packed p = kernels::pack_rows(w, ws);
    std::vector<double> got(rows, -99.0);
    kernels::gemv_wx(p, bias.data(), x.data(), got.data());
    expect_bits_equal(ref, got, "gemv_wx");

    // Null bias == zero seed.
    std::vector<double> ref0(rows, 0.0);
    reference::gemv_acc(w, x.data(), ref0.data());
    std::vector<double> got0(rows, -99.0);
    kernels::gemv_wx(p, nullptr, x.data(), got0.data());
    expect_bits_equal(ref0, got0, "gemv_wx null bias");
  }
}

TEST(Kernels, GemmWx8MatchesPerLane) {
  Rng rng(12);
  for (const auto& shape : kShapes) {
    const std::size_t rows = shape[0], depth = shape[1];
    const Matrix w = random_matrix(rows, depth, rng);
    const std::vector<double> bias = random_vec(rows, rng);
    const std::vector<double> xb = random_vec(depth * kLanes, rng);

    Workspace ws;
    const Packed p = kernels::pack_rows(w, ws);
    std::vector<double> got(rows * kLanes, -99.0);
    kernels::gemm_wx8(p, bias.data(), xb.data(), got.data());

    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<double> x(depth);
      for (std::size_t k = 0; k < depth; ++k) x[k] = xb[k * kLanes + l];
      std::vector<double> ref(bias);
      reference::gemv_acc(w, x.data(), ref.data());
      for (std::size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(ref[r], got[r * kLanes + l]) << "lane " << l << " row " << r;
      }
    }
  }
}

TEST(Kernels, AccseqMatchesGemvTAcc) {
  Rng rng(13);
  for (const auto& shape : kShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const Matrix w = random_matrix(rows, cols, rng);
    const std::vector<double> x = random_vec(rows, rng);
    const std::vector<double> seed = random_vec(cols, rng);

    std::vector<double> ref(seed);
    reference::gemv_t_acc(w, x.data(), ref.data());

    Workspace ws;
    const Packed pt = kernels::pack_transpose(w, ws);
    std::vector<double> got(seed);
    kernels::gemv_accseq(pt, x.data(), got.data());
    expect_bits_equal(ref, got, "gemv_accseq");
  }
}

TEST(Kernels, Accseq8MatchesPerLane) {
  Rng rng(14);
  for (const auto& shape : kShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    const Matrix w = random_matrix(rows, cols, rng);
    const std::vector<double> xb = random_vec(rows * kLanes, rng);
    const std::vector<double> seed = random_vec(cols * kLanes, rng);

    Workspace ws;
    const Packed pt = kernels::pack_transpose(w, ws);
    std::vector<double> got(seed);
    kernels::gemm_accseq8(pt, xb.data(), got.data());

    for (std::size_t l = 0; l < kLanes; ++l) {
      std::vector<double> x(rows);
      for (std::size_t r = 0; r < rows; ++r) x[r] = xb[r * kLanes + l];
      std::vector<double> ref(cols);
      for (std::size_t c = 0; c < cols; ++c) ref[c] = seed[c * kLanes + l];
      reference::gemv_t_acc(w, x.data(), ref.data());
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(ref[c], got[c * kLanes + l]) << "lane " << l << " col " << c;
      }
    }
  }
}

TEST(Kernels, TdescMatchesRank1Sequence) {
  Rng rng(15);
  for (const auto& shape : kShapes) {
    const std::size_t rows = shape[0], cols = shape[1];
    for (std::size_t tsteps : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      // a is rows x tsteps (t minor); bm is tsteps x cols.
      const std::vector<double> a = random_vec(rows * tsteps, rng);
      const std::vector<double> bm = random_vec(tsteps * cols, rng);
      Matrix seed = random_matrix(rows, cols, rng);

      for (std::size_t t_stop : {std::size_t{0}, std::size_t{1}}) {
        Matrix ref = seed;
        std::vector<double> at(rows);
        for (std::size_t t = tsteps; t-- > t_stop;) {
          for (std::size_t r = 0; r < rows; ++r) at[r] = a[r * tsteps + t];
          reference::rank1_acc(ref, 1.0, at.data(), bm.data() + t * cols);
        }
        Matrix got = seed;
        kernels::gemm_acc_tdesc(a.data(), rows, tsteps, bm.data(), cols, t_stop,
                                got);
        expect_matrix_equal(ref, got, "gemm_acc_tdesc");
      }

      Matrix dref(rows, 1);
      for (std::size_t r = 0; r < rows; ++r) dref(r, 0) = rng.uniform(-1.0, 1.0);
      Matrix dgot = dref;
      for (std::size_t t = tsteps; t-- > 0;) {
        for (std::size_t r = 0; r < rows; ++r) dref(r, 0) += a[r * tsteps + t];
      }
      kernels::rowsum_acc_tdesc(a.data(), rows, tsteps, dgot);
      expect_matrix_equal(dref, dgot, "rowsum_acc_tdesc");
    }
  }
}

/// Build lane-minor input blocks (zero-padded) from per-sample sequences.
std::vector<double> make_xblocks(const std::vector<FeatureSequence>& xs,
                                 std::size_t max_steps, std::size_t lanes) {
  const std::size_t dim = xs[0].dim;
  std::vector<double> blocks(max_steps * dim * lanes, 0.0);
  for (std::size_t b = 0; b < xs.size(); ++b) {
    for (std::size_t t = 0; t < xs[b].steps; ++t) {
      for (std::size_t c = 0; c < dim; ++c) {
        blocks[t * dim * lanes + c * lanes + b] = xs[b].values[t * dim + c];
      }
    }
  }
  return blocks;
}

struct RaggedCase {
  std::vector<FeatureSequence> xs;
  std::vector<std::size_t> steps;
  BatchSpec spec;
};

RaggedCase make_ragged(std::size_t batch, std::size_t dim, std::size_t max_steps,
                       Rng& rng, bool ragged) {
  RaggedCase c;
  c.steps.resize(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    c.steps[b] =
        ragged ? static_cast<std::size_t>(
                     rng.uniform_int(1, static_cast<std::int64_t>(max_steps)))
               : max_steps;
    c.xs.push_back(random_sequence(c.steps[b], dim, rng));
  }
  // Make sure at least one sample spans the full window.
  c.steps[0] = max_steps;
  c.xs[0] = random_sequence(max_steps, dim, rng);
  c.spec.batch = batch;
  c.spec.lanes = batch == 1 ? 1 : kLanes;
  c.spec.max_steps = max_steps;
  c.spec.steps = c.steps.data();
  return c;
}

TEST(Kernels, LstmBatchedForwardMatchesReference) {
  Rng rng(21);
  for (const std::size_t hidden : {3u, 8u, 13u}) {
    for (const std::size_t batch : {1u, 3u, 8u}) {
      Rng wrng(100 + hidden);
      const LstmLayer layer(4, hidden, wrng);
      RaggedCase c = make_ragged(batch, 4, 9, rng, true);
      Workspace ws;
      const auto tr = kernels::lstm_forward_batched(
          layer, make_xblocks(c.xs, 9, c.spec.lanes).data(), c.spec, ws);
      for (std::size_t b = 0; b < batch; ++b) {
        const reference::LstmTrace ref =
            reference::lstm_forward(layer, c.xs[b].values, c.steps[b]);
        expect_bits_equal(ref.hiddens,
                          extract_lane(tr.hiddens, hidden, c.spec.lanes,
                                       c.steps[b], b),
                          "lstm hiddens");
        expect_bits_equal(ref.cells,
                          extract_lane(tr.cells, hidden, c.spec.lanes,
                                       c.steps[b], b),
                          "lstm cells");
        expect_bits_equal(ref.gates,
                          extract_lane(tr.gates, 4 * hidden, c.spec.lanes,
                                       c.steps[b], b),
                          "lstm gates");
      }
    }
  }
}

TEST(Kernels, LstmBatchedBackwardMatchesReference) {
  Rng rng(22);
  for (const std::size_t hidden : {3u, 8u, 13u}) {
    for (const std::size_t batch : {1u, 3u, 8u}) {
      Rng wrng(200 + hidden);
      LstmLayer layer(4, hidden, wrng);
      RaggedCase c = make_ragged(batch, 4, 9, rng, true);
      const std::size_t L = c.spec.lanes;

      // dh_last mode: reference accumulates sample by sample in batch order.
      std::vector<std::vector<double>> dh_last(batch);
      std::vector<double> dh_flat;
      for (std::size_t b = 0; b < batch; ++b) {
        dh_last[b] = random_vec(hidden, rng);
        dh_flat.insert(dh_flat.end(), dh_last[b].begin(), dh_last[b].end());
      }

      reference::Grads ref(layer);
      std::vector<std::vector<double>> ref_dx(batch);
      for (std::size_t b = 0; b < batch; ++b) {
        const reference::LstmTrace tr =
            reference::lstm_forward(layer, c.xs[b].values, c.steps[b]);
        reference::lstm_backward(layer, ref, tr, dh_last[b], &ref_dx[b]);
      }

      Workspace ws;
      const auto btr = kernels::lstm_forward_batched(
          layer, make_xblocks(c.xs, 9, L).data(), c.spec, ws);
      Matrix dw(4 * hidden, 4 + hidden), db(4 * hidden, 1);
      std::vector<double> dx_blocks(9 * 4 * L, 0.0);
      kernels::lstm_backward_batched(layer, btr, c.spec, dh_flat.data(), nullptr,
                                     dx_blocks.data(),
                                     kernels::LstmGrads{&dw, &db}, ws);
      expect_matrix_equal(ref.dw, dw, "lstm dw");
      expect_matrix_equal(ref.db, db, "lstm db");
      for (std::size_t b = 0; b < batch; ++b) {
        expect_bits_equal(ref_dx[b],
                          extract_lane(dx_blocks.data(), 4, L, c.steps[b], b),
                          "lstm dx");
      }
    }
  }
}

TEST(Kernels, LstmBatchedBackwardSeqMatchesReference) {
  Rng rng(23);
  const std::size_t hidden = 7, dim = 3, max_steps = 8;
  Rng wrng(77);
  LstmLayer layer(dim, hidden, wrng);
  RaggedCase c = make_ragged(5, dim, max_steps, rng, true);
  const std::size_t L = c.spec.lanes;

  // Per-step injections, zero past each sample's length (as an upper layer
  // would produce).
  std::vector<std::vector<double>> inj(c.xs.size());
  std::vector<double> inj_blocks(max_steps * hidden * L, 0.0);
  for (std::size_t b = 0; b < c.xs.size(); ++b) {
    inj[b] = random_vec(c.steps[b] * hidden, rng);
    for (std::size_t t = 0; t < c.steps[b]; ++t) {
      for (std::size_t k = 0; k < hidden; ++k) {
        inj_blocks[t * hidden * L + k * L + b] = inj[b][t * hidden + k];
      }
    }
  }

  reference::Grads ref(layer);
  std::vector<std::vector<double>> ref_dx(c.xs.size());
  for (std::size_t b = 0; b < c.xs.size(); ++b) {
    const reference::LstmTrace tr =
        reference::lstm_forward(layer, c.xs[b].values, c.steps[b]);
    reference::lstm_backward_seq(layer, ref, tr, inj[b], &ref_dx[b]);
  }

  Workspace ws;
  const auto btr = kernels::lstm_forward_batched(
      layer, make_xblocks(c.xs, max_steps, L).data(), c.spec, ws);
  Matrix dw(4 * hidden, dim + hidden), db(4 * hidden, 1);
  std::vector<double> dx_blocks(max_steps * dim * L, 0.0);
  kernels::lstm_backward_batched(layer, btr, c.spec, nullptr, inj_blocks.data(),
                                 dx_blocks.data(), kernels::LstmGrads{&dw, &db},
                                 ws);
  expect_matrix_equal(ref.dw, dw, "lstm seq dw");
  expect_matrix_equal(ref.db, db, "lstm seq db");
  for (std::size_t b = 0; b < c.xs.size(); ++b) {
    expect_bits_equal(ref_dx[b],
                      extract_lane(dx_blocks.data(), dim, L, c.steps[b], b),
                      "lstm seq dx");
  }
}

LstmClassifierConfig small_config(std::size_t layers) {
  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 10;
  cfg.num_layers = layers;
  cfg.batch_size = 6;  // deliberately not a multiple of the chunk grain
  return cfg;
}

std::vector<FeatureSequence> random_dataset(std::size_t n, Rng& rng) {
  std::vector<FeatureSequence> xs;
  for (std::size_t i = 0; i < n; ++i) {
    xs.push_back(
        random_sequence(static_cast<std::size_t>(rng.uniform_int(3, 12)), 2, rng));
  }
  return xs;
}

TEST(Kernels, ClassifierPredictMatchesReference) {
  Rng rng(31);
  for (const std::size_t layers : {1u, 2u, 3u}) {
    const LstmClassifier model(small_config(layers), 9001);
    const auto xs = random_dataset(11, rng);
    const auto batch_probs = model.predict_proba_batch(xs);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double p_ref = sigmoid(reference::logit(model, xs[i]));
      ASSERT_EQ(p_ref, model.predict_proba(xs[i])) << "layers=" << layers;
      ASSERT_EQ(p_ref, batch_probs[i]) << "grouped, layers=" << layers;
    }
  }
}

TEST(Kernels, ClassifierInputGradientMatchesReference) {
  Rng rng(32);
  for (const std::size_t layers : {1u, 2u}) {
    const LstmClassifier model(small_config(layers), 417);
    for (int trial = 0; trial < 5; ++trial) {
      const FeatureSequence x = random_sequence(
          static_cast<std::size_t>(rng.uniform_int(4, 11)), 2, rng);
      FeatureSequence dref, dbat;
      const double lr = reference::loss_and_input_gradient(model, x, 1, &dref);
      const double lb = model.loss_and_input_gradient(x, 1, &dbat);
      ASSERT_EQ(lr, lb);
      expect_bits_equal(dref.values, dbat.values, "input gradient");
    }
  }
}

TEST(Kernels, ClassifierTrainingMatchesReference) {
  Rng rng(33);
  // Minibatches of 6 fit one kLanes chunk; 16 splits each into two chunks,
  // so the second pass also covers the chunk-order gradient fold.
  for (const std::size_t batch : {6u, 16u}) {
    for (const std::size_t layers : {1u, 2u}) {
      LstmClassifierConfig cfg = small_config(layers);
      cfg.batch_size = batch;
      LstmClassifier ref(cfg, 5150);
      LstmClassifier bat(cfg, 5150);
      const auto xs = random_dataset(batch == 6 ? 14 : 40, rng);
      std::vector<int> ys;
      for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(i % 2 ? 1 : 0);

      const TrainReport rr = reference::train(ref, xs, ys, 2);
      const TrainReport rb = bat.train(xs, ys, 2);
      expect_bits_equal(rr.epoch_loss, rb.epoch_loss, "epoch loss");
      expect_bits_equal(rr.epoch_accuracy, rb.epoch_accuracy, "epoch accuracy");

      // The trained weights themselves must agree bit for bit.
      ASSERT_EQ(ref.image(), bat.image())
          << "trained model image, layers=" << layers << " batch=" << batch;
    }
  }
}

TEST(Kernels, WorkspaceReusesMemoryAcrossResets) {
  Workspace ws;
  double* a = ws.take(100);
  double* b = ws.take(1000);
  ASSERT_NE(a, b);
  ws.reset();
  EXPECT_EQ(a, ws.take(100));
  EXPECT_EQ(b, ws.take(1000));
  // Blocks are 64-byte aligned.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 64, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % 64, 0u);
}

}  // namespace
}  // namespace trajkit::nn
