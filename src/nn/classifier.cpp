#include "nn/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/parallel.hpp"

namespace trajkit::nn {
namespace {

Rng make_rng(std::uint64_t seed) { return Rng(seed); }

const LstmClassifierConfig& checked(const LstmClassifierConfig& config) {
  if (config.num_layers == 0 || config.num_layers > 4) {
    throw std::invalid_argument("LstmClassifier: num_layers must be in [1, 4]");
  }
  return config;
}

/// Samples per gradient-accumulation chunk.  Fixed (never derived from the
/// thread count) so the minibatch decomposition — and therefore the
/// floating-point summation order of the index-ordered reduction below — is
/// identical for any --threads value.  Equals kernels::kLanes, so one chunk
/// is exactly one batched-kernel group.
constexpr std::size_t kGradGrain = 8;
static_assert(kGradGrain == kernels::kLanes);

/// Per-pass scratch arena.  thread_local so concurrent const calls
/// (predict_proba from parallel serve paths) never share buffers; each pool
/// thread warms its own arena once and reuses it for every subsequent pass.
kernels::Workspace& local_workspace() {
  thread_local kernels::Workspace ws;
  return ws;
}

/// Parameter gradients shaped like the model's parameters: one per training
/// chunk (the moral equivalent of the per-sample oracle's per-chunk partials)
/// and one the chunks fold into, which the optimizer reads.
struct GradSet {
  std::vector<Matrix> dw, db;  // per LSTM layer
  Matrix head_dw, head_db;
  double loss = 0.0;
  std::size_t correct = 0;

  GradSet(const std::vector<LstmLayer>& layers, const DenseLayer& head)
      : head_dw(head.output_dim(), head.input_dim()), head_db(head.output_dim(), 1) {
    for (const auto& layer : layers) {
      dw.emplace_back(layer.weights().rows(), layer.weights().cols());
      db.emplace_back(layer.bias().rows(), 1);
    }
  }

  void zero() {
    for (auto& m : dw) m.zero();
    for (auto& m : db) m.zero();
    head_dw.zero();
    head_db.zero();
    loss = 0.0;
    correct = 0;
  }
};

void scale(Matrix& m, double s) {
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] *= s;
}

/// Global-norm clip.  The squared norm sums the head's dw + db first, then
/// each layer's dw + db in order — the association the per-sample oracle's
/// train() uses, so the two stay bit-identical.
void clip_gradients(GradSet& g, double max_norm) {
  double norm_sq = g.head_dw.norm_sq() + g.head_db.norm_sq();
  for (std::size_t l = 0; l < g.dw.size(); ++l) {
    norm_sq += g.dw[l].norm_sq() + g.db[l].norm_sq();
  }
  const double norm = std::sqrt(norm_sq);
  if (max_norm > 0.0 && norm > max_norm) {
    const double s = max_norm / norm;
    scale(g.head_dw, s);
    scale(g.head_db, s);
    for (auto& m : g.dw) scale(m, s);
    for (auto& m : g.db) scale(m, s);
  }
}

}  // namespace

LstmClassifier::LstmClassifier(LstmClassifierConfig config)
    : config_(checked(config)), head_(config.hidden_dim, 1) {
  layers_.reserve(config_.num_layers);
  for (std::size_t l = 0; l < config_.num_layers; ++l) {
    layers_.emplace_back(l == 0 ? config_.input_dim : config_.hidden_dim,
                         config_.hidden_dim);
  }
}

LstmClassifier::LstmClassifier(LstmClassifierConfig config, std::uint64_t seed)
    : config_(checked(config)), head_(config.hidden_dim, 1) {
  Rng rng = make_rng(seed);
  layers_.reserve(config_.num_layers);
  layers_.emplace_back(config_.input_dim, config_.hidden_dim, rng);
  for (std::size_t l = 1; l < config_.num_layers; ++l) {
    layers_.emplace_back(config_.hidden_dim, config_.hidden_dim, rng);
  }
  head_ = DenseLayer(config_.hidden_dim, 1, rng);
  rebuild_packs();
}

void LstmClassifier::rebuild_packs() {
  pack_offsets_.assign(2 * layers_.size(), 0);
  std::size_t total = 0;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Matrix& w = layers_[l].weights();
    pack_offsets_[2 * l] = total;
    total += kernels::packed_doubles(w.rows(), w.cols());
    pack_offsets_[2 * l + 1] = total;
    total += kernels::packed_doubles(w.cols(), w.rows());
  }
  pack_store_.resize(total);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const Matrix& w = layers_[l].weights();
    kernels::pack_rows_at(w, pack_store_.data() + pack_offsets_[2 * l]);
    kernels::pack_transpose_at(w, pack_store_.data() + pack_offsets_[2 * l + 1]);
  }
}

kernels::LstmPacks LstmClassifier::packs_of(std::size_t l) const {
  const Matrix& w = layers_[l].weights();
  return kernels::LstmPacks{
      kernels::Packed{pack_store_.data() + pack_offsets_[2 * l], w.rows(), w.cols()},
      kernels::Packed{pack_store_.data() + pack_offsets_[2 * l + 1], w.cols(),
                      w.rows()}};
}

void LstmClassifier::forward_batched(const FeatureSequence* const* xs,
                                     std::size_t batch, kernels::Workspace& ws,
                                     std::vector<kernels::LstmBatchTrace>& traces,
                                     kernels::BatchSpec& spec,
                                     std::size_t* steps_buf, double* h_last,
                                     double* logits) const {
  const std::size_t I = config_.input_dim;
  const std::size_t H = config_.hidden_dim;
  std::size_t max_steps = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (xs[b]->dim != I) {
      throw std::invalid_argument("LstmClassifier: feature dim mismatch");
    }
    if (xs[b]->steps == 0) {
      throw std::invalid_argument("LstmClassifier: empty sequence");
    }
    steps_buf[b] = xs[b]->steps;
    max_steps = std::max(max_steps, xs[b]->steps);
  }
  spec.batch = batch;
  spec.lanes = batch == 1 ? 1 : kernels::kLanes;
  spec.max_steps = max_steps;
  spec.steps = steps_buf;
  const std::size_t L = spec.lanes;

  // Interleave the inputs into lane-minor blocks, zero-padded past each
  // sample's length.
  double* xblocks = ws.take_zero(max_steps * I * L);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* v = xs[b]->values.data();
    for (std::size_t t = 0; t < steps_buf[b]; ++t) {
      double* blk = xblocks + t * I * L;
      for (std::size_t c = 0; c < I; ++c) blk[c * L + b] = v[t * I + c];
    }
  }

  traces.clear();
  traces.reserve(layers_.size());
  const double* input = xblocks;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    const kernels::LstmPacks packs = packs_of(l);
    traces.push_back(
        kernels::lstm_forward_batched(layers_[l], input, spec, ws, &packs));
    input = traces.back().hiddens;
  }

  // Final hidden state per sample, then the dense head — the same
  // single-accumulator add-once chain as the oracle's dense_forward.
  const double* top = traces.back().hiddens;
  const double* hw = head_.weights().row(0);
  const double head_b = head_.bias()(0, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* blk = top + (steps_buf[b] - 1) * H * L;
    double* hb = h_last + b * H;
    for (std::size_t k = 0; k < H; ++k) hb[k] = blk[k * L + b];
    double acc = 0.0;
    for (std::size_t c = 0; c < H; ++c) acc += hw[c] * hb[c];
    logits[b] = head_b + acc;
  }
}

void LstmClassifier::backward_batched(
    const std::vector<kernels::LstmBatchTrace>& traces,
    const kernels::BatchSpec& spec, const double* h_last, const double* dlogits,
    Matrix* head_dw, Matrix* head_db,
    const std::vector<kernels::LstmGrads>& layer_grads, double* dx_blocks,
    kernels::Workspace& ws) const {
  const std::size_t H = config_.hidden_dim;
  const std::size_t L = spec.lanes;
  const std::size_t T = spec.max_steps;
  const std::size_t B = spec.batch;

  // Head backward, one sample at a time in batch order — bit-identical to
  // the oracle's dense_backward (rank-1 into dw, then db, then dx
  // zero-seeded).
  double* dh_last = ws.take(B * H);
  const double* hw = head_.weights().row(0);
  for (std::size_t b = 0; b < B; ++b) {
    const double dy = dlogits[b];
    if (head_dw) {
      double* dwr = head_dw->row(0);
      const double* hb = h_last + b * H;
      for (std::size_t c = 0; c < H; ++c) dwr[c] += dy * hb[c];
      (*head_db)(0, 0) += dy;
    }
    double* dl = dh_last + b * H;
    for (std::size_t c = 0; c < H; ++c) dl[c] = 0.0 + hw[c] * dy;
  }

  // Walk the stack top-down; a lower layer consumes the upper layer's input
  // gradient blocks directly as its per-step injection.
  double* dh_blocks = nullptr;
  for (std::size_t l = layers_.size(); l-- > 0;) {
    const bool top = (l + 1 == layers_.size());
    double* dx_out = dx_blocks;
    double* next_blocks = nullptr;
    if (l > 0) {
      next_blocks = ws.take(T * traces[l].input * L);
      dx_out = next_blocks;
    }
    const kernels::LstmGrads g =
        layer_grads.empty() ? kernels::LstmGrads{} : layer_grads[l];
    const kernels::LstmPacks packs = packs_of(l);
    kernels::lstm_backward_batched(layers_[l], traces[l], spec,
                                   top ? dh_last : nullptr,
                                   top ? nullptr : dh_blocks, dx_out, g, ws,
                                   &packs);
    dh_blocks = next_blocks;
  }
}

TrainReport LstmClassifier::train(
    const std::vector<FeatureSequence>& xs, const std::vector<int>& ys,
    std::size_t epochs,
    const std::function<void(std::size_t, double, double)>& progress) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("LstmClassifier::train: bad dataset");
  }
  TrainReport report;
  Rng shuffle_rng = make_rng(0xc1a551f1e5ULL);

  // The minibatch gradient the chunks fold into; the optimizer reads it.
  GradSet grads(layers_, head_);
  Adam optimizer(AdamConfig{config_.learning_rate});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    optimizer.attach(&layers_[l].weights(), &grads.dw[l]);
    optimizer.attach(&layers_[l].bias(), &grads.db[l]);
  }
  optimizer.attach(&head_.weights(), &grads.head_dw);
  optimizer.attach(&head_.bias(), &grads.head_db);

  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);

  // Chunk-private gradient buffers, allocated once per train() and re-zeroed
  // per chunk.
  const std::size_t max_chunks =
      (std::min(config_.batch_size, xs.size()) + kGradGrain - 1) / kGradGrain;
  std::vector<GradSet> pool(std::max<std::size_t>(max_chunks, 1), grads);

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double total_loss = 0.0;
    std::size_t correct = 0;

    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      grads.zero();

      // Per-sample gradient accumulation fans out over fixed-size chunks of
      // the minibatch; the chunk-private partials are folded back into the
      // main buffers strictly in chunk index order, so the summation order is
      // thread-count-invariant.
      const std::size_t nchunks = (end - start + kGradGrain - 1) / kGradGrain;
      // One chunk == one batched kernel group: a single packed GEMM per gate
      // matrix per timestep covers the whole chunk.
      parallel_chunks(start, end, kGradGrain, [&](std::size_t lo, std::size_t hi) {
        GradSet& gs = pool[(lo - start) / kGradGrain];
        gs.zero();
        kernels::Workspace& ws = local_workspace();
        ws.reset();
        const std::size_t bsz = hi - lo;
        const FeatureSequence* ptrs[kernels::kLanes];
        std::size_t steps_buf[kernels::kLanes];
        for (std::size_t k = 0; k < bsz; ++k) ptrs[k] = &xs[order[lo + k]];
        std::vector<kernels::LstmBatchTrace> traces;
        kernels::BatchSpec spec;
        double* h_last = ws.take(bsz * config_.hidden_dim);
        double* logits = ws.take(bsz);
        double* dlogits = ws.take(bsz);
        forward_batched(ptrs, bsz, ws, traces, spec, steps_buf, h_last, logits);
        for (std::size_t k = 0; k < bsz; ++k) {
          const int y = ys[order[lo + k]];
          double dlogit = 0.0;
          gs.loss += sigmoid_bce_loss(logits[k], y, &dlogit);
          if ((logits[k] >= 0.0) == (y == 1)) ++gs.correct;
          dlogits[k] = dlogit * inv_batch;
        }
        std::vector<kernels::LstmGrads> lg(layers_.size());
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          lg[l] = kernels::LstmGrads{&gs.dw[l], &gs.db[l]};
        }
        backward_batched(traces, spec, h_last, dlogits, &gs.head_dw, &gs.head_db,
                         lg, nullptr, ws);
      });
      for (std::size_t c = 0; c < nchunks; ++c) {
        const GradSet& gs = pool[c];
        total_loss += gs.loss;
        correct += gs.correct;
        for (std::size_t l = 0; l < layers_.size(); ++l) {
          grads.dw[l].axpy(1.0, gs.dw[l]);
          grads.db[l].axpy(1.0, gs.db[l]);
        }
        grads.head_dw.axpy(1.0, gs.head_dw);
        grads.head_db.axpy(1.0, gs.head_db);
      }
      clip_gradients(grads, config_.grad_clip);
      optimizer.step();
      rebuild_packs();  // parameters moved; refresh before the next pass
    }

    const double loss = total_loss / static_cast<double>(xs.size());
    const double acc = static_cast<double>(correct) / static_cast<double>(xs.size());
    report.epoch_loss.push_back(loss);
    report.epoch_accuracy.push_back(acc);
    if (progress) progress(epoch, loss, acc);
  }
  return report;
}

double LstmClassifier::predict_logit(const FeatureSequence& x) const {
  kernels::Workspace& ws = local_workspace();
  ws.reset();
  const FeatureSequence* px = &x;
  std::vector<kernels::LstmBatchTrace> traces;
  kernels::BatchSpec spec;
  std::size_t steps_buf[kernels::kLanes];
  double* h_last = ws.take(config_.hidden_dim);
  double logit = 0.0;
  forward_batched(&px, 1, ws, traces, spec, steps_buf, h_last, &logit);
  return logit;
}

std::vector<double> LstmClassifier::predict_logit_batch(
    const std::vector<FeatureSequence>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  kernels::Workspace& ws = local_workspace();
  for (std::size_t i = 0; i < xs.size();) {
    const std::size_t bsz = std::min(kernels::kLanes, xs.size() - i);
    ws.reset();
    const FeatureSequence* ptrs[kernels::kLanes];
    std::size_t steps_buf[kernels::kLanes];
    for (std::size_t k = 0; k < bsz; ++k) ptrs[k] = &xs[i + k];
    std::vector<kernels::LstmBatchTrace> traces;
    kernels::BatchSpec spec;
    double* h_last = ws.take(bsz * config_.hidden_dim);
    double* logits = ws.take(bsz);
    forward_batched(ptrs, bsz, ws, traces, spec, steps_buf, h_last, logits);
    for (std::size_t k = 0; k < bsz; ++k) out[i + k] = logits[k];
    i += bsz;
  }
  return out;
}

CalibrationPass LstmClassifier::calibration_pass(
    const std::vector<FeatureSequence>& xs) const {
  if (xs.empty()) {
    throw std::invalid_argument("LstmClassifier::calibration_pass: empty set");
  }
  for (const auto& x : xs) {
    if (x.dim != config_.input_dim || x.steps == 0 ||
        x.values.size() != x.steps * x.dim) {
      throw std::invalid_argument(
          "LstmClassifier::calibration_pass: sequence shape mismatch");
    }
  }
  const std::size_t nl = layers_.size();
  const std::size_t H = config_.hidden_dim;
  CalibrationPass pass;
  pass.logits.assign(xs.size(), 0.0);
  // One slot per group and layer, folded after the pass.  The groups are
  // fixed by the set and kLanes alone, so the fold sees the same values on
  // any thread count.
  const std::size_t groups = (xs.size() + kernels::kLanes - 1) / kernels::kLanes;
  std::vector<double> group_in(groups * nl, 0.0), group_h(groups * nl, 0.0);
  parallel_chunks(0, xs.size(), kernels::kLanes, [&](std::size_t lo, std::size_t hi) {
    kernels::Workspace& ws = local_workspace();
    ws.reset();
    const std::size_t bsz = hi - lo;
    const FeatureSequence* ptrs[kernels::kLanes];
    std::size_t steps_buf[kernels::kLanes];
    for (std::size_t k = 0; k < bsz; ++k) ptrs[k] = &xs[lo + k];
    std::vector<kernels::LstmBatchTrace> traces;
    kernels::BatchSpec spec;
    double* h_last = ws.take(bsz * H);
    forward_batched(ptrs, bsz, ws, traces, spec, steps_buf, h_last,
                    pass.logits.data() + lo);
    const std::size_t L = spec.lanes;
    const std::size_t g = lo / kernels::kLanes;
    for (std::size_t l = 0; l < nl; ++l) {
      const kernels::LstmBatchTrace& tr = traces[l];
      const std::size_t I = tr.input;
      double in_max = 0.0, h_max = 0.0;
      for (std::size_t b = 0; b < bsz; ++b) {
        for (std::size_t t = 0; t < steps_buf[b]; ++t) {
          // The first I rows of xin's block t are the layer's input x_t.
          const double* x = tr.xin + t * (I + H) * L + b;
          for (std::size_t c = 0; c < I; ++c) in_max = std::max(in_max, std::abs(x[c * L]));
          const double* h = tr.hiddens + t * H * L + b;
          for (std::size_t k = 0; k < H; ++k) h_max = std::max(h_max, std::abs(h[k * L]));
        }
      }
      group_in[g * nl + l] = in_max;
      group_h[g * nl + l] = h_max;
    }
  });
  pass.max_input.assign(nl, 0.0);
  pass.max_hidden.assign(nl, 0.0);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t l = 0; l < nl; ++l) {
      pass.max_input[l] = std::max(pass.max_input[l], group_in[g * nl + l]);
      pass.max_hidden[l] = std::max(pass.max_hidden[l], group_h[g * nl + l]);
    }
  }
  return pass;
}

double LstmClassifier::predict_proba(const FeatureSequence& x) const {
  return sigmoid(predict_logit(x));
}

std::vector<double> LstmClassifier::predict_proba_batch(
    const std::vector<FeatureSequence>& xs) const {
  std::vector<double> out = predict_logit_batch(xs);
  for (double& v : out) v = sigmoid(v);
  return out;
}

int LstmClassifier::predict(const FeatureSequence& x, double threshold) const {
  return predict_proba(x) >= threshold ? 1 : 0;
}

double LstmClassifier::loss_and_input_gradient(const FeatureSequence& x,
                                               int target_label,
                                               FeatureSequence* dx) const {
  kernels::Workspace& ws = local_workspace();
  ws.reset();
  const FeatureSequence* px = &x;
  std::vector<kernels::LstmBatchTrace> traces;
  kernels::BatchSpec spec;
  std::size_t steps_buf[kernels::kLanes];
  double* h_last = ws.take(config_.hidden_dim);
  double logit = 0.0;
  forward_batched(&px, 1, ws, traces, spec, steps_buf, h_last, &logit);
  double dlogit = 0.0;
  const double loss = sigmoid_bce_loss(logit, target_label, &dlogit);
  if (dx) {
    // lanes == 1, so the block layout *is* the flat steps x dim layout.
    double* dxb = ws.take(x.steps * config_.input_dim);
    backward_batched(traces, spec, h_last, &dlogit, nullptr, nullptr, {}, dxb, ws);
    dx->steps = x.steps;
    dx->dim = x.dim;
    dx->values.assign(dxb, dxb + x.steps * config_.input_dim);
  }
  return loss;
}

}  // namespace trajkit::nn
