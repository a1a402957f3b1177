#include "nn/quant_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trajkit::nn {

namespace {

kernels::Workspace& local_workspace() {
  thread_local kernels::Workspace ws;
  return ws;
}

/// A max-abs over a weight block maps to the symmetric scale that places the
/// largest magnitude exactly on the integer grid edge; an all-zero block
/// scales by 1 (every value quantizes to 0 either way).
double scale_for(double maxabs, std::int32_t qmax) {
  return maxabs > 0.0 ? maxabs / static_cast<double>(qmax) : 1.0;
}

std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  h ^= b;
  return h * 1099511628211ULL;
}

}  // namespace

QuantizedLstm QuantizedLstm::quantize(
    const LstmClassifier& model, const std::vector<FeatureSequence>& calibration) {
  return quantize(model, model.calibration_pass(calibration));
}

QuantizedLstm QuantizedLstm::quantize(const LstmClassifier& model,
                                      const CalibrationPass& pass) {
  const std::size_t nl = model.layer_count();
  if (pass.max_input.size() != nl || pass.max_hidden.size() != nl) {
    throw std::invalid_argument("quantize: calibration pass of another model");
  }
  QuantizedLstm q;
  q.input_dim_ = model.config().input_dim;
  q.hidden_dim_ = model.config().hidden_dim;
  q.layers_.resize(nl);
  for (std::size_t l = 0; l < nl; ++l) {
    const LstmLayer& ref = model.layer(l);
    Layer& out = q.layers_[l];
    out.input = ref.input_dim();
    out.hidden = ref.hidden_dim();
    const std::size_t I = out.input, H = out.hidden;
    const Matrix& w = ref.weights();

    // Per-gate symmetric weight scales, input/recurrent halves separately.
    std::vector<double> inv_x(4 * H), inv_h(4 * H);
    for (std::size_t g = 0; g < 4; ++g) {
      out.sw_x[g] = scale_for(
          kernels::max_abs_block(w, g * H, (g + 1) * H, 0, I), kernels::kQmax);
      out.sw_h[g] = scale_for(
          kernels::max_abs_block(w, g * H, (g + 1) * H, I, I + H),
          kernels::kQmax);
      for (std::size_t r = g * H; r < (g + 1) * H; ++r) {
        inv_x[r] = 1.0 / out.sw_x[g];
        inv_h[r] = 1.0 / out.sw_h[g];
      }
    }
    // Static activation scales from the calibration maxima.  The first
    // layer's input half sees raw features; stacked layers and every
    // recurrent half see tanh-bounded hidden state.
    out.sx = scale_for(pass.max_input[l], kernels::kQmax);
    out.sh = scale_for(pass.max_hidden[l], kernels::kQmax);

    out.bias.assign(ref.bias().data(), ref.bias().data() + 4 * H);
    out.wx.resize(kernels::quant_packed_elems(4 * H, I));
    out.wh.resize(kernels::quant_packed_elems(4 * H, H));
    kernels::pack_quant_rows_i8(w, 0, I, inv_x.data(), out.wx.data());
    kernels::pack_quant_rows_i8(w, I, I + H, inv_h.data(), out.wh.data());
    derive_row_sums(out);
  }

  const Matrix& hw = model.head_layer().weights();
  q.head_w_.assign(hw.data(), hw.data() + q.hidden_dim_);
  q.head_b_ = model.head_layer().bias()(0, 0);
  return q;
}

void QuantizedLstm::derive_row_sums(Layer& l) {
  l.wx_row_sums.resize(4 * l.hidden);
  l.wh_row_sums.resize(4 * l.hidden);
  kernels::quant_row_sums_i8(l.wx.data(), 4 * l.hidden, l.input,
                             l.wx_row_sums.data());
  kernels::quant_row_sums_i8(l.wh.data(), 4 * l.hidden, l.hidden,
                             l.wh_row_sums.data());
}

kernels::QuantLstmLayerView QuantizedLstm::view_of(const Layer& l) const {
  kernels::QuantLstmLayerView v;
  v.wx = l.wx.data();
  v.wh = l.wh.data();
  v.wx_row_sums = l.wx_row_sums.data();
  v.wh_row_sums = l.wh_row_sums.data();
  v.bias = l.bias.data();
  for (std::size_t g = 0; g < 4; ++g) {
    v.sw_x[g] = l.sw_x[g];
    v.sw_h[g] = l.sw_h[g];
  }
  v.sx = l.sx;
  v.sh = l.sh;
  v.input = l.input;
  v.hidden = l.hidden;
  return v;
}

void QuantizedLstm::predict_logit_group(const FeatureSequence* const* xs,
                                        std::size_t batch, double* logits) const {
  const std::size_t I = input_dim_;
  const std::size_t H = hidden_dim_;
  std::size_t steps_buf[kernels::kLanes];
  std::size_t max_steps = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (xs[b]->dim != I) {
      throw std::invalid_argument("QuantizedLstm: feature dim mismatch");
    }
    if (xs[b]->steps == 0) {
      throw std::invalid_argument("QuantizedLstm: empty sequence");
    }
    steps_buf[b] = xs[b]->steps;
    max_steps = std::max(max_steps, xs[b]->steps);
  }
  kernels::BatchSpec spec;
  spec.batch = batch;
  spec.lanes = batch;  // the quant lane runs only the live sequences
  spec.max_steps = max_steps;
  spec.steps = steps_buf;

  // Lane-major input blocks: step t of sequence b is I contiguous doubles at
  // (t * batch + b) * I; steps past a sequence's end stay zero.  Reserved
  // for a full group, like the forward's scratch (rnn_quant.cpp says why).
  kernels::Workspace& ws = local_workspace();
  ws.reset();
  double* xblocks = ws.take_zero(max_steps * kernels::kLanes * I);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* v = xs[b]->values.data();
    for (std::size_t t = 0; t < steps_buf[b]; ++t) {
      std::copy(v + t * I, v + (t + 1) * I, xblocks + (t * batch + b) * I);
    }
  }

  const double* input = xblocks;
  for (const Layer& l : layers_) {
    input = kernels::lstm_forward_quant(view_of(l), input, spec, ws);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const double* h = input + ((steps_buf[b] - 1) * batch + b) * H;
    double acc = 0.0;
    for (std::size_t c = 0; c < H; ++c) acc += head_w_[c] * h[c];
    logits[b] = head_b_ + acc;
  }
}

double QuantizedLstm::predict_logit(const FeatureSequence& x) const {
  const FeatureSequence* px = &x;
  double logit = 0.0;
  predict_logit_group(&px, 1, &logit);
  return logit;
}

double QuantizedLstm::predict_proba(const FeatureSequence& x) const {
  return sigmoid(predict_logit(x));
}

int QuantizedLstm::predict(const FeatureSequence& x, double threshold) const {
  return predict_proba(x) >= threshold ? 1 : 0;
}

std::vector<double> QuantizedLstm::predict_logit_batch(
    const std::vector<FeatureSequence>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  for (std::size_t i = 0; i < xs.size();) {
    const std::size_t bsz = std::min(kernels::kLanes, xs.size() - i);
    const FeatureSequence* ptrs[kernels::kLanes];
    for (std::size_t k = 0; k < bsz; ++k) ptrs[k] = &xs[i + k];
    predict_logit_group(ptrs, bsz, out.data() + i);
    i += bsz;
  }
  return out;
}

std::vector<double> QuantizedLstm::predict_proba_batch(
    const std::vector<FeatureSequence>& xs) const {
  std::vector<double> out = predict_logit_batch(xs);
  for (double& v : out) v = sigmoid(v);
  return out;
}

QuantGateReport quant_gate_check(const LstmClassifier& ref,
                                 const QuantizedLstm& quant,
                                 const std::vector<FeatureSequence>& calibration,
                                 double logit_delta_bound, double threshold) {
  return quant_gate_check(ref.predict_logit_batch(calibration), quant, calibration,
                          logit_delta_bound, threshold);
}

QuantGateReport quant_gate_check(const std::vector<double>& ref_logits,
                                 const QuantizedLstm& quant,
                                 const std::vector<FeatureSequence>& calibration,
                                 double logit_delta_bound, double threshold) {
  if (ref_logits.size() != calibration.size()) {
    throw std::invalid_argument("quant_gate_check: one fp64 logit per sequence");
  }
  QuantGateReport rep;
  rep.logit_delta_bound = logit_delta_bound;
  rep.threshold = threshold;
  rep.checked = calibration.size();
  if (calibration.empty()) return rep;  // an empty gate never passes

  const std::vector<double> q_logits = quant.predict_logit_batch(calibration);
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < calibration.size(); ++i) {
    const int vr = sigmoid(ref_logits[i]) >= threshold ? 1 : 0;
    const int vq = sigmoid(q_logits[i]) >= threshold ? 1 : 0;
    if (vr != vq) ++rep.disagreements;
    const double d = std::abs(ref_logits[i] - q_logits[i]);
    rep.max_abs_logit_delta = std::max(rep.max_abs_logit_delta, d);
    h = fnv1a_byte(h, static_cast<std::uint8_t>(vr));
    h = fnv1a_byte(h, static_cast<std::uint8_t>(vq));
  }
  rep.verdict_checksum = h;
  rep.pass =
      rep.disagreements == 0 && rep.max_abs_logit_delta <= logit_delta_bound;
  return rep;
}

}  // namespace trajkit::nn
