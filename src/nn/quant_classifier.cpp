#include "nn/quant_classifier.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "common/durable/durable_file.hpp"

namespace trajkit::nn {

namespace {

constexpr const char* kMagic = "trajkit_quant_lstm_v1";
constexpr const char* kDurableTag = "quant_lstm";
constexpr std::uint32_t kDurableVersion = 1;

// Same plausibility bounds as the fp64 model loader (serialize.cpp): a
// corrupt header must fail before it can demand a huge allocation.
constexpr std::size_t kMaxDim = 65536;
constexpr std::size_t kMaxLayers = 64;

kernels::Workspace& local_workspace() {
  thread_local kernels::Workspace ws;
  return ws;
}

double max_abs(const std::vector<double>& v) {
  double best = 0.0;
  for (double x : v) {
    const double a = x < 0.0 ? -x : x;
    if (a > best) best = a;
  }
  return best;
}

/// A max-abs over a weight block maps to the symmetric scale that places the
/// largest magnitude exactly on the integer grid edge; an all-zero block
/// scales by 1 (every value quantizes to 0 either way).
double scale_for(double maxabs, std::int32_t qmax) {
  return maxabs > 0.0 ? maxabs / static_cast<double>(qmax) : 1.0;
}

void write_doubles(std::ostream& os, const double* p, std::size_t n) {
  os << std::setprecision(17);
  for (std::size_t i = 0; i < n; ++i) {
    os << p[i] << (((i + 1) % 8 == 0) ? '\n' : ' ');
  }
  os << '\n';
}

std::uint64_t fnv1a_byte(std::uint64_t h, std::uint8_t b) {
  h ^= b;
  return h * 1099511628211ULL;
}

}  // namespace

QuantizedLstm QuantizedLstm::quantize(
    const LstmClassifier& model, const std::vector<FeatureSequence>& calibration,
    QuantMode mode) {
  if (calibration.empty()) {
    throw std::invalid_argument("quantize: empty calibration set");
  }
  QuantizedLstm q;
  q.mode_ = mode;
  q.input_dim_ = model.config().input_dim;
  q.hidden_dim_ = model.config().hidden_dim;
  const std::size_t nl = model.layer_count();
  const std::int32_t qmax = kernels::quant_qmax(mode);

  // Calibration pass through the fp64 reference layers, per sample in set
  // order: per-layer max-abs of the input stream and of the layer's own
  // hidden outputs.  Max-abs is an order-free reduction, so this is
  // bit-identical on every thread count by construction.
  std::vector<double> max_in(nl, 0.0), max_h(nl, 0.0);
  for (const auto& x : calibration) {
    if (x.dim != q.input_dim_ || x.steps == 0) {
      throw std::invalid_argument("quantize: calibration sequence shape mismatch");
    }
    std::vector<double> cur = x.values;
    for (std::size_t l = 0; l < nl; ++l) {
      max_in[l] = std::max(max_in[l], max_abs(cur));
      LstmTrace tr = model.layer(l).forward(cur, x.steps);
      cur = std::move(tr.hiddens);
      max_h[l] = std::max(max_h[l], max_abs(cur));
    }
  }

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
      out.sw_x[g] =
          scale_for(kernels::max_abs_block(w, g * H, (g + 1) * H, 0, I), qmax);
      out.sw_h[g] = scale_for(
          kernels::max_abs_block(w, g * H, (g + 1) * H, I, I + H), qmax);
      for (std::size_t r = g * H; r < (g + 1) * H; ++r) {
        inv_x[r] = 1.0 / out.sw_x[g];
        inv_h[r] = 1.0 / out.sw_h[g];
      }
    }
    // Static activation scales from the calibration maxima.  The first
    // layer's input half sees raw features; stacked layers and every
    // recurrent half see tanh-bounded hidden state.
    out.sx = scale_for(max_in[l], kernels::kActQmax);
    out.sh = scale_for(max_h[l], kernels::kActQmax);

    out.bias.assign(ref.bias().data(), ref.bias().data() + 4 * H);
    out.wx.resize(kernels::quant_packed_bytes(4 * H, I, mode));
    out.wh.resize(kernels::quant_packed_bytes(4 * H, H, mode));
    if (mode == QuantMode::kInt8) {
      kernels::pack_quant_rows_i8(w, 0, I, inv_x.data(),
                                  reinterpret_cast<kernels::qi8*>(out.wx.data()));
      kernels::pack_quant_rows_i8(w, I, I + H, inv_h.data(),
                                  reinterpret_cast<kernels::qi8*>(out.wh.data()));
    } else {
      kernels::pack_quant_rows_i16(
          w, 0, I, inv_x.data(), reinterpret_cast<kernels::qi16*>(out.wx.data()));
      kernels::pack_quant_rows_i16(
          w, I, I + H, inv_h.data(),
          reinterpret_cast<kernels::qi16*>(out.wh.data()));
    }
    derive_row_sums(out, mode);
  }

  const Matrix& hw = model.head_layer().weights();
  q.head_w_.assign(hw.data(), hw.data() + q.hidden_dim_);
  q.head_b_ = model.head_layer().bias()(0, 0);
  return q;
}

void QuantizedLstm::derive_row_sums(Layer& l, QuantMode mode) {
  if (mode != QuantMode::kInt8) return;
  l.wx_row_sums.resize(4 * l.hidden);
  l.wh_row_sums.resize(4 * l.hidden);
  kernels::quant_row_sums_i8(reinterpret_cast<const kernels::qi8*>(l.wx.data()),
                             4 * l.hidden, l.input, l.wx_row_sums.data());
  kernels::quant_row_sums_i8(reinterpret_cast<const kernels::qi8*>(l.wh.data()),
                             4 * l.hidden, l.hidden, l.wh_row_sums.data());
}

kernels::QuantLstmLayerView QuantizedLstm::view_of(const Layer& l) const {
  kernels::QuantLstmLayerView v;
  v.mode = mode_;
  v.wx = l.wx.data();
  v.wh = l.wh.data();
  if (mode_ == QuantMode::kInt8) {
    v.wx_row_sums = l.wx_row_sums.data();
    v.wh_row_sums = l.wh_row_sums.data();
  }
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
  const std::size_t L = kernels::kLanes;
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
  spec.lanes = L;  // the quant lane always runs full-width blocks
  spec.max_steps = max_steps;
  spec.steps = steps_buf;

  kernels::Workspace& ws = local_workspace();
  ws.reset();
  double* xblocks = ws.take_zero(max_steps * I * L);
  for (std::size_t b = 0; b < batch; ++b) {
    const double* v = xs[b]->values.data();
    for (std::size_t t = 0; t < steps_buf[b]; ++t) {
      double* blk = xblocks + t * I * L;
      for (std::size_t c = 0; c < I; ++c) blk[c * L + b] = v[t * I + c];
    }
  }

  const double* input = xblocks;
  for (const Layer& l : layers_) {
    input = kernels::lstm_forward_quant(view_of(l), input, spec, ws);
  }

  for (std::size_t b = 0; b < batch; ++b) {
    const double* blk = input + (steps_buf[b] - 1) * H * L;
    double acc = 0.0;
    for (std::size_t c = 0; c < H; ++c) acc += head_w_[c] * blk[c * L + b];
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

void QuantizedLstm::save(std::ostream& os) const {
  os << kMagic << '\n';
  os << (mode_ == QuantMode::kInt8 ? 8 : 16) << ' ' << input_dim_ << ' '
     << hidden_dim_ << ' ' << layers_.size() << '\n';
  for (const Layer& l : layers_) {
    os << l.input << ' ' << l.hidden << '\n';
    const double scales[10] = {l.sw_x[0], l.sw_x[1], l.sw_x[2], l.sw_x[3],
                               l.sw_h[0], l.sw_h[1], l.sw_h[2], l.sw_h[3],
                               l.sx,      l.sh};
    write_doubles(os, scales, 10);
    write_doubles(os, l.bias.data(), l.bias.size());
    // The packed integer images serialize verbatim (the VNNI dot-product
    // layout is part of the format): loaders drop them straight into aligned
    // buffers and re-derive the row sums.
    const std::size_t nx = kernels::quant_packed_elems(4 * l.hidden, l.input);
    const std::size_t nh = kernels::quant_packed_elems(4 * l.hidden, l.hidden);
    for (const auto& [buf, n] : {std::pair{&l.wx, nx}, std::pair{&l.wh, nh}}) {
      os << n << '\n';
      for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t v =
            mode_ == QuantMode::kInt8
                ? static_cast<std::int32_t>(
                      reinterpret_cast<const kernels::qi8*>(buf->data())[i])
                : static_cast<std::int32_t>(
                      reinterpret_cast<const kernels::qi16*>(buf->data())[i]);
        os << v << (((i + 1) % 16 == 0) ? '\n' : ' ');
      }
      os << '\n';
    }
  }
  write_doubles(os, head_w_.data(), head_w_.size());
  os << std::setprecision(17) << head_b_ << '\n';
}

Expected<QuantizedLstm, std::string> QuantizedLstm::try_load(std::istream& is) {
  using Result = Expected<QuantizedLstm, std::string>;
  std::string magic;
  if (!(is >> magic) || magic != kMagic) {
    return Result::failure("quant model load: bad magic");
  }
  int mode_bits = 0;
  std::size_t input = 0, hidden = 0, nl = 0;
  if (!(is >> mode_bits >> input >> hidden >> nl)) {
    return Result::failure("quant model load: bad header");
  }
  if ((mode_bits != 8 && mode_bits != 16) || input == 0 || input > kMaxDim ||
      hidden == 0 || hidden > kMaxDim || nl == 0 || nl > kMaxLayers) {
    return Result::failure("quant model load: implausible architecture");
  }
  QuantizedLstm q;
  q.mode_ = mode_bits == 8 ? QuantMode::kInt8 : QuantMode::kInt16;
  q.input_dim_ = input;
  q.hidden_dim_ = hidden;
  const std::int32_t qmax = kernels::quant_qmax(q.mode_);
  q.layers_.resize(nl);
  for (std::size_t li = 0; li < nl; ++li) {
    Layer& l = q.layers_[li];
    if (!(is >> l.input >> l.hidden)) {
      return Result::failure("quant model load: bad layer header");
    }
    const std::size_t want_in = li == 0 ? input : hidden;
    if (l.input != want_in || l.hidden != hidden) {
      return Result::failure("quant model load: layer shape mismatch");
    }
    double scales[10];
    for (double& s : scales) {
      if (!(is >> s) || !std::isfinite(s) || s <= 0.0) {
        return Result::failure("quant model load: bad scale");
      }
    }
    for (std::size_t g = 0; g < 4; ++g) {
      l.sw_x[g] = scales[g];
      l.sw_h[g] = scales[4 + g];
    }
    l.sx = scales[8];
    l.sh = scales[9];
    l.bias.resize(4 * l.hidden);
    for (double& b : l.bias) {
      if (!(is >> b) || !std::isfinite(b)) {
        return Result::failure("quant model load: bad bias");
      }
    }
    const std::size_t nx = kernels::quant_packed_elems(4 * l.hidden, l.input);
    const std::size_t nh = kernels::quant_packed_elems(4 * l.hidden, l.hidden);
    l.wx.resize(kernels::quant_packed_bytes(4 * l.hidden, l.input, q.mode_));
    l.wh.resize(kernels::quant_packed_bytes(4 * l.hidden, l.hidden, q.mode_));
    for (const auto& [buf, n] : {std::pair{&l.wx, nx}, std::pair{&l.wh, nh}}) {
      std::size_t count = 0;
      if (!(is >> count) || count != n) {
        return Result::failure("quant model load: bad pack size");
      }
      for (std::size_t i = 0; i < n; ++i) {
        std::int32_t v = 0;
        if (!(is >> v) || v < -qmax || v > qmax) {
          return Result::failure("quant model load: weight out of range");
        }
        if (q.mode_ == QuantMode::kInt8) {
          reinterpret_cast<kernels::qi8*>(buf->data())[i] =
              static_cast<kernels::qi8>(v);
        } else {
          reinterpret_cast<kernels::qi16*>(buf->data())[i] =
              static_cast<kernels::qi16>(v);
        }
      }
    }
    derive_row_sums(l, q.mode_);
  }
  q.head_w_.resize(hidden);
  for (double& w : q.head_w_) {
    if (!(is >> w) || !std::isfinite(w)) {
      return Result::failure("quant model load: bad head weight");
    }
  }
  if (!(is >> q.head_b_) || !std::isfinite(q.head_b_)) {
    return Result::failure("quant model load: bad head bias");
  }
  return Result(std::move(q));
}

void QuantizedLstm::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  durable::DurableWriter writer(kDurableTag, kDurableVersion);
  writer.add_record(payload.str());
  auto committed = writer.commit(path);
  if (!committed) {
    throw std::runtime_error("quant model save: " + committed.error());
  }
}

Expected<QuantizedLstm, std::string> QuantizedLstm::try_load_file(
    const std::string& path) {
  using Result = Expected<QuantizedLstm, std::string>;
  auto records = durable::read_durable_file(path, kDurableTag, kDurableVersion);
  if (!records) return Result::failure("quant model load: " + records.error());
  if (records.value().size() != 1) {
    return Result::failure("quant model load: unexpected record count");
  }
  std::istringstream is(records.value()[0]);
  return try_load(is);
}

QuantGateReport quant_gate_check(const LstmClassifier& ref,
                                 const QuantizedLstm& quant,
                                 const std::vector<FeatureSequence>& calibration,
                                 double logit_delta_bound, double threshold) {
  QuantGateReport rep;
  rep.logit_delta_bound = logit_delta_bound;
  rep.threshold = threshold;
  rep.checked = calibration.size();
  if (calibration.empty()) return rep;  // an empty gate never passes

  const std::vector<double> ref_logits = ref.predict_logit_batch(calibration);
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
