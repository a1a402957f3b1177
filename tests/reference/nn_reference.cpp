#include "reference/nn_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"
#include "nn/adam.hpp"
#include "nn/kernels/align.hpp"

namespace trajkit::nn::reference {

namespace {

double forward_logit(const std::vector<LstmLayer>& layers, const DenseLayer& head,
                     const FeatureSequence& x, std::vector<LstmTrace>& traces) {
  if (x.dim != layers.front().input_dim()) {
    throw std::invalid_argument("reference::logit: feature dim mismatch");
  }
  if (x.steps == 0) throw std::invalid_argument("reference::logit: empty sequence");

  const std::vector<double>* input = &x.values;
  traces.clear();
  traces.reserve(layers.size());
  for (const auto& layer : layers) {
    traces.push_back(lstm_forward(layer, *input, x.steps));
    input = &traces.back().hiddens;
  }
  const std::size_t H = layers.back().hidden_dim();
  const std::vector<double>& hiddens = traces.back().hiddens;
  const std::vector<double> h_last(hiddens.end() - static_cast<std::ptrdiff_t>(H),
                                   hiddens.end());
  return dense_forward(head, h_last)[0];
}

/// Full backward from a logit gradient: accumulates parameter gradients into
/// `grads` (one per layer) and `head_grads` and optionally writes the input
/// gradient.
void backward_from_logit(const std::vector<LstmLayer>& layers, const DenseLayer& head,
                         std::vector<Grads>& grads, Grads& head_grads,
                         const std::vector<LstmTrace>& traces, double dlogit,
                         std::vector<double>* dx_flat) {
  const std::size_t H = layers.back().hidden_dim();
  const std::vector<double>& top_hiddens = traces.back().hiddens;
  const std::vector<double> h_last(
      top_hiddens.end() - static_cast<std::ptrdiff_t>(H), top_hiddens.end());
  const std::vector<double> dh_last = dense_backward(head, head_grads, h_last, {dlogit});

  // Walk the stack top-down; each layer's input gradient is the per-step
  // hidden-state injection for the layer below.
  std::vector<double> inject;
  for (std::size_t l = layers.size(); l-- > 0;) {
    std::vector<double> dx_local;
    std::vector<double>* out = (l == 0) ? dx_flat : &dx_local;
    if (l + 1 == layers.size()) {
      lstm_backward(layers[l], grads[l], traces[l], dh_last, out);
    } else {
      lstm_backward_seq(layers[l], grads[l], traces[l], inject, out);
    }
    if (l > 0) inject = std::move(dx_local);
  }
}

std::vector<LstmLayer> copy_layers(const LstmClassifier& model) {
  std::vector<LstmLayer> out;
  for (std::size_t l = 0; l < model.layer_count(); ++l) out.push_back(model.layer(l));
  return out;
}

std::vector<Grads> grads_of(const std::vector<LstmLayer>& layers) {
  std::vector<Grads> out;
  for (const auto& layer : layers) out.emplace_back(layer);
  return out;
}

void scale(Matrix& m, double s) {
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] *= s;
}

template <typename T>
void append_raw(std::string& out, const T* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(T));
}

}  // namespace

std::string QuantAccess::image(const QuantizedLstm& q) {
  std::string out;
  const std::size_t dims[3] = {q.input_dim_, q.hidden_dim_, q.layers_.size()};
  append_raw(out, dims, 3);
  for (const auto& l : q.layers_) {
    const std::size_t shape[2] = {l.input, l.hidden};
    append_raw(out, shape, 2);
    append_raw(out, l.sw_x, 4);
    append_raw(out, l.sw_h, 4);
    append_raw(out, &l.sx, 1);
    append_raw(out, &l.sh, 1);
    append_raw(out, l.bias.data(), l.bias.size());
    for (const auto* v : {&l.wx, &l.wh}) append_raw(out, v->data(), v->size());
    for (const auto* v : {&l.wx_row_sums, &l.wh_row_sums}) {
      append_raw(out, v->data(), v->size());
    }
  }
  append_raw(out, q.head_w_.data(), q.head_w_.size());
  append_raw(out, &q.head_b_, 1);
  return out;
}

void Grads::zero() {
  dw.zero();
  db.zero();
}

LstmTrace lstm_forward(const LstmLayer& layer, const std::vector<double>& xs,
                       std::size_t steps) {
  const std::size_t H = layer.hidden_dim();
  const std::size_t I = layer.input_dim();
  if (xs.size() != steps * I) {
    throw std::invalid_argument("reference::lstm_forward: input size mismatch");
  }
  if (steps == 0) throw std::invalid_argument("reference::lstm_forward: empty sequence");

  LstmTrace tr;
  tr.steps = steps;
  tr.inputs = xs;
  tr.gates.assign(steps * 4 * H, 0.0);
  tr.cells.assign(steps * H, 0.0);
  tr.hiddens.assign(steps * H, 0.0);

  std::vector<double> zin(I + H, 0.0);  // [x_t ; h_{t-1}]
  std::vector<double> z(4 * H, 0.0);

  for (std::size_t t = 0; t < steps; ++t) {
    std::memcpy(zin.data(), xs.data() + t * I, I * sizeof(double));
    if (t > 0) {
      std::memcpy(zin.data() + I, tr.hiddens.data() + (t - 1) * H, H * sizeof(double));
    } else {
      std::memset(zin.data() + I, 0, H * sizeof(double));
    }
    for (std::size_t k = 0; k < 4 * H; ++k) z[k] = layer.bias()(k, 0);
    gemv_acc(layer.weights(), zin.data(), z.data());

    double* gate = tr.gates.data() + t * 4 * H;
    double* c = tr.cells.data() + t * H;
    double* h = tr.hiddens.data() + t * H;
    const double* c_prev = t > 0 ? tr.cells.data() + (t - 1) * H : nullptr;
    for (std::size_t k = 0; k < H; ++k) {
      const double i_g = sigmoid(z[k]);
      const double f_g = sigmoid(z[H + k]);
      const double g_g = std::tanh(z[2 * H + k]);
      const double o_g = sigmoid(z[3 * H + k]);
      gate[k] = i_g;
      gate[H + k] = f_g;
      gate[2 * H + k] = g_g;
      gate[3 * H + k] = o_g;
      const double cp = c_prev ? c_prev[k] : 0.0;
      c[k] = f_g * cp + i_g * g_g;
      h[k] = o_g * std::tanh(c[k]);
    }
  }
  return tr;
}

void gemv_acc(const Matrix& m, const double* x, double* y) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* mr = m.row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += mr[c] * x[c];
    y[r] += acc;
  }
}

void gemv_t_acc(const Matrix& m, const double* x, double* y) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* mr = m.row(r);
    const double xr = x[r];
    for (std::size_t c = 0; c < cols; ++c) y[c] += mr[c] * xr;
  }
}

void rank1_acc(Matrix& m, double alpha, const double* x, const double* y) {
  const std::size_t rows = m.rows();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < rows; ++r) {
    double* mr = m.row(r);
    const double ax = alpha * x[r];
    for (std::size_t c = 0; c < cols; ++c) mr[c] += ax * y[c];
  }
}

std::vector<double> dense_forward(const DenseLayer& layer,
                                  const std::vector<double>& x) {
  if (x.size() != layer.input_dim()) {
    throw std::invalid_argument("reference::dense_forward: input size mismatch");
  }
  std::vector<double> y(layer.output_dim());
  for (std::size_t r = 0; r < y.size(); ++r) y[r] = layer.bias()(r, 0);
  gemv_acc(layer.weights(), x.data(), y.data());
  return y;
}

std::vector<double> dense_backward(const DenseLayer& layer, Grads& grads,
                                   const std::vector<double>& x,
                                   const std::vector<double>& dy) {
  if (x.size() != layer.input_dim() || dy.size() != layer.output_dim()) {
    throw std::invalid_argument("reference::dense_backward: size mismatch");
  }
  rank1_acc(grads.dw, 1.0, dy.data(), x.data());
  for (std::size_t r = 0; r < dy.size(); ++r) grads.db(r, 0) += dy[r];
  std::vector<double> dx(layer.input_dim(), 0.0);
  gemv_t_acc(layer.weights(), dy.data(), dx.data());
  return dx;
}

void lstm_backward(const LstmLayer& layer, Grads& grads, const LstmTrace& trace,
                   const std::vector<double>& dh_last, std::vector<double>* dx) {
  const std::size_t H = layer.hidden_dim();
  if (dh_last.size() != H) {
    throw std::invalid_argument("reference::lstm_backward: dh_last size mismatch");
  }
  std::vector<double> dh_seq(trace.steps * H, 0.0);
  std::copy(dh_last.begin(), dh_last.end(),
            dh_seq.end() - static_cast<std::ptrdiff_t>(H));
  lstm_backward_seq(layer, grads, trace, dh_seq, dx);
}

void lstm_backward_seq(const LstmLayer& layer, Grads& grads, const LstmTrace& trace,
                       const std::vector<double>& dh_seq, std::vector<double>* dx) {
  const std::size_t H = layer.hidden_dim();
  const std::size_t I = layer.input_dim();
  const std::size_t steps = trace.steps;
  if (dh_seq.size() != steps * H) {
    throw std::invalid_argument("reference::lstm_backward_seq: dh_seq size mismatch");
  }
  if (dx) dx->assign(steps * I, 0.0);

  // d(loss)/d(h_t): the recurrent flow plus the per-step injection.
  std::vector<double> dh(dh_seq.end() - static_cast<std::ptrdiff_t>(H), dh_seq.end());
  std::vector<double> dc(H, 0.0);        // d(loss)/d(c_t)
  std::vector<double> dz(4 * H, 0.0);    // d(loss)/d(z_t) (pre-activation)
  std::vector<double> dzin(I + H, 0.0);  // d(loss)/d([x_t ; h_{t-1}])
  std::vector<double> zin(I + H, 0.0);

  for (std::size_t t = steps; t-- > 0;) {
    const double* gate = trace.gates.data() + t * 4 * H;
    const double* c = trace.cells.data() + t * H;
    const double* c_prev = t > 0 ? trace.cells.data() + (t - 1) * H : nullptr;

    for (std::size_t k = 0; k < H; ++k) {
      const double i_g = gate[k];
      const double f_g = gate[H + k];
      const double g_g = gate[2 * H + k];
      const double o_g = gate[3 * H + k];
      const double tanh_c = std::tanh(c[k]);
      // h = o * tanh(c)
      const double dct = dc[k] + dh[k] * o_g * (1.0 - tanh_c * tanh_c);
      const double cp = c_prev ? c_prev[k] : 0.0;
      dz[k] = dct * g_g * i_g * (1.0 - i_g);              // input gate
      dz[H + k] = dct * cp * f_g * (1.0 - f_g);           // forget gate
      dz[2 * H + k] = dct * i_g * (1.0 - g_g * g_g);      // candidate
      dz[3 * H + k] = dh[k] * tanh_c * o_g * (1.0 - o_g); // output gate
      dc[k] = dct * f_g;                                  // flows to c_{t-1}
    }

    // Parameter gradients: dw += dz * zin^T, db += dz.
    std::memcpy(zin.data(), trace.inputs.data() + t * I, I * sizeof(double));
    if (t > 0) {
      std::memcpy(zin.data() + I, trace.hiddens.data() + (t - 1) * H,
                  H * sizeof(double));
    } else {
      std::memset(zin.data() + I, 0, H * sizeof(double));
    }
    rank1_acc(grads.dw, 1.0, dz.data(), zin.data());
    for (std::size_t k = 0; k < 4 * H; ++k) grads.db(k, 0) += dz[k];

    // Input-side gradients: dzin = W^T dz.
    std::fill(dzin.begin(), dzin.end(), 0.0);
    gemv_t_acc(layer.weights(), dz.data(), dzin.data());
    if (dx) {
      std::memcpy(dx->data() + t * I, dzin.data(), I * sizeof(double));
    }
    // dh for the previous step: recurrent flow through zin plus that step's
    // own injection from the layer above.
    std::memcpy(dh.data(), dzin.data() + I, H * sizeof(double));
    if (t > 0) {
      const double* inject = dh_seq.data() + (t - 1) * H;
      for (std::size_t k = 0; k < H; ++k) dh[k] += inject[k];
    }
  }
}

double logit(const LstmClassifier& model, const FeatureSequence& x) {
  std::vector<LstmTrace> traces;
  return forward_logit(copy_layers(model), model.head_layer(), x, traces);
}

CalibrationPass calibration_pass(const LstmClassifier& model,
                                 const std::vector<FeatureSequence>& xs) {
  const std::vector<LstmLayer> layers = copy_layers(model);
  CalibrationPass pass;
  pass.max_input.assign(layers.size(), 0.0);
  pass.max_hidden.assign(layers.size(), 0.0);
  const auto fold = [](double& best, const std::vector<double>& v) {
    for (double x : v) best = std::max(best, std::abs(x));
  };
  for (const auto& x : xs) {
    std::vector<LstmTrace> traces;
    pass.logits.push_back(forward_logit(layers, model.head_layer(), x, traces));
    for (std::size_t l = 0; l < layers.size(); ++l) {
      fold(pass.max_input[l], traces[l].inputs);
      fold(pass.max_hidden[l], traces[l].hiddens);
    }
  }
  return pass;
}

double loss_and_input_gradient(const LstmClassifier& model, const FeatureSequence& x,
                               int target_label, FeatureSequence* dx) {
  const std::vector<LstmLayer> layers = copy_layers(model);
  const DenseLayer& head = model.head_layer();
  std::vector<LstmTrace> traces;
  const double z = forward_logit(layers, head, x, traces);
  double dlogit = 0.0;
  const double loss = sigmoid_bce_loss(z, target_label, &dlogit);
  if (dx) {
    std::vector<Grads> grads = grads_of(layers);
    Grads head_grads(head);
    std::vector<double> dx_flat;
    backward_from_logit(layers, head, grads, head_grads, traces, dlogit, &dx_flat);
    dx->steps = x.steps;
    dx->dim = x.dim;
    dx->values = std::move(dx_flat);
  }
  return loss;
}

TrainReport train(LstmClassifier& model, const std::vector<FeatureSequence>& xs,
                  const std::vector<int>& ys, std::size_t epochs) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("reference::train: bad dataset");
  }
  std::vector<LstmLayer>& layers = ClassifierAccess::layers(model);
  DenseLayer& head = ClassifierAccess::head(model);
  const LstmClassifierConfig& cfg = model.config();
  TrainReport report;
  Rng shuffle_rng(0xc1a551f1e5ULL);  // LstmClassifier::train's shuffle seed

  std::vector<Grads> grads = grads_of(layers);
  Grads head_grads(head);
  Adam optimizer(AdamConfig{cfg.learning_rate});
  for (std::size_t l = 0; l < layers.size(); ++l) {
    optimizer.attach(&layers[l].weights(), &grads[l].dw);
    optimizer.attach(&layers[l].bias(), &grads[l].db);
  }
  optimizer.attach(&head.weights(), &head_grads.dw);
  optimizer.attach(&head.bias(), &head_grads.db);

  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    shuffle_rng.shuffle(order);
    double total_loss = 0.0;
    std::size_t correct = 0;

    for (std::size_t start = 0; start < order.size(); start += cfg.batch_size) {
      const std::size_t end = std::min(order.size(), start + cfg.batch_size);
      const double inv_batch = 1.0 / static_cast<double>(end - start);
      for (auto& g : grads) g.zero();
      head_grads.zero();

      // Each chunk accumulates loss and gradients into fresh zeroed partials;
      // the partials fold back in chunk order, as LstmClassifier::train folds
      // its chunk buffers.
      for (std::size_t lo = start; lo < end; lo += kernels::kLanes) {
        const std::size_t hi = std::min(end, lo + kernels::kLanes);
        std::vector<Grads> chunk_grads = grads_of(layers);
        Grads chunk_head(head);
        double chunk_loss = 0.0;
        for (std::size_t k = lo; k < hi; ++k) {
          const int y = ys[order[k]];
          std::vector<LstmTrace> traces;
          const double z = forward_logit(layers, head, xs[order[k]], traces);
          double dlogit = 0.0;
          chunk_loss += sigmoid_bce_loss(z, y, &dlogit);
          if ((z >= 0.0) == (y == 1)) ++correct;
          backward_from_logit(layers, head, chunk_grads, chunk_head, traces,
                              dlogit * inv_batch, nullptr);
        }
        total_loss += chunk_loss;
        for (std::size_t l = 0; l < layers.size(); ++l) {
          grads[l].dw.axpy(1.0, chunk_grads[l].dw);
          grads[l].db.axpy(1.0, chunk_grads[l].db);
        }
        head_grads.dw.axpy(1.0, chunk_head.dw);
        head_grads.db.axpy(1.0, chunk_head.db);
      }
      // Global-norm clip: head dw + db first, then each layer's dw + db.
      double norm_sq = head_grads.dw.norm_sq() + head_grads.db.norm_sq();
      for (const auto& g : grads) norm_sq += g.dw.norm_sq() + g.db.norm_sq();
      const double norm = std::sqrt(norm_sq);
      if (cfg.grad_clip > 0.0 && norm > cfg.grad_clip) {
        const double s = cfg.grad_clip / norm;
        scale(head_grads.dw, s);
        scale(head_grads.db, s);
        for (auto& g : grads) {
          scale(g.dw, s);
          scale(g.db, s);
        }
      }
      optimizer.step();
    }

    report.epoch_loss.push_back(total_loss / static_cast<double>(xs.size()));
    report.epoch_accuracy.push_back(static_cast<double>(correct) /
                                    static_cast<double>(xs.size()));
  }
  ClassifierAccess::rebuild_packs(model);
  return report;
}

}  // namespace trajkit::nn::reference
