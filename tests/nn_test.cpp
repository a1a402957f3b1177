// Neural-network library: matrix ops, LSTM forward/backward gradient checks
// against finite differences (parameters AND inputs, single and stacked
// layers; the backward passes are the per-sample BPTT oracle in
// tests/reference that the batched kernels match bitwise), Adam convergence,
// classifier learning and serialisation.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/adam.hpp"
#include "nn/classifier.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "nn/matrix.hpp"
#include "reference/nn_reference.hpp"

namespace trajkit::nn {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.row(0)[1], -2.0);
}

TEST(Matrix, GemvAccumulates) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const double x[2] = {1.0, -1.0};
  double y[2] = {10.0, 10.0};
  reference::gemv_acc(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 10 - 1);
  EXPECT_DOUBLE_EQ(y[1], 10 - 1);
}

TEST(Matrix, GemvTransposedAccumulates) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(0, 1) = 2;
  m(1, 0) = 3;
  m(1, 1) = 4;
  const double x[2] = {1.0, 1.0};
  double y[2] = {0.0, 0.0};
  reference::gemv_t_acc(m, x, y);
  EXPECT_DOUBLE_EQ(y[0], 4.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
}

TEST(Matrix, Rank1Accumulates) {
  Matrix m(2, 2, 0.0);
  const double x[2] = {1.0, 2.0};
  const double y[2] = {3.0, 4.0};
  reference::rank1_acc(m, 0.5, x, y);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
}

TEST(Matrix, AxpyAndNorm) {
  Matrix a(1, 3, 1.0);
  Matrix b(1, 3, 2.0);
  a.axpy(0.5, b);
  EXPECT_DOUBLE_EQ(a(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.norm_sq(), 12.0);
  Matrix wrong(2, 2);
  EXPECT_THROW(a.axpy(1.0, wrong), std::invalid_argument);
}

TEST(Sigmoid, StableAtExtremes) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(SigmoidBce, LossAndGradient) {
  double g = 0.0;
  const double l1 = sigmoid_bce_loss(0.0, 1, &g);
  EXPECT_NEAR(l1, std::log(2.0), 1e-12);
  EXPECT_NEAR(g, -0.5, 1e-12);
  const double l0 = sigmoid_bce_loss(0.0, 0, &g);
  EXPECT_NEAR(l0, std::log(2.0), 1e-12);
  EXPECT_NEAR(g, 0.5, 1e-12);
  // Large logits do not overflow.
  EXPECT_TRUE(std::isfinite(sigmoid_bce_loss(1000.0, 0, &g)));
}

TEST(Dense, ForwardBackwardGradientCheck) {
  Rng rng(1);
  DenseLayer layer(3, 2, rng);
  const std::vector<double> x = {0.5, -1.0, 2.0};
  const std::vector<double> dy = {1.0, -0.5};

  reference::Grads grads(layer);
  const auto y0 = reference::dense_forward(layer, x);
  const auto dx = reference::dense_backward(layer, grads, x, dy);

  // Loss L = dy . y; finite-difference the weights.
  auto loss = [&] {
    const auto y = reference::dense_forward(layer, x);
    return dy[0] * y[0] + dy[1] * y[1];
  };
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double save = layer.weights()(r, c);
      layer.weights()(r, c) = save + eps;
      const double up = loss();
      layer.weights()(r, c) = save - eps;
      const double down = loss();
      layer.weights()(r, c) = save;
      EXPECT_NEAR(grads.dw(r, c), (up - down) / (2 * eps), 1e-6);
    }
  }
  // Input gradient: dL/dx = W^T dy.
  for (std::size_t c = 0; c < 3; ++c) {
    double expected = 0.0;
    for (std::size_t r = 0; r < 2; ++r) expected += layer.weights()(r, c) * dy[r];
    EXPECT_NEAR(dx[c], expected, 1e-12);
  }
  (void)y0;
}

// --------------------------------------------------------------------------
// LSTM gradient checks.

std::vector<double> random_sequence(Rng& rng, std::size_t steps, std::size_t dim) {
  std::vector<double> xs(steps * dim);
  for (auto& v : xs) v = rng.uniform(-1, 1);
  return xs;
}

/// Scalar loss: dot(final hidden state, w).
double lstm_loss(const LstmLayer& layer, const std::vector<double>& xs,
                 std::size_t steps, const std::vector<double>& w) {
  const auto trace = reference::lstm_forward(layer, xs, steps);
  const std::size_t h = layer.hidden_dim();
  double total = 0.0;
  for (std::size_t k = 0; k < h; ++k) {
    total += w[k] * trace.hiddens[(steps - 1) * h + k];
  }
  return total;
}

TEST(Lstm, ParameterGradientMatchesFiniteDifference) {
  Rng rng(2);
  LstmLayer layer(2, 4, rng);
  const std::size_t steps = 6;
  const auto xs = random_sequence(rng, steps, 2);
  std::vector<double> w(4);
  for (auto& v : w) v = rng.uniform(-1, 1);

  reference::Grads grads(layer);
  const auto trace = reference::lstm_forward(layer, xs, steps);
  reference::lstm_backward(layer, grads, trace, w, nullptr);

  const double eps = 1e-6;
  // Sample a spread of weight entries (full sweep is slow and redundant).
  for (std::size_t idx = 0; idx < layer.weights().size(); idx += 7) {
    const std::size_t r = idx / layer.weights().cols();
    const std::size_t c = idx % layer.weights().cols();
    const double save = layer.weights()(r, c);
    layer.weights()(r, c) = save + eps;
    const double up = lstm_loss(layer, xs, steps, w);
    layer.weights()(r, c) = save - eps;
    const double down = lstm_loss(layer, xs, steps, w);
    layer.weights()(r, c) = save;
    EXPECT_NEAR(grads.dw(r, c), (up - down) / (2 * eps), 1e-5)
        << "weight (" << r << "," << c << ")";
  }
  for (std::size_t r = 0; r < layer.bias().rows(); r += 3) {
    const double save = layer.bias()(r, 0);
    layer.bias()(r, 0) = save + eps;
    const double up = lstm_loss(layer, xs, steps, w);
    layer.bias()(r, 0) = save - eps;
    const double down = lstm_loss(layer, xs, steps, w);
    layer.bias()(r, 0) = save;
    EXPECT_NEAR(grads.db(r, 0), (up - down) / (2 * eps), 1e-5);
  }
}

TEST(Lstm, InputGradientMatchesFiniteDifference) {
  Rng rng(3);
  LstmLayer layer(3, 5, rng);
  const std::size_t steps = 5;
  auto xs = random_sequence(rng, steps, 3);
  std::vector<double> w(5);
  for (auto& v : w) v = rng.uniform(-1, 1);

  reference::Grads grads(layer);
  const auto trace = reference::lstm_forward(layer, xs, steps);
  std::vector<double> dx;
  reference::lstm_backward(layer, grads, trace, w, &dx);
  ASSERT_EQ(dx.size(), xs.size());

  const double eps = 1e-6;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double save = xs[i];
    xs[i] = save + eps;
    const double up = lstm_loss(layer, xs, steps, w);
    xs[i] = save - eps;
    const double down = lstm_loss(layer, xs, steps, w);
    xs[i] = save;
    EXPECT_NEAR(dx[i], (up - down) / (2 * eps), 1e-5) << "input " << i;
  }
}

TEST(Lstm, SequenceInjectionGradientMatchesFiniteDifference) {
  // lstm_backward_seq with gradient injected at every step (the stacked-LSTM
  // path).
  Rng rng(4);
  LstmLayer layer(2, 3, rng);
  const std::size_t steps = 4;
  auto xs = random_sequence(rng, steps, 2);
  std::vector<double> w(steps * 3);
  for (auto& v : w) v = rng.uniform(-1, 1);

  auto loss = [&](const std::vector<double>& input) {
    const auto trace = reference::lstm_forward(layer, input, steps);
    double total = 0.0;
    for (std::size_t i = 0; i < w.size(); ++i) total += w[i] * trace.hiddens[i];
    return total;
  };

  reference::Grads grads(layer);
  const auto trace = reference::lstm_forward(layer, xs, steps);
  std::vector<double> dx;
  reference::lstm_backward_seq(layer, grads, trace, w, &dx);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double save = xs[i];
    xs[i] = save + eps;
    const double up = loss(xs);
    xs[i] = save - eps;
    const double down = loss(xs);
    xs[i] = save;
    EXPECT_NEAR(dx[i], (up - down) / (2 * eps), 1e-5) << "input " << i;
  }
}

TEST(Lstm, RejectsBadShapes) {
  Rng rng(5);
  LstmLayer layer(2, 3, rng);
  EXPECT_THROW(reference::lstm_forward(layer, {1.0, 2.0, 3.0}, 2),
               std::invalid_argument);
  EXPECT_THROW(reference::lstm_forward(layer, {}, 0), std::invalid_argument);
  const auto trace = reference::lstm_forward(layer, {1, 2, 3, 4}, 2);
  reference::Grads grads(layer);
  EXPECT_THROW(reference::lstm_backward(layer, grads, trace, {1.0}, nullptr),
               std::invalid_argument);
}

TEST(Adam, MinimisesQuadratic) {
  // One-parameter problem: minimise (x - 3)^2.
  Matrix x(1, 1, 0.0);
  Matrix g(1, 1, 0.0);
  Adam opt(AdamConfig{0.1});
  opt.attach(&x, &g);
  for (int i = 0; i < 500; ++i) {
    g(0, 0) = 2.0 * (x(0, 0) - 3.0);
    opt.step();
  }
  EXPECT_NEAR(x(0, 0), 3.0, 1e-3);
}

TEST(Adam, AttachValidatesShapes) {
  Matrix x(1, 2);
  Matrix g(2, 1);
  Adam opt;
  EXPECT_THROW(opt.attach(&x, &g), std::invalid_argument);
  EXPECT_THROW(opt.attach(nullptr, &g), std::invalid_argument);
}

// --------------------------------------------------------------------------
// Classifier.

FeatureSequence make_seq(const std::vector<double>& values, std::size_t dim) {
  FeatureSequence f;
  f.dim = dim;
  f.steps = values.size() / dim;
  f.values = values;
  return f;
}

/// Toy task: class 1 sequences trend upward, class 0 downward.
void make_toy_dataset(Rng& rng, std::size_t count, std::size_t steps,
                      std::vector<FeatureSequence>& xs, std::vector<int>& ys) {
  for (std::size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(i % 2);
    const double slope = label ? 0.1 : -0.1;
    std::vector<double> v;
    double level = rng.uniform(-0.3, 0.3);
    for (std::size_t t = 0; t < steps; ++t) {
      level += slope + rng.normal(0.0, 0.03);
      v.push_back(level);
      v.push_back(rng.normal(0.0, 0.1));
    }
    xs.push_back(make_seq(v, 2));
    ys.push_back(label);
  }
}

TEST(LstmClassifier, LearnsToyTrendTask) {
  Rng rng(6);
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  make_toy_dataset(rng, 120, 12, xs, ys);

  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 8;
  cfg.learning_rate = 5e-3;
  LstmClassifier model(cfg, 1);
  const auto report = model.train(xs, ys, 25);
  EXPECT_GT(report.epoch_accuracy.back(), 0.95);

  std::vector<FeatureSequence> test_xs;
  std::vector<int> test_ys;
  make_toy_dataset(rng, 40, 12, test_xs, test_ys);
  int correct = 0;
  for (std::size_t i = 0; i < test_xs.size(); ++i) {
    correct += model.predict(test_xs[i]) == test_ys[i];
  }
  EXPECT_GT(correct, 36);  // > 90%
}

TEST(LstmClassifier, InputGradientMatchesFiniteDifference) {
  Rng rng(7);
  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 6;
  cfg.num_layers = 2;  // exercise the stacked path
  LstmClassifier model(cfg, 3);

  auto x = make_seq(random_sequence(rng, 5, 2), 2);
  FeatureSequence dx;
  const double loss = model.loss_and_input_gradient(x, 1, &dx);
  EXPECT_GT(loss, 0.0);
  ASSERT_EQ(dx.values.size(), x.values.size());

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.values.size(); ++i) {
    const double save = x.values[i];
    x.values[i] = save + eps;
    const double up = model.loss_and_input_gradient(x, 1, nullptr);
    x.values[i] = save - eps;
    const double down = model.loss_and_input_gradient(x, 1, nullptr);
    x.values[i] = save;
    EXPECT_NEAR(dx.values[i], (up - down) / (2 * eps), 1e-5) << "feature " << i;
  }
}

TEST(LstmClassifier, PredictProbaIsCalibratedToLoss) {
  Rng rng(8);
  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 4;
  LstmClassifier model(cfg, 4);
  const auto x = make_seq(random_sequence(rng, 6, 2), 2);
  const double p = model.predict_proba(x);
  const double ce = model.loss_and_input_gradient(x, 1, nullptr);
  EXPECT_NEAR(p, std::exp(-ce), 1e-9);  // CE toward "real" = -log p(real)
}

TEST(LstmClassifier, TrainingIsDeterministic) {
  Rng rng(10);
  std::vector<FeatureSequence> xs;
  std::vector<int> ys;
  make_toy_dataset(rng, 40, 8, xs, ys);
  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 6;
  LstmClassifier a(cfg, 7);
  LstmClassifier b(cfg, 7);
  a.train(xs, ys, 5);
  b.train(xs, ys, 5);
  for (const auto& x : xs) {
    EXPECT_DOUBLE_EQ(a.predict_proba(x), b.predict_proba(x));
  }
}

TEST(LstmClassifier, SaveLoadRoundTrip) {
  Rng rng(9);
  LstmClassifierConfig cfg;
  cfg.input_dim = 2;
  cfg.hidden_dim = 5;
  cfg.num_layers = 2;
  LstmClassifier model(cfg, 5);

  const auto loaded = LstmClassifier::decode(model.image());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();

  for (int k = 0; k < 10; ++k) {
    const auto x = make_seq(random_sequence(rng, 7, 2), 2);
    EXPECT_NEAR(model.predict_proba(x), loaded.value().predict_proba(x), 1e-12);
  }
}

TEST(LstmClassifier, LoadRejectsGarbage) {
  EXPECT_FALSE(LstmClassifier::decode("not_a_model 1 2 3").has_value());
}

TEST(LstmClassifier, ValidatesConfigAndInputs) {
  LstmClassifierConfig cfg;
  cfg.num_layers = 0;
  EXPECT_THROW(LstmClassifier(cfg, 1), std::invalid_argument);

  LstmClassifierConfig ok;
  ok.input_dim = 2;
  ok.hidden_dim = 4;
  LstmClassifier model(ok, 1);
  const auto bad = make_seq({1, 2, 3}, 3);
  EXPECT_THROW(model.predict_proba(bad), std::invalid_argument);
  EXPECT_THROW(model.train({}, {}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit::nn
