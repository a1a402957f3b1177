#include "attack/cw.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>

#include "attack/replay.hpp"
#include "dtw/dtw.hpp"

namespace trajkit::attack {
namespace {

/// Minimal Adam state over a flat Enu vector.
struct EnuAdam {
  explicit EnuAdam(std::size_t n) : m(n, Enu{}), v(n, Enu{}) {}

  void step(std::vector<Enu>& x, const std::vector<Enu>& g, double lr) {
    ++t;
    const double c1 = 1.0 - std::pow(0.9, static_cast<double>(t));
    const double c2 = 1.0 - std::pow(0.999, static_cast<double>(t));
    for (std::size_t i = 0; i < x.size(); ++i) {
      m[i].east = 0.9 * m[i].east + 0.1 * g[i].east;
      m[i].north = 0.9 * m[i].north + 0.1 * g[i].north;
      v[i].east = 0.999 * v[i].east + 0.001 * g[i].east * g[i].east;
      v[i].north = 0.999 * v[i].north + 0.001 * g[i].north * g[i].north;
      x[i].east -= lr * (m[i].east / c1) / (std::sqrt(v[i].east / c2) + 1e-8);
      x[i].north -= lr * (m[i].north / c1) / (std::sqrt(v[i].north / c2) + 1e-8);
    }
  }

  std::vector<Enu> m;
  std::vector<Enu> v;
  std::size_t t = 0;
};

}  // namespace

CwAttacker::CwAttacker(const nn::LstmClassifier& model, const FeatureEncoder& encoder,
                       CwConfig config)
    : model_(&model), encoder_(&encoder), config_(config) {
  if (config_.iterations == 0) {
    throw std::invalid_argument("CwAttacker: need at least one iteration");
  }
}

CwResult CwAttacker::forge_navigation(const std::vector<Enu>& reference) const {
  return run(reference, LossKind::kNavigation, 0.0, 0.0);
}

CwResult CwAttacker::forge_replay(const std::vector<Enu>& historical, double min_d,
                                  double delta) const {
  if (min_d < 0.0) throw std::invalid_argument("forge_replay: min_d must be >= 0");
  return run(historical, LossKind::kReplay, min_d, delta);
}

CwResult CwAttacker::run(const std::vector<Enu>& reference, LossKind kind,
                         double min_d, double delta) const {
  if (reference.size() < 3) {
    throw std::invalid_argument("CwAttacker: reference needs >= 3 points");
  }
  const std::size_t n = reference.size();
  const auto start = std::chrono::steady_clock::now();
  auto elapsed_s = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };

  // Starting point.  For the replay scenario the iterate starts at a smooth
  // correlated perturbation already sitting at the target distance: gradient
  // descent then only nudges it across the decision boundary, which keeps
  // the motion statistics human-plausible (and the attack transferable to
  // models it never saw).  The navigation scenario starts on the route.
  std::vector<Enu> x(reference);
  if (kind == LossKind::kReplay) {
    Rng init_rng(config_.seed);
    x = smooth_replay_perturbation(reference, min_d + delta, init_rng,
                                   config_.init_correlation);
  }
  EnuAdam adam(n);
  double lambda = config_.lambda_init;

  CwResult result;
  result.points = x;
  double best_score = -1.0;  // selection score among adversarial iterates

  std::vector<Enu> grad(n, Enu{});
  std::vector<Enu> dpts_ce(n, Enu{});
  FeatureSequence dfeat;  // hoisted: keeps its buffer across iterations

  for (std::size_t iter = 0; iter < config_.iterations; ++iter) {
    const FeatureSequence feat = encoder_->encode(x);
    const double ce = model_->loss_and_input_gradient(feat, /*target=*/1, &dfeat);
    const double p_real = std::exp(-ce);

    std::fill(dpts_ce.begin(), dpts_ce.end(), Enu{});
    encoder_->backprop(x, dfeat, dpts_ce);

    std::fill(grad.begin(), grad.end(), Enu{});
    const double dtw_norm =
        dtw_normalized_gradient(reference, x, grad, config_.dtw_band);

    double dist_loss = dtw_norm;
    double dtw_sign = 1.0;
    if (kind == LossKind::kReplay) {
      // loss2 = max(D, 2*(min_d + delta) - D): V-shaped around min_d + delta.
      const double mirrored = 2.0 * (min_d + delta) - dtw_norm;
      if (mirrored > dtw_norm) {
        dist_loss = mirrored;
        dtw_sign = -1.0;
      }
    }
    const double total_loss = lambda * ce + dist_loss;

    for (std::size_t i = 0; i < n; ++i) {
      grad[i].east = dtw_sign * grad[i].east + lambda * dpts_ce[i].east;
      grad[i].north = dtw_sign * grad[i].north + lambda * dpts_ce[i].north;
    }
    // Low-pass the gradient: high-frequency point-wise updates would give
    // the forgery inhuman acceleration statistics that transfer models catch.
    for (std::size_t pass = 0; pass < config_.grad_smoothing; ++pass) {
      Enu prev = grad.front();
      for (std::size_t i = 1; i + 1 < n; ++i) {
        const Enu current = grad[i];
        grad[i] = prev * 0.25 + current * 0.5 + grad[i + 1] * 0.25;
        prev = current;
      }
    }
    // Endpoint constraint: P_1 = S and P_n = D stay fixed.
    grad.front() = Enu{};
    grad.back() = Enu{};

    adam.step(x, grad, config_.learning_rate);
    x.front() = reference.front();
    x.back() = reference.back();

    const bool adversarial = p_real >= 0.5;
    if (adversarial && result.first_adversarial_iteration == kNeverAdversarial) {
      result.first_adversarial_iteration = iter;
    }
    if (adversarial) {
      // Keep the adversarial iterate that best satisfies the route constraint.
      double score = 0.0;
      if (kind == LossKind::kNavigation) {
        score = 1.0 / (1.0 + dtw_norm);
      } else {
        const bool valid = dtw_norm >= min_d;
        score = (valid ? 2.0 : 1.0) /
                (1.0 + std::fabs(dtw_norm - (min_d + delta)));
      }
      if (score > best_score) {
        best_score = score;
        result.points = x;
        result.p_real = p_real;
        result.dtw_norm = dtw_norm;
        result.adversarial = true;
      }
    }

    // The paper's "automatically adjusted" lambda.
    if (!adversarial) {
      lambda = std::min(config_.lambda_max, lambda * config_.lambda_up);
    } else if (p_real > config_.adversarial_margin) {
      lambda = std::max(config_.lambda_min, lambda * config_.lambda_down);
    }

    if (iter % config_.history_stride == 0 || iter + 1 == config_.iterations) {
      const double best = result.adversarial ? result.dtw_norm : -1.0;
      result.history.push_back({iter, elapsed_s(), dtw_norm, p_real, total_loss, best});
    }
  }

  if (!result.adversarial) {
    // No adversarial iterate found: report the final state honestly.
    result.points = x;
    const FeatureSequence feat = encoder_->encode(result.points);
    result.p_real = model_->predict_proba(feat);
    result.dtw_norm = dtw_normalized(reference, result.points);
    result.adversarial = result.p_real >= 0.5;
  }
  return result;
}

}  // namespace trajkit::attack
