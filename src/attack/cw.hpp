// C&W-style adversarial trajectory generation (Sec. II-B).
//
// Starting from a reference trajectory T (a navigation route sample or a
// historical trajectory), gradient descent searches for a perturbation that
// makes the target LSTM classifier label the trajectory "real" while keeping
// it consistent with the road system:
//
//   navigation attack (Eq. 1):  loss = lambda * CE(f(T'), real) + DTW(T, T')
//   replay attack   (Eq. 2/3):  loss = lambda * CE(f(T'), real) + loss2,
//     loss2 = max( DTW(T,T'), 2*(MinD + delta) - DTW(T,T') )
//
// DTW is normalised (metres per alignment pair) so MinD matches the paper's
// per-metre thresholds.  Gradients flow through the feature encoder
// (analytic Jacobian) and through DTW (optimal-alignment subgradient); the
// perturbation is optimised with Adam, endpoints pinned (P_1 = S, P_n = D).
// lambda is adapted automatically: up while still classified fake, gently
// down once comfortably adversarial — the paper's "automatically adjusted"
// lambda_1/lambda_2.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/geo.hpp"
#include "nn/classifier.hpp"
#include "traj/features.hpp"

namespace trajkit::attack {

struct CwConfig {
  std::size_t iterations = 400;
  double learning_rate = 0.15;    ///< Adam step in metres
  std::uint64_t seed = 99;        ///< seeds the smooth replay initialisation
  double init_correlation = 0.997;  ///< smoothness of the replay start point
  std::size_t grad_smoothing = 0;   ///< optional [1/4,1/2,1/4] passes over the
                                    ///< gradient (ablation: trades attack power
                                    ///< for smoothness)
  double lambda_init = 20.0;
  double lambda_up = 1.08;        ///< multiplier while classified fake
  double lambda_down = 0.99;      ///< multiplier once comfortably real
  double lambda_min = 1e-2;
  double lambda_max = 1e5;
  double adversarial_margin = 0.9;  ///< "comfortably real" probability
  std::size_t history_stride = 25;  ///< record telemetry every N iterations
  /// Sakoe-Chiba band of the upper-bound pass of the inner loop's
  /// pruned-exact DTW (dtw_pruned, bit-identical to the full DP).  Any value
  /// is exact (the bound only controls pruning strength); small bands suit
  /// the attack loop, where the candidate stays a near-diagonal perturbation
  /// of the reference route, so the slope-corridor bound (band 0) is already
  /// tight.
  std::size_t dtw_band = 0;
};

/// One telemetry sample of an attack run (Fig. 3 series).
struct CwHistoryEntry {
  std::size_t iteration = 0;
  double seconds = 0.0;    ///< wall time since the attack started
  double dtw_norm = 0.0;   ///< normalised DTW of the current iterate
  double p_real = 0.0;     ///< classifier confidence in "real"
  double loss = 0.0;
  /// Normalised DTW of the best adversarial example found so far, or -1 while
  /// none exists — the quantity Fig. 3 plots (drops fast, then plateaus).
  double best_dtw = -1.0;
};

inline constexpr std::size_t kNeverAdversarial = static_cast<std::size_t>(-1);

struct CwResult {
  std::vector<Enu> points;      ///< best adversarial iterate (or last iterate)
  bool adversarial = false;     ///< classifier says "real" at the end
  double p_real = 0.0;
  double dtw_norm = 0.0;        ///< normalised DTW(T, T') of `points`
  std::size_t first_adversarial_iteration = kNeverAdversarial;
  std::vector<CwHistoryEntry> history;
};

class CwAttacker {
 public:
  /// `model` and `encoder` must outlive the attacker.  The encoder must be
  /// the one the target model was trained with.
  CwAttacker(const nn::LstmClassifier& model, const FeatureEncoder& encoder,
             CwConfig config = {});

  /// Navigation attack: pull T' toward the reference route sample while
  /// crossing the decision boundary (Eq. 1).
  CwResult forge_navigation(const std::vector<Enu>& reference) const;

  /// Replay attack: keep T' at normalised-DTW ~= min_d + delta from the
  /// historical trajectory (Eq. 2/3).
  CwResult forge_replay(const std::vector<Enu>& historical, double min_d,
                        double delta = 0.1) const;

  const CwConfig& config() const { return config_; }

 private:
  enum class LossKind { kNavigation, kReplay };
  CwResult run(const std::vector<Enu>& reference, LossKind kind, double min_d,
               double delta) const;

  const nn::LstmClassifier* model_;
  const FeatureEncoder* encoder_;
  CwConfig config_;
};

}  // namespace trajkit::attack
