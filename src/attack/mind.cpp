#include "attack/mind.hpp"

#include <algorithm>
#include <stdexcept>

#include "dtw/dtw.hpp"

namespace trajkit::attack {

std::vector<std::vector<Enu>> mind_runs(const sim::TrajectorySimulator& simulator,
                                        Mode mode, double route_length_m,
                                        std::size_t repetitions, std::size_t points,
                                        double interval_s, Rng& rng) {
  if (repetitions < 2) {
    throw std::invalid_argument("estimate_mind: need >= 2 repetitions");
  }
  const auto route = simulator.random_route(mode, route_length_m, rng);

  std::vector<std::vector<Enu>> runs;
  runs.reserve(repetitions);
  for (std::size_t i = 0; i < repetitions; ++i) {
    const auto sim = simulator.simulate_on_route(route, mode, points, interval_s, rng);
    runs.push_back(sim.reported.to_enu(sim::sim_projection()));
  }
  return runs;
}

MindEstimate estimate_mind_over(const std::vector<std::vector<Enu>>& runs) {
  MindEstimate est;
  est.repetitions = runs.size();
  est.min_d = std::numeric_limits<double>::infinity();
  double total = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      const double d = dtw_normalized(runs[i], runs[j]);
      est.min_d = std::min(est.min_d, d);
      est.max_d = std::max(est.max_d, d);
      total += d;
      ++pairs;
    }
  }
  est.mean_d = total / static_cast<double>(pairs);
  return est;
}

double estimate_mind_fast(const std::vector<std::vector<Enu>>& runs) {
  double min_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < runs.size(); ++i) {
    for (std::size_t j = i + 1; j < runs.size(); ++j) {
      const std::size_t plen_max = runs[i].size() + runs[j].size() - 1;
      // Skip bound: normalised = raw / path_len with path_len <= plen_max, so
      // raw > min_d * plen_max means the pair cannot lower the minimum.  The
      // 1e-12 relative slack absorbs the rounding of the bound product — far
      // wider than a few ulps, far tighter than any real pairwise gap — so a
      // pair is only ever skipped when its normalised distance provably
      // rounds to >= min_d, keeping the minimum bitwise identical.
      const double bound = min_d == std::numeric_limits<double>::infinity()
                               ? min_d
                               : min_d * static_cast<double>(plen_max) *
                                     (1.0 + 1e-12);
      const double raw = dtw_distance(runs[i], runs[j], bound);
      if (raw > bound) continue;  // abandoned or provably above the minimum
      // Survivors need the path length for normalisation: the same
      // dtw_normalized call the reference leg makes.
      min_d = std::min(min_d, dtw_normalized(runs[i], runs[j]));
    }
  }
  return min_d;
}

MindEstimate estimate_mind(const sim::TrajectorySimulator& simulator, Mode mode,
                           double route_length_m, std::size_t repetitions,
                           std::size_t points, double interval_s, Rng& rng) {
  return estimate_mind_over(
      mind_runs(simulator, mode, route_length_m, repetitions, points, interval_s, rng));
}

double paper_mind(Mode mode) {
  switch (mode) {
    case Mode::kWalking: return 1.2;
    case Mode::kCycling: return 1.5;
    case Mode::kDriving: return 1.4;
  }
  return 1.2;
}

}  // namespace trajkit::attack
