// Dynamic Time Warping between trajectories in the ENU plane.
//
// DTW is the trajectory-similarity metric used throughout the paper: in the
// navigation-attack loss (Eq. 1), the replay-attack loss2 (Eq. 2), the MinD
// lower-bound experiment, and the Fig. 3 iteration curves.
//
// Local cost is the Euclidean distance in metres.  Besides the value, the
// attack needs d DTW(T, T')/dT', which we compute as the subgradient along
// the optimal alignment path (the alignment is held fixed, each matched pair
// contributes the derivative of its Euclidean cost — the standard DTW
// subgradient).
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "geo/geo.hpp"

namespace trajkit {

/// One matched index pair of a DTW alignment.
struct DtwPair {
  std::size_t i = 0;  ///< index into the first sequence
  std::size_t j = 0;  ///< index into the second sequence
};

/// DTW value plus its optimal alignment path (monotone, from (0,0) to
/// (n-1, m-1)).
struct DtwResult {
  double distance = 0.0;
  std::vector<DtwPair> path;
};

/// Exact DTW with path recovery, accelerated by pruning: a cheap banded pass
/// first yields an upper bound UB on the distance, then the full DP skips
/// every cell whose running cost already exceeds UB (such a cell can never
/// lie on the optimal path, and — because the local cost is non-negative and
/// the DP uses only adds and mins — the retained cells' values and
/// back-pointers are untouched).  Distance AND path are bit-identical to the
/// unpruned DP (dtw_banded with the band disabled, the oracle in
/// tests/reference); `band_hint` only tunes how tight the initial bound is.
/// Every path-recovering caller in the library goes through here: the
/// attack's iterate stays close to its reference, the optimal corridor is
/// narrow, and most of the n*m plane prunes away.
DtwResult dtw_pruned(const std::vector<Enu>& a, const std::vector<Enu>& b,
                     std::size_t band_hint = 16);

/// DTW distance only (no path), O(min(n,m)) memory.  Early-abandoning:
/// exact whenever the true distance is <= abandon_above; otherwise some
/// value > abandon_above (possibly +inf — the DP prunes cells above the
/// threshold and abandons once a whole row exceeds it, which is sound
/// because every warping path crosses every row of the longer sequence and
/// path costs only grow).  The MinD fast leg passes its running minimum;
/// the default never abandons.
double dtw_distance(const std::vector<Enu>& a, const std::vector<Enu>& b,
                    double abandon_above = std::numeric_limits<double>::infinity());

/// Sakoe-Chiba banded DTW: alignment constrained to |i - j| <= band.
/// With band >= max(n, m) this is the full unpruned DP.  Used by the replay
/// check and the attack ablation.
DtwResult dtw_banded(const std::vector<Enu>& a, const std::vector<Enu>& b,
                     std::size_t band);

/// DTW normalised by the alignment-path length (metres per matched pair).
/// This is the "per-metre-class" quantity the paper's MinD thresholds
/// (1.2 / 1.5 / 1.4) are expressed in.
double dtw_normalized(const std::vector<Enu>& a, const std::vector<Enu>& b);

/// Normalised DTW of (a, b) and its subgradient w.r.t. b in one pass,
/// holding the optimal alignment fixed: each matched pair adds the
/// derivative of its Euclidean cost, scaled by 1 / path length, into `db`
/// (+=, must have b.size() entries).  Returns distance / path length as
/// distance * (1 / path length) — the C&W loss term's exact operation order.
/// `band_hint` is dtw_pruned's.
double dtw_normalized_gradient(const std::vector<Enu>& a, const std::vector<Enu>& b,
                               std::vector<Enu>& db, std::size_t band_hint = 16);

}  // namespace trajkit
