#include "wifi/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "common/fault.hpp"

namespace trajkit::wifi {
namespace {

/// Reported positions carry GPS noise; two crowd reports can land on the same
/// coordinate, so the inverse-distance weight needs a floor.
constexpr double kMinDistanceM = 0.05;

}  // namespace

ConfidenceEstimator::ConfidenceEstimator(const ReferenceIndex& index,
                                         ConfidenceParams params)
    : index_(&index), params_(params), rpd_(index, params.rpd) {
  if (params_.reference_radius_m <= 0.0) {
    throw std::invalid_argument("ConfidenceEstimator: radius must be positive");
  }
  if (params_.top_k == 0) {
    throw std::invalid_argument("ConfidenceEstimator: top_k must be positive");
  }
}

std::vector<ApConfidence> ConfidenceEstimator::point_confidence(
    const Enu& pos, const WifiScan& scan, std::uint32_t exclude_traj) const {
  const auto refs = index_->within(pos, params_.reference_radius_m, exclude_traj);

  // theta_1 normalisation: sum of inverse distances over C_O(r).
  std::vector<double> inv_dist(refs.size());
  double inv_sum = 0.0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double d = std::max(distance((*index_)[refs[i]].pos, pos), kMinDistanceM);
    inv_dist[i] = 1.0 / d;
    inv_sum += inv_dist[i];
  }

  const std::size_t k = std::min(params_.top_k, scan.size());
  std::vector<ApConfidence> out(k);
  // Eq. 4 match window of each top-k AP, as flat arrays so the k compares
  // per neighbour observation vectorise.
  const int tol = params_.rpd.rssi_tolerance_db;
  std::vector<std::uint64_t> mac(k);
  std::vector<int> lo(k);
  std::vector<int> hi(k);
  for (std::size_t a = 0; a < k; ++a) {
    out[a].mac = mac[a] = scan[a].mac;
    out[a].rssi_dbm = scan[a].rssi_dbm;
    lo[a] = scan[a].rssi_dbm - tol;
    hi[a] = scan[a].rssi_dbm + tol;
  }

  // Per-call memo: neighbour index -> offset of its k match counts in
  // `memo_counts`.  Each count is the number of the neighbour's observations
  // (a scan may repeat a MAC) that match AP a's MAC inside its window.
  std::unordered_map<std::uint32_t, std::uint32_t> memo;
  memo.reserve(4 * refs.size());
  std::vector<std::uint32_t> memo_counts;
  const auto match_counts = [&](std::uint32_t q) {
    const auto [it, fresh] =
        memo.try_emplace(q, static_cast<std::uint32_t>(memo_counts.size()));
    if (fresh) {
      memo_counts.resize(memo_counts.size() + k, 0);
      std::uint32_t* c = memo_counts.data() + it->second;
      for (const auto& obs : (*index_)[q].scan) {
        for (std::size_t a = 0; a < k; ++a) {
          c[a] += static_cast<std::uint32_t>((obs.mac == mac[a]) &
                                             (obs.rssi_dbm >= lo[a]) &
                                             (obs.rssi_dbm <= hi[a]));
        }
      }
    }
    return memo_counts.data() + it->second;
  };

  // Reference-major accumulation.  For a fixed AP the per-reference additions
  // happen in C_O(r) order with the same operands as the Eq. 4 definition
  // (integer match count over |C_H(R)|), so phi is bit-identical to
  // sum_H theta_1 * theta_2 * RpdEstimator::rpd.
  std::vector<std::uint32_t> counts(k);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const std::size_t h = refs[i];
    global_faults().check(kFaultRpdCount, static_cast<std::uint64_t>(h));
    std::fill(counts.begin(), counts.end(), 0);
    std::size_t n = 0;
    index_->visit((*index_)[h].pos, params_.rpd.counting_radius_m, [&](std::uint32_t q) {
      ++n;
      const std::uint32_t* c = match_counts(q);
      for (std::size_t a = 0; a < k; ++a) counts[a] += c[a];
    });
    const double theta1 = params_.use_theta1
                              ? inv_dist[i] / inv_sum
                              : 1.0 / static_cast<double>(refs.size());
    const double theta2 = params_.use_theta2 ? rpd_.theta2_for(n) : 1.0;
    const WifiScan& ref_scan = (*index_)[h].scan;
    for (std::size_t a = 0; a < k; ++a) {
      ApConfidence& ac = out[a];
      int observed = 0;
      if (scan_lookup(ref_scan, ac.mac, observed)) ++ac.num_refs;
      const double rpd =
          n == 0 ? 0.0 : static_cast<double>(counts[a]) / static_cast<double>(n);
      ac.phi += theta1 * theta2 * rpd;
    }
  }
  return out;
}

std::size_t ConfidenceEstimator::reference_count(const Enu& pos) const {
  return index_->count_within(pos, params_.reference_radius_m);
}

}  // namespace trajkit::wifi
