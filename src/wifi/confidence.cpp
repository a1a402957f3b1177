#include "wifi/confidence.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/fault.hpp"

namespace trajkit::wifi {
namespace {

/// Reported positions carry GPS noise; two crowd reports can land on the same
/// coordinate, so the inverse-distance weight needs a floor.
constexpr double kMinDistanceM = 0.05;

}  // namespace

ConfidenceEstimator::ConfidenceEstimator(const ReferenceIndex& index,
                                         ConfidenceParams params)
    : index_(&index), params_(params), rpd_(params.rpd) {
  if (params_.reference_radius_m <= 0.0) {
    throw std::invalid_argument("ConfidenceEstimator: radius must be positive");
  }
  if (params_.top_k == 0) {
    throw std::invalid_argument("ConfidenceEstimator: top_k must be positive");
  }
  theta2_table_.resize(kTheta2TableSize);
  for (std::size_t n = 0; n < theta2_table_.size(); ++n) theta2_table_[n] = rpd_.theta2_for(n);
}

double ConfidenceEstimator::theta2(std::size_t neighbours) const {
  return neighbours < theta2_table_.size() ? theta2_table_[neighbours]
                                           : rpd_.theta2_for(neighbours);
}

std::vector<ApConfidence> ConfidenceEstimator::point_confidence(
    const Enu& pos, const WifiScan& scan, std::uint32_t exclude_traj) const {
  // Per-thread buffers, so a warm call allocates only C_O(r) and its result.
  struct Scratch {
    std::vector<double> inv_dist;
    std::vector<ReferenceIndex::MatchLane> lanes;
    ReferenceIndex::CircleCounts circles;
  };
  thread_local Scratch scratch;

  const auto refs = index_->within(pos, params_.reference_radius_m, exclude_traj);

  // theta_1 normalisation: sum of inverse distances over C_O(r).
  std::vector<double>& inv_dist = scratch.inv_dist;
  inv_dist.resize(refs.size());
  double inv_sum = 0.0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const double d = std::max(distance(index_->pos(refs[i]), pos), kMinDistanceM);
    inv_dist[i] = 1.0 / d;
    inv_sum += inv_dist[i];
  }

  // One Eq. 4 match window per top-k AP, counted over every C_H(R) at once.
  const std::size_t k = std::min(params_.top_k, scan.size());
  std::vector<ApConfidence> out(k);
  const std::int64_t tol = params_.rpd.rssi_tolerance_db;
  auto& lanes = scratch.lanes;
  lanes.resize(k);
  for (std::size_t a = 0; a < k; ++a) {
    out[a].mac = scan[a].mac;
    out[a].rssi_dbm = scan[a].rssi_dbm;
    lanes[a] = {scan[a].mac, scan[a].rssi_dbm - tol, scan[a].rssi_dbm + tol};
  }
  index_->count_circles(pos, refs, params_.rpd.counting_radius_m, lanes, scratch.circles);
  const auto& circles = scratch.circles;

  // Reference-major accumulation.  For a fixed AP the per-reference additions
  // happen in C_O(r) order with the same operands as the Eq. 4 definition
  // (integer match count over |C_H(R)|), so phi is bit-identical to
  // sum_H theta_1 * theta_2 * RPD_H.  num_refs counts the references whose
  // own scan carries the AP.
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const std::size_t h = refs[i];
    global_faults().check(kFaultRpdCount, static_cast<std::uint64_t>(h));
    const std::uint32_t n = circles.size(i);
    const double theta1 = params_.use_theta1
                              ? inv_dist[i] / inv_sum
                              : 1.0 / static_cast<double>(refs.size());
    const double theta2 = params_.use_theta2 ? this->theta2(n) : 1.0;
    for (std::size_t a = 0; a < k; ++a) {
      out[a].num_refs += circles.carries(i, a);
      const double rpd = n == 0 ? 0.0
                                : static_cast<double>(circles.matches(i, a)) /
                                      static_cast<double>(n);
      out[a].phi += theta1 * theta2 * rpd;
    }
  }
  return out;
}

std::size_t ConfidenceEstimator::reference_count(const Enu& pos) const {
  return index_->count_within(pos, params_.reference_radius_m);
}

}  // namespace trajkit::wifi
