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

  // One gather per uploaded point: every point that can lie in some C_H(R)
  // gets a slot, and its k match counts a row of this dense per-call array.
  // Each count is the number of the point's observations (a scan may repeat
  // a MAC) that match AP a's MAC inside its window.
  std::vector<std::uint32_t> point_counts;
  const auto on_point = [&](std::size_t slot, std::uint32_t q) {
    point_counts.resize((slot + 1) * k, 0);
    std::uint32_t* c = point_counts.data() + slot * k;
    for (const auto& obs : (*index_)[q].scan) {
      for (std::size_t a = 0; a < k; ++a) {
        c[a] += static_cast<std::uint32_t>((obs.mac == mac[a]) & (obs.rssi_dbm >= lo[a]) &
                                           (obs.rssi_dbm <= hi[a]));
      }
    }
  };

  // Reference-major accumulation.  For a fixed AP the per-reference additions
  // happen in C_O(r) order with the same operands as the Eq. 4 definition
  // (integer match count over |C_H(R)|, an order-free sum over the circle's
  // slots), so phi is bit-identical to sum_H theta_1 * theta_2 * RPD_H.
  std::vector<std::uint32_t> counts(k);
  const auto on_circle = [&](std::size_t i, const std::uint32_t* slots, std::size_t n) {
    const std::size_t h = refs[i];
    global_faults().check(kFaultRpdCount, static_cast<std::uint64_t>(h));
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t m = 0; m < n; ++m) {
      const std::uint32_t* c = point_counts.data() + slots[m] * k;
      for (std::size_t a = 0; a < k; ++a) counts[a] += c[a];
    }
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
  };
  index_->gather_circles(pos, refs, params_.rpd.counting_radius_m, on_point, on_circle);
  return out;
}

std::size_t ConfidenceEstimator::reference_count(const Enu& pos) const {
  return index_->count_within(pos, params_.reference_radius_m);
}

}  // namespace trajkit::wifi
