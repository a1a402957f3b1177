// Per-RSSI confidence estimation (Eqs. 5 and 7).
//
// For an uploaded point O with its scan, every reference point H within the
// circle C_O(r) votes on each reported RSSI with weight
//   theta_1(H, O) — inverse-distance, normalised over C_O(r)   (Eq. 5)
//   theta_2(H)    — RPD-reliability from the counting density   (Eq. 6)
// and contribution RPD_H^mac(O.rssi).  The combined confidence is
//   Phi_O(O.rssi_i) = sum_H theta_1 * theta_2 * RPD_H^mac_i(O.rssi_i).  (Eq. 7)
//
// Eq. 7 reads RPD only at O's top-k (mac, rssi) pairs, so point_confidence
// counts exactly those pairs over each C_H(R) instead of histogramming every
// AP there.  Per uploaded point it makes one within() query for C_O(r) and
// one ReferenceIndex::count_circles() call, which gathers the points within
// r + R of O once, keeps their k match counts as columns, reads every
// |C_H(R)| and per-AP sum off a mask of within()'s own tests, and says which
// top-k APs each reference's own scan carries (num_refs).  theta_2 comes
// from a table of RpdEstimator::theta2_for built with the estimator.  The
// counts are integers summed over exactly within()'s neighbour set, so phi is
// bit-identical to the plain Eq. 4 definition, and the cost of a point
// depends only on the reference data around it, never on what earlier
// requests touched.
#pragma once

#include <cstdint>
#include <vector>

#include "wifi/refindex.hpp"
#include "wifi/rpd.hpp"

namespace trajkit::wifi {

/// Fault point (common/fault) checked once per reference point per uploaded
/// point, keyed by the reference-point index `h` with attempt 0: a poisoned
/// reference point fails on every attempt, for every request, on every
/// thread count, so chaos schedules replay bit-identically.
inline constexpr const char* kFaultRpdCount = "wifi.rpd_count";

struct ConfidenceParams {
  double reference_radius_m = 2.5;  ///< the paper's r (peak accuracy at 2.5 m)
  std::size_t top_k = 8;            ///< strongest APs considered per point
  bool use_theta1 = true;           ///< ablation switches
  bool use_theta2 = true;
  RpdParams rpd;
};

/// Confidence verdict for one AP of one uploaded point.
struct ApConfidence {
  std::uint64_t mac = 0;
  int rssi_dbm = 0;
  double phi = 0.0;          ///< Eq. 7 confidence
  std::size_t num_refs = 0;  ///< reference points that observed this AP
};

class ConfidenceEstimator {
 public:
  /// `index` must outlive the estimator.
  ConfidenceEstimator(const ReferenceIndex& index, ConfidenceParams params = {});

  /// Confidences of the top-k strongest APs of `scan` at claimed position
  /// `pos`.  Returns exactly min(top_k, scan.size()) entries in scan order.
  /// `exclude_traj` removes one source trajectory's own points from the
  /// reference circle (leave-own-trajectory-out for historical uploads).
  std::vector<ApConfidence> point_confidence(
      const Enu& pos, const WifiScan& scan,
      std::uint32_t exclude_traj = kNoTrajectory) const;

  /// Number of reference points within r of `pos` (Fig. 5's density driver).
  std::size_t reference_count(const Enu& pos) const;

  /// theta_2 of a counting circle holding `neighbours` points: bitwise
  /// rpd().theta2_for(neighbours), read from a table built at construction
  /// for the first kTheta2TableSize counts.
  double theta2(std::size_t neighbours) const;

  /// Counting-circle sizes whose theta_2 the estimator tabulates.
  static constexpr std::size_t kTheta2TableSize = 1024;

  const ConfidenceParams& params() const { return params_; }
  const RpdEstimator& rpd() const { return rpd_; }

 private:
  const ReferenceIndex* index_;
  ConfidenceParams params_;
  RpdEstimator rpd_;
  std::vector<double> theta2_table_;
};

}  // namespace trajkit::wifi
