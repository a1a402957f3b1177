// The plain Eq. 4 / Eq. 6 definitions, and the pooled per-cell RSSI mean,
// kept beside the tests.
//
// Every call walks C_H(R) = within(H.pos, R) and histograms nothing: it is
// the definition the library's direct counting
// (ConfidenceEstimator::point_confidence, one gather per uploaded point)
// must reproduce bit for bit, so wifi_test compares against this code.
// pooled_cell_mean is the definition the trim = 0 RobustCellAggregator
// path must reproduce bit for bit (poison_test, bench_poison).  None of it
// is part of traj_core: no serving or training path can reach it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "wifi/refindex.hpp"
#include "wifi/rpd.hpp"

namespace trajkit::wifi::reference {

/// RSSI of the first observation of `mac` within `scan`: returns true and
/// writes `out` when present (the definition of num_refs' "observed there").
bool scan_lookup(const WifiScan& scan, std::uint64_t mac, int& out);

/// Mean RSSI of every observation of `mac` over the points of `points` in
/// `pos`'s cell (floor(east / cell_size_m), floor(north / cell_size_m)):
/// an ingestion-order sum divided by the observation count.  nullopt when
/// the cell holds no such observation.
std::optional<double> pooled_cell_mean(const std::vector<ReferencePoint>& points,
                                       double cell_size_m, const Enu& pos,
                                       std::uint64_t mac);

class RpdOracle {
 public:
  /// `index` must outlive the oracle.  `params` are taken as given (the
  /// library's RpdEstimator validates them).
  RpdOracle(const ReferenceIndex& index, RpdParams params);

  /// RPD_H^mac(x) of reference point `h` (Eq. 4), counting observations
  /// within rssi_tolerance_db of `rssi`.
  double rpd(std::size_t h, std::uint64_t mac, int rssi) const;
  /// |C_H(R)|, the Eq. 4 denominator.
  std::size_t counting_size(std::size_t h) const;
  /// Points per square metre of C_H(R).
  double density(std::size_t h) const;
  /// theta_2 of `h` (Eq. 6).
  double theta2(std::size_t h) const;

 private:
  const ReferenceIndex* index_;
  RpdParams params_;
};

}  // namespace trajkit::wifi::reference
