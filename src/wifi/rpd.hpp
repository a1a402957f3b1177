// RSSI probability distributions around historical points (Eq. 4) and the
// reliability weight theta_2 (Eq. 6).
//
// For a historical point H, the RSSIs of an AP observed inside the counting
// circle C_H(R) are treated as a discrete random variable;
// RPD_H^mac(x) = |{observations (mac, x) in scans of C_H(R)}| / |C_H(R)|.
// Observations are counted, not points: a scan that repeats a MAC at a
// matching RSSI contributes once per repeat.
//
// Eq. 7 only ever needs RPD at the uploaded point's top-k (mac, rssi) pairs,
// so no RPD is materialised: ConfidenceEstimator::point_confidence counts
// those pairs over every C_H(R) of one upload point with one
// ReferenceIndex::count_circles() call (confidence.hpp).  RpdEstimator holds
// the parameters and theta_2; the plain per-point definition is a test
// oracle (tests/reference/wifi_reference.hpp) that the tests hold equal bit
// for bit.  Nothing is cached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace trajkit::wifi {

struct RpdParams {
  double counting_radius_m = 3.0;  ///< the paper's R = 6 sigma = 3 m
  int rssi_tolerance_db = 0;       ///< 0 = exact match (Eq. 4); >0 = smoothed
  double theta2_base = 0.9;        ///< the paper's 1/t = 0.9 in Eq. 6
};

/// Inert seam kept for servebench's timing decorator; the library never builds one.
struct RpdPointStats {};

/// Inert seam kept for servebench; the library never consults a cache.
class RpdStatsCache {
 public:
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
  };

  virtual ~RpdStatsCache() = default;
  virtual std::shared_ptr<const RpdPointStats> get_or_build(
      std::size_t h, const std::function<RpdPointStats()>& build) {
    (void)h;
    return std::make_shared<const RpdPointStats>(build());
  }
  virtual void invalidate(const std::vector<std::size_t>& keys) { (void)keys; }
  virtual CacheStats stats() const { return {}; }
};

/// Inert seam kept for servebench: holds nothing, counts nothing.
class DenseRpdStatsCache final : public RpdStatsCache {
 public:
  explicit DenseRpdStatsCache(std::size_t slots) { (void)slots; }
};

class RpdEstimator {
 public:
  explicit RpdEstimator(RpdParams params = {});

  /// theta_2 of a counting circle holding `neighbours` points (Eq. 6).
  double theta2_for(std::size_t neighbours) const;

  const RpdParams& params() const { return params_; }

 private:
  RpdParams params_;
};

}  // namespace trajkit::wifi
