// RSSI probability distributions around historical points (Eq. 4) and the
// reliability weight theta_2 (Eq. 6).
//
// For a historical point H, the RSSIs of an AP observed inside the counting
// circle C_H(R) are treated as a discrete random variable;
// RPD_H^mac(x) = |{observations (mac, x) in scans of C_H(R)}| / |C_H(R)|.
// Observations are counted, not points: a scan that repeats a MAC at a
// matching RSSI contributes once per repeat.
//
// RpdEstimator is the plain definition: every call walks
// C_H(R) = within(H.pos, R).  Eq. 7 only ever needs RPD at the uploaded
// point's top-k (mac, rssi) pairs, so ConfidenceEstimator::point_confidence
// counts those pairs over the same neighbour set itself (confidence.hpp);
// tests hold the two equal bit for bit.  Nothing is cached.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "wifi/refindex.hpp"

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
  /// `index` must outlive the estimator.
  explicit RpdEstimator(const ReferenceIndex& index, RpdParams params = {});

  /// RPD_H^mac(x) of reference point `h` (Eq. 4), counting observations
  /// within rssi_tolerance_db of `rssi`.
  double rpd(std::size_t h, std::uint64_t mac, int rssi) const;
  /// |C_H(R)|, the Eq. 4 denominator.
  std::size_t counting_size(std::size_t h) const;
  double density(std::size_t h) const;
  double theta2(std::size_t h) const;
  /// theta_2 of a counting circle holding `neighbours` points (Eq. 6).
  double theta2_for(std::size_t neighbours) const;

  const RpdParams& params() const { return params_; }
  const ReferenceIndex& index() const { return *index_; }

 private:
  double density_for(std::size_t neighbours) const;

  const ReferenceIndex* index_;
  RpdParams params_;
};

}  // namespace trajkit::wifi
