// Crowdsourced reference-point store with spatial radius queries.
//
// The provider's dataset H = {H_1 ... H_k} (Sec. III-B): every point of every
// historical trajectory, with its reported GPS position and WiFi scan.  The
// detector issues two kinds of radius queries per verified point — reference
// points within r of the uploaded position, and RPD counting neighbours
// within R of each reference point — so the store is backed by a uniform
// hash grid sized to the typical query radius.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "geo/geo.hpp"
#include "wifi/scan.hpp"

namespace trajkit::wifi {

/// Sentinel trajectory id: "not part of any tracked trajectory".
inline constexpr std::uint32_t kNoTrajectory = 0xffffffffu;

/// One crowdsourced historical point.
struct ReferencePoint {
  Enu pos;        ///< reported (GPS-noisy) position
  WifiScan scan;  ///< RSSIs/MACs observed there
  std::uint32_t traj_id = kNoTrajectory;  ///< source trajectory (for
                                          ///< leave-own-trajectory-out queries)
};

class ReferenceIndex {
 public:
  /// Build over a fixed set of points; `cell_size_m` should be close to the
  /// largest common query radius (default suits r = 2.5 m, R = 3 m).
  explicit ReferenceIndex(std::vector<ReferencePoint> points, double cell_size_m = 4.0);

  /// Build with an explicit grid extent instead of the points' own bounding
  /// box.  within() returns candidates in grid order (cells row-major, then
  /// insertion order within a cell), and downstream confidence sums
  /// accumulate in that order — so a geo-shard holding a *slice* of a global
  /// reference set must index it under the global grid geometry
  /// (natural_bounds of the full set) to reproduce the unsharded float
  /// results bit for bit.  `bounds` need not contain every point; outliers
  /// clamp to edge cells exactly as the natural-bounds grid clamps its
  /// expansion margin.
  ReferenceIndex(std::vector<ReferencePoint> points, double cell_size_m,
                 const BoundingBox& bounds);

  /// The grid extent the single-argument constructor would derive for
  /// `points`: their bounding box expanded by 1 m.  Exposed so sharded
  /// slices can be indexed under the full set's geometry (see above).
  static BoundingBox natural_bounds(const std::vector<ReferencePoint>& points);

  /// The grid extent this index was built with.
  const BoundingBox& bounds() const { return bounds_; }

  std::size_t size() const { return points_.size(); }
  const ReferencePoint& operator[](std::size_t i) const { return points_[i]; }

  /// Indices of all points within `radius` of `center` (inclusive).
  /// `exclude_traj` drops points of one source trajectory — used when the
  /// verified upload is itself part of the historical store, so it does not
  /// self-certify (kNoTrajectory excludes nothing).
  std::vector<std::size_t> within(const Enu& center, double radius,
                                  std::uint32_t exclude_traj = kNoTrajectory) const;

  /// Number of points within `radius` of `center` — cheaper than within().
  std::size_t count_within(const Enu& center, double radius) const;

  /// Call `visitor(i)` for every point index within `radius` of `center`,
  /// in exactly within()'s order, without building a vector.
  template <typename Visitor>
  void visit(const Enu& center, double radius, Visitor&& visitor) const;

 private:
  std::size_t cell_of(const Enu& p) const;

  std::vector<ReferencePoint> points_;
  double cell_size_m_;
  BoundingBox bounds_;
  std::size_t grid_w_ = 1;
  std::size_t grid_h_ = 1;
  std::vector<std::vector<std::uint32_t>> grid_;
};

template <typename Visitor>
void ReferenceIndex::visit(const Enu& center, double radius, Visitor&& visitor) const {
  if (points_.empty()) return;
  const auto reach = static_cast<long>(std::ceil(radius / cell_size_m_));
  const long ix = static_cast<long>((center.east - bounds_.min_east) / cell_size_m_);
  const long iy = static_cast<long>((center.north - bounds_.min_north) / cell_size_m_);
  const double radius_sq = radius * radius;
  for (long dy = -reach; dy <= reach; ++dy) {
    const long y = iy + dy;
    if (y < 0 || y >= static_cast<long>(grid_h_)) continue;
    for (long dx = -reach; dx <= reach; ++dx) {
      const long x = ix + dx;
      if (x < 0 || x >= static_cast<long>(grid_w_)) continue;
      for (std::uint32_t idx :
           grid_[static_cast<std::size_t>(y) * grid_w_ + static_cast<std::size_t>(x)]) {
        if (distance_sq(points_[idx].pos, center) <= radius_sq) visitor(idx);
      }
    }
  }
}

}  // namespace trajkit::wifi
