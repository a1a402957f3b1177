// Crowdsourced reference-point store with spatial radius queries.
//
// The provider's dataset H = {H_1 ... H_k} (Sec. III-B): every point of every
// historical trajectory, with its reported GPS position and WiFi scan.  The
// detector asks two things per verified point: the reference points within r
// of the uploaded position (one within() query), and the Eq. 4 counting
// neighbours within R of each of them, which one gather_circles() pass over
// the points within r + R answers for all references at once.  The store is
// backed by a uniform hash grid sized to the typical query radius.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

  /// The circles of `radius` around several of this index's points at once
  /// (the Eq. 4 counting circles C_H(R) of the references H of one C_O(r)),
  /// without a grid walk per circle.  One pass over the union of the
  /// centres' cell windows gathers the points within
  /// max_c |centre_c - origin| + radius (+1 um) of `origin`, a superset of
  /// every circle by the triangle inequality, and calls `on_point(slot, i)`
  /// for each: slots are 0, 1, ... in gather order.  Then, for each c in
  /// order, it calls `on_circle(c, slots, n)` with the slots of exactly the
  /// points within() would return for (centers[c]'s position, `radius`):
  /// stored in a cell of that window and within `radius`, so points clamped
  /// into edge cells count as they do there.  Slots come in no particular
  /// order, so only order-free reductions (counts) should be taken over
  /// them.  Meant for centres near `origin`: the pass covers their windows'
  /// union.
  template <typename OnPoint, typename OnCircle>
  void gather_circles(const Enu& origin, const std::vector<std::size_t>& centers,
                      double radius, OnPoint&& on_point, OnCircle&& on_circle) const;

 private:
  /// Cells a query of `radius` around `center` walks: [x0, x1] x [y0, y1],
  /// clipped to the grid (empty when x0 > x1 or y0 > y1).
  struct Window {
    long x0, x1, y0, y1;
  };
  Window window(const Enu& center, double radius) const;

  /// Call `visitor(i)` for every point index within `radius` of `center`,
  /// in within()'s order.
  template <typename Visitor>
  void visit(const Enu& center, double radius, Visitor&& visitor) const;

  std::size_t cell_of(const Enu& p) const;

  std::vector<ReferencePoint> points_;
  double cell_size_m_;
  BoundingBox bounds_;
  std::size_t grid_w_ = 1;
  std::size_t grid_h_ = 1;
  std::vector<std::vector<std::uint32_t>> grid_;
};

inline ReferenceIndex::Window ReferenceIndex::window(const Enu& center,
                                                     double radius) const {
  // The query cell is not clamped: truncation toward zero, then +-reach,
  // then the clip to the grid.
  const auto reach = static_cast<long>(std::ceil(radius / cell_size_m_));
  const long ix = static_cast<long>((center.east - bounds_.min_east) / cell_size_m_);
  const long iy = static_cast<long>((center.north - bounds_.min_north) / cell_size_m_);
  return {std::max(ix - reach, 0L), std::min(ix + reach, static_cast<long>(grid_w_) - 1),
          std::max(iy - reach, 0L), std::min(iy + reach, static_cast<long>(grid_h_) - 1)};
}

template <typename OnPoint, typename OnCircle>
void ReferenceIndex::gather_circles(const Enu& origin, const std::vector<std::size_t>& centers,
                                    double radius, OnPoint&& on_point,
                                    OnCircle&& on_circle) const {
  // Each centre's window, the union's bounding box and the gather radius.
  std::vector<Window> windows(centers.size());
  Window box{static_cast<long>(grid_w_), -1, static_cast<long>(grid_h_), -1};
  double spread_sq = 0.0;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const Enu& center = points_[centers[c]].pos;
    const Window& win = windows[c] = window(center, radius);
    if (win.x0 > win.x1 || win.y0 > win.y1) continue;
    box = {std::min(box.x0, win.x0), std::max(box.x1, win.x1), std::min(box.y0, win.y0),
           std::max(box.y1, win.y1)};
    spread_sq = std::max(spread_sq, distance_sq(center, origin));
  }

  // Gather: every point stored in a cell of some window and within
  // spread + radius of the origin, with its stored cell, as flat arrays so
  // the per-centre pass below runs branch-free.  The 1 um slack absorbs the
  // rounding of the three distances.
  std::vector<double> east;
  std::vector<double> north;
  std::vector<std::int32_t> cell_x;  // stored cells lie in the grid, so fit
  std::vector<std::int32_t> cell_y;
  if (box.x0 <= box.x1) {
    const long box_w = box.x1 - box.x0 + 1;
    const auto box_offset = [&](long x, long y) {
      return static_cast<std::size_t>((y - box.y0) * box_w + (x - box.x0));
    };
    std::vector<char> in_union(box_offset(box.x1, box.y1) + 1, 0);
    for (const Window& win : windows) {
      for (long y = win.y0; y <= win.y1; ++y) {
        for (long x = win.x0; x <= win.x1; ++x) in_union[box_offset(x, y)] = 1;
      }
    }
    const double reach = std::sqrt(spread_sq) + radius + 1e-6;
    const double reach_sq = reach * reach;
    for (long y = box.y0; y <= box.y1; ++y) {
      for (long x = box.x0; x <= box.x1; ++x) {
        if (!in_union[box_offset(x, y)]) continue;
        for (std::uint32_t idx :
             grid_[static_cast<std::size_t>(y) * grid_w_ + static_cast<std::size_t>(x)]) {
          const Enu& p = points_[idx].pos;
          if (distance_sq(p, origin) > reach_sq) continue;
          on_point(east.size(), idx);
          east.push_back(p.east);
          north.push_back(p.north);
          cell_x.push_back(static_cast<std::int32_t>(x));
          cell_y.push_back(static_cast<std::int32_t>(y));
        }
      }
    }
  }

  // Partition: visit's own two tests per centre over the compact list.  The
  // squared distance is distance_sq's arithmetic, operand for operand, and
  // the build pins -ffp-contract=off, so the boundary falls where visit puts
  // it.
  const double radius_sq = radius * radius;
  std::vector<std::uint32_t> slots(east.size());
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const Window& win = windows[c];
    std::size_t n = 0;
    if (win.x0 <= win.x1 && win.y0 <= win.y1) {
      // Non-empty, so clipped to the grid: the bounds fit the cells' type.
      const auto x0 = static_cast<std::int32_t>(win.x0);
      const auto x1 = static_cast<std::int32_t>(win.x1);
      const auto y0 = static_cast<std::int32_t>(win.y0);
      const auto y1 = static_cast<std::int32_t>(win.y1);
      const Enu& center = points_[centers[c]].pos;
      for (std::size_t s = 0; s < east.size(); ++s) {
        const double de = east[s] - center.east;
        const double dn = north[s] - center.north;
        const bool in = (cell_x[s] >= x0) & (cell_x[s] <= x1) & (cell_y[s] >= y0) &
                        (cell_y[s] <= y1) & (de * de + dn * dn <= radius_sq);
        slots[n] = static_cast<std::uint32_t>(s);
        n += in;
      }
    }
    on_circle(c, slots.data(), n);
  }
}

}  // namespace trajkit::wifi
