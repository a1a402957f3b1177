// Crowdsourced reference-point store with spatial radius queries.
//
// The provider's dataset H = {H_1 ... H_k} (Sec. III-B): every point of every
// historical trajectory, with its reported GPS position and WiFi scan.  The
// detector asks two things per verified point: the reference points within r
// of the uploaded position (one within() query), and the Eq. 4 match counts
// over the circle of R around each of them, which one count_circles() call
// answers for all references at once from the points within r + R.  The
// store is backed by a uniform hash grid sized to the typical query radius.
//
// The points themselves are PointArrays (wifi/point_arrays.hpp), whose keys
// make an Eq. 4 match window of one MAC one contiguous key range and a match
// one unsigned compare per lane.  The index adds the grid.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "geo/geo.hpp"
#include "wifi/point_arrays.hpp"

namespace trajkit::wifi {

class ReferenceIndex : public PointArrays {
 public:
  /// Grid `points` (a vector converts: PointArrays' refusals apply);
  /// `cell_size_m` should be close to the largest common query radius
  /// (default suits r = 2.5 m, R = 3 m).  `bounds` replaces the points' natural_bounds as the grid extent when it
  /// is non-empty.  within() returns candidates in grid order (cells
  /// row-major, then insertion order within a cell), and downstream
  /// confidence sums accumulate in that order — so a geo-shard holding a
  /// *slice* of a global reference set must index it under the global grid
  /// geometry (natural_bounds of the full set) to reproduce the unsharded
  /// float results bit for bit.  `bounds` need not contain every point;
  /// outliers clamp to edge cells exactly as the natural-bounds grid clamps
  /// its expansion margin.
  explicit ReferenceIndex(PointArrays points, double cell_size_m = 4.0,
                          const BoundingBox& bounds = {});

  /// The grid extent an index of `points` gets without explicit bounds:
  /// their bounding box expanded by 1 m.  Exposed so sharded slices can be
  /// indexed under the full set's geometry (see above).
  static BoundingBox natural_bounds(const PointArrays& points);

  /// The grid extent this index was built with.
  const BoundingBox& bounds() const { return bounds_; }

  /// Indices of all points within `radius` of `center` (inclusive).
  /// `exclude_traj` drops points of one source trajectory — used when the
  /// verified upload is itself part of the historical store, so it does not
  /// self-certify (kNoTrajectory excludes nothing).
  std::vector<std::size_t> within(const Enu& center, double radius,
                                  std::uint32_t exclude_traj = kNoTrajectory) const;

  /// Number of points within `radius` of `center` — cheaper than within().
  std::size_t count_within(const Enu& center, double radius) const;

  /// Grid cap: the grid spans the points' bounding box (or the explicit
  /// bounds), so a few far-apart points would otherwise ask for an unbounded
  /// number of cells.  Every constructor, the image decoder included, refuses
  /// with std::invalid_argument a grid of more than
  /// max(kMinGridCellCap, kMaxGridCellsPerPoint * size()) cells.  It refuses
  /// rather than coarsening the grid, because the grid order fixes the
  /// confidence sums' order.  The floor (a 4 km square at 4 m cells) covers
  /// small and empty sets, such as a shard slice under global bounds.
  static constexpr std::size_t kMaxGridCellsPerPoint = 4096;
  static constexpr std::size_t kMinGridCellCap = std::size_t{1} << 20;

  /// Eq. 4 match window of one counted lane: observations of `mac` at
  /// lo..hi dBm inclusive.  Wide, so a reported RSSI plus or minus any
  /// tolerance fits; count_circles() clips it to the storable range.
  struct MatchLane {
    std::uint64_t mac = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
  };

 private:
  /// Cells a query of `radius` around `center` walks: [x0, x1] x [y0, y1],
  /// clipped to the grid (empty when x0 > x1 or y0 > y1).
  struct Window {
    long x0, x1, y0, y1;
  };

 public:
  /// What count_circles() returns, plus the buffers it reuses: keep one per
  /// thread and pass it to every call, so a warm call allocates nothing.
  class CircleCounts {
   public:
    /// |C_H(R)| of centre c.
    std::uint32_t size(std::size_t c) const { return sizes_[c]; }
    /// Observations over C_H(R) of centre c that match lane a.
    std::uint32_t matches(std::size_t c, std::size_t a) const {
      return matches_[c * lanes_ + a];
    }
    /// Whether centre c's own scan observes lane a's MAC, at any RSSI.
    bool carries(std::size_t c, std::size_t a) const { return carries_[c * lanes_ + a] != 0; }

   private:
    friend class ReferenceIndex;
    std::size_t lanes_ = 0;
    std::vector<std::uint32_t> sizes_;
    std::vector<std::uint32_t> matches_;  // centre-major, lanes_ per centre
    std::vector<std::uint8_t> carries_;   // centre-major, lanes_ per centre
    // Lane windows as keys, padded to whole blocks: lane a matches key x
    // when x - key_lo_[a] <= key_span_[a] (unsigned), and a key of AP
    // ap_[a] carries it.
    std::vector<std::uint32_t> key_lo_;
    std::vector<std::uint32_t> key_span_;
    std::vector<std::uint32_t> ap_;
    // Gather scratch: the union of the centres' windows, and per gathered
    // point its position and stored cell, flat so the per-centre masks run
    // branch-free.
    std::vector<Window> windows_;
    std::vector<char> in_union_;
    std::vector<std::uint32_t> gathered_;
    std::vector<double> east_;
    std::vector<double> north_;
    std::vector<std::int32_t> cell_x_;  // stored cells lie in the grid, so fit
    std::vector<std::int32_t> cell_y_;
    std::vector<std::uint16_t> columns_;  // lane a's counts at [a * slots, (a + 1) * slots)
    std::vector<std::uint8_t> mask_;      // one centre's C_H(R) over the slots
  };

  /// Eq. 4 counting over the circles of `radius` around several of this
  /// index's points at once (the C_H(R) of the references H of one
  /// C_O(r)), without a grid walk per circle.  One pass over the union of
  /// the centres' cell windows gathers the points within
  /// max_c |centre_c - origin| + radius (+1 um) of `origin`, a superset of
  /// every circle by the triangle inequality, and stores each gathered
  /// point's match count per lane (its keys inside the lane's key range; a
  /// scan may repeat a MAC) as uint16 columns over the gathered points.
  /// Each centre's circle is then a byte mask over the gathered
  /// points, set by within()'s own two tests for (centers[c]'s position,
  /// `radius`): stored in a cell of that window and within `radius`, so
  /// points clamped into edge cells count as they do there.  `out` gets
  /// |C_H(R)| and the per-lane sums over it for every centre, as masked
  /// column reductions: integers, so equal to counting within()'s
  /// neighbours one by one.  It also records which lanes' MACs each
  /// centre's own scan carries.  Meant for centres near `origin`: the gather
  /// covers their windows' union.
  void count_circles(const Enu& origin, const std::vector<std::size_t>& centers,
                     double radius, const std::vector<MatchLane>& lanes,
                     CircleCounts& out) const;

 private:
  /// The window a query of `radius` around `center` walks.
  Window window(const Enu& center, double radius) const;

  /// Call `visitor(i)` for every point index within `radius` of `center`,
  /// in within()'s order.
  template <typename Visitor>
  void visit(const Enu& center, double radius, Visitor&& visitor) const;

  std::size_t cell_of(const Enu& p) const;

  /// Size the grid over `bounds` (natural_bounds when empty), refuse
  /// it past the cell cap, and file every stored point in its cell.
  void build_grid(const BoundingBox& bounds);

  double cell_size_m_;
  BoundingBox bounds_;
  std::size_t grid_w_ = 1;
  std::size_t grid_h_ = 1;
  std::vector<std::vector<std::uint32_t>> grid_;
};

}  // namespace trajkit::wifi
