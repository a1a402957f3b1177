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
// Each stored observation is one uint32 key, (AP id << 8) | (RSSI -
// kMinValidRssiDbm), where the AP id numbers the store's distinct MACs in
// order of first appearance.  Keys sit in one flat array in point order; positions and
// trajectory ids sit in arrays of their own.  An Eq. 4 match window of one
// MAC over an RSSI range is then one contiguous key range, so a match is one
// unsigned compare per lane.
//
// The detector's model file stores these arrays as they are (append_image
// and the image-taking constructor; DESIGN.md, "Detector model image"), so
// a cold start copies them instead of re-encoding every observation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
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

  /// Decode an index from the front of `image`, laid out as append_image()
  /// writes it, and advance `image` past it.  Grid bounds are the points'
  /// natural_bounds.  Every count is checked against the bytes that remain
  /// before anything is allocated, and the image is refused
  /// (std::invalid_argument naming the rule) unless it is what
  /// append_image() writes for an index that validate_reference_point
  /// would accept point by point: each position passes position_ok, each
  /// point holds at most kMaxScanAps observations and the counts sum to
  /// the key count, each key's RSSI byte is at most 150, AP ids lie inside
  /// the MAC table and appear in first-seen order, and no MAC is listed
  /// twice or never observed.  So the result equals the index built from
  /// its own point(h)s.
  ReferenceIndex(std::string_view& image, double cell_size_m);

  /// Append the store's arrays to `out`: u64 point, MAC and key counts, the
  /// MACs in AP-id order (u64 each), per-point observation counts (u16),
  /// the keys (u32), positions (two raw doubles each) and trajectory ids
  /// (u32), native little-endian.
  void append_image(std::string& out) const;

  /// The grid extent the single-argument constructor would derive for
  /// `points`: their bounding box expanded by 1 m.  Exposed so sharded
  /// slices can be indexed under the full set's geometry (see above).
  static BoundingBox natural_bounds(const std::vector<ReferencePoint>& points);

  /// The grid extent this index was built with.
  const BoundingBox& bounds() const { return bounds_; }

  std::size_t size() const { return pos_.size(); }
  /// Reported position of point `h`.
  const Enu& pos(std::size_t h) const { return pos_[h]; }
  /// Source trajectory of point `h`.
  std::uint32_t traj_id(std::size_t h) const { return traj_id_[h]; }
  /// Point `h` decoded from the store: equal to the point the constructor
  /// was given, observation for observation.
  ReferencePoint point(std::size_t h) const;

  /// Indices of all points within `radius` of `center` (inclusive).
  /// `exclude_traj` drops points of one source trajectory — used when the
  /// verified upload is itself part of the historical store, so it does not
  /// self-certify (kNoTrajectory excludes nothing).
  std::vector<std::size_t> within(const Enu& center, double radius,
                                  std::uint32_t exclude_traj = kNoTrajectory) const;

  /// Number of points within `radius` of `center` — cheaper than within().
  std::size_t count_within(const Enu& center, double radius) const;

  /// Largest scan a stored point may carry: count_circles() keeps each
  /// gathered point's per-lane match counts as uint16, and a count never
  /// exceeds the scan's observation count.  The constructors refuse a longer
  /// scan with std::length_error.
  static constexpr std::size_t kMaxScanSize = 0xffff;

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

  /// Most distinct MACs a store may hold: an AP id fills a key's top 24
  /// bits, so the constructors refuse more with std::length_error.  They
  /// refuse an RSSI outside [kMinValidRssiDbm, kMaxValidRssiDbm], the
  /// upload validator's range, with std::out_of_range.
  static constexpr std::size_t kMaxAps = std::size_t{1} << 24;

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

  /// Size the grid over `bounds` (natural bounds of pos_ when empty), refuse
  /// it past the cell cap, and file every stored point in its cell.
  void build_grid(const BoundingBox& bounds);

  /// AP id of `mac`, or kNoAp when the store never observed it.
  std::uint32_t ap_id(std::uint64_t mac) const;
  static constexpr std::uint32_t kNoAp = 0xffffffffu;
  /// AP id of `mac`, numbering it next if it is new.
  std::uint32_t intern(std::uint64_t mac);
  /// First slot of `mac`'s probe sequence in ap_slots_.
  std::size_t home_slot(std::uint64_t mac) const;

  std::vector<Enu> pos_;
  std::vector<std::uint32_t> traj_id_;
  std::vector<std::uint32_t> keys_;    // every point's observations, in point order
  std::vector<std::size_t> offsets_;   // point h's keys: [offsets_[h], offsets_[h + 1])
  std::vector<std::uint64_t> macs_;    // MAC of each AP id
  // Open-addressed MAC -> AP id (kNoAp = empty slot), a power of two in
  // size and at most half full, probed linearly from home_slot().
  struct ApSlot {
    std::uint64_t mac = 0;
    std::uint32_t id = kNoAp;
  };
  std::vector<ApSlot> ap_slots_ = std::vector<ApSlot>(16);
  double cell_size_m_;
  BoundingBox bounds_;
  std::size_t grid_w_ = 1;
  std::size_t grid_h_ = 1;
  std::vector<std::vector<std::uint32_t>> grid_;
};

}  // namespace trajkit::wifi
