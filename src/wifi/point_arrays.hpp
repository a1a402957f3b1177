// Reference points in columnar form, and the one binary codec for them.
//
// Each stored observation is one uint32 key, (AP id << 8) | (RSSI -
// kMinValidRssiDbm), where the AP id numbers the set's distinct MACs in
// order of first appearance.  Keys sit in one flat array in point order;
// positions and trajectory ids sit in arrays of their own.  An Eq. 4 match
// window of one MAC over an RSSI range is then one contiguous key range,
// which is what ReferenceIndex (wifi/refindex.hpp) counts over after adding
// its spatial grid.
//
// The image is these arrays as they are (append_image and the image-taking
// constructor), so a cold start copies them instead of re-encoding every
// observation.  Two durable formats carry it: the detector model image
// (DESIGN.md, "Detector model image") and the crowd snapshot's point record
// (DESIGN.md, "Crowd snapshot image").  Neither the codec nor the arrays
// build a grid: a valid set of a few far-apart points decodes here even
// where ReferenceIndex's grid cap would refuse to index it.
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

class PointArrays {
 public:
  PointArrays() = default;
  /// append() every point of `points`.  Implicit: a vector of points is
  /// accepted wherever arrays are.
  PointArrays(const std::vector<ReferencePoint>& points);

  /// Decode arrays from the front of `image`, laid out as append_image()
  /// writes them, and advance `image` past them.  Every count is checked
  /// against the bytes that remain before anything is allocated, and the
  /// image is refused (std::invalid_argument naming the rule) unless it is
  /// what append_image() writes for a set that validate_reference_point
  /// would accept point by point: each position passes position_ok, each
  /// point holds at most kMaxScanAps observations and the counts sum to the
  /// key count, each key's RSSI byte is at most 150, AP ids lie inside the
  /// MAC table and appear in first-seen order, and no MAC is listed twice or
  /// never observed.  So the result equals the arrays built from its own
  /// point(h)s.
  explicit PointArrays(std::string_view& image);

  /// Append the arrays to `out`: u64 point, MAC and key counts, the MACs in
  /// AP-id order (u64 each), per-point observation counts (u16), the keys
  /// (u32), positions (two raw doubles each) and trajectory ids (u32),
  /// native little-endian.
  void append_image(std::string& out) const;

  /// Throw what append(point) would, changing nothing: a scan of more than
  /// kMaxScanSize observations or new MACs past kMaxAps (std::length_error),
  /// an RSSI outside [kMinValidRssiDbm, kMaxValidRssiDbm] (std::out_of_range).
  void check(const ReferencePoint& point) const;
  /// Key `point` as point size(), numbering its unseen MACs next in scan
  /// order: the one keying path.  Refuses what check() refuses, before it
  /// changes anything.
  void append(const ReferencePoint& point);

  std::size_t size() const { return pos_.size(); }
  /// Observations over every point.
  std::size_t observation_count() const { return keys_.size(); }
  /// Reported position of point `h`, and of every point.
  const Enu& pos(std::size_t h) const { return pos_[h]; }
  const std::vector<Enu>& positions() const { return pos_; }
  /// Source trajectory of point `h`.
  std::uint32_t traj_id(std::size_t h) const { return traj_id_[h]; }
  /// Point `h` decoded from the arrays: equal to the point they were built
  /// from, observation for observation.
  ReferencePoint point(std::size_t h) const;

  /// Largest scan a stored point may carry: ReferenceIndex::count_circles()
  /// keeps each gathered point's per-lane match counts as uint16, and a
  /// count never exceeds the scan's observation count.
  static constexpr std::size_t kMaxScanSize = 0xffff;

  /// Most distinct MACs a set may hold: an AP id fills a key's top 24 bits.
  static constexpr std::size_t kMaxAps = std::size_t{1} << 24;

 protected:
  /// A key holds the RSSI's offset from kMinValidRssiDbm in its low byte and
  /// the AP id above it.
  static constexpr unsigned kRssiBits = 8;
  static constexpr std::uint32_t kRssiMask = (1u << kRssiBits) - 1;
  static_assert(kMaxValidRssiDbm - kMinValidRssiDbm < static_cast<int>(kRssiMask),
                "every storable RSSI offset fits below 0xff");
  static std::uint32_t key_of(std::uint32_t ap, std::int64_t rssi_dbm) {
    return ap << kRssiBits | static_cast<std::uint32_t>(rssi_dbm - kMinValidRssiDbm);
  }

  /// AP id of `mac`, or kNoAp when the set never observed it.
  std::uint32_t ap_id(std::uint64_t mac) const;
  static constexpr std::uint32_t kNoAp = 0xffffffffu;

  std::vector<Enu> pos_;
  std::vector<std::uint32_t> traj_id_;
  std::vector<std::uint32_t> keys_;    // every point's observations, in point order
  std::vector<std::size_t> offsets_ = {0};  // point h's keys: [offsets_[h], offsets_[h + 1])
  std::vector<std::uint64_t> macs_;    // MAC of each AP id

 private:
  /// AP id of `mac`, numbering it next if it is new.
  std::uint32_t intern(std::uint64_t mac);
  /// First slot of `mac`'s probe sequence in ap_slots_.
  std::size_t home_slot(std::uint64_t mac) const;

  // Open-addressed MAC -> AP id (kNoAp = empty slot), a power of two in
  // size and at most half full, probed linearly from home_slot().
  struct ApSlot {
    std::uint64_t mac = 0;
    std::uint32_t id = kNoAp;
  };
  std::vector<ApSlot> ap_slots_ = std::vector<ApSlot>(16);
};

}  // namespace trajkit::wifi
