// Per-uploader provenance statistics and robust per-cell RSSI aggregation.
//
// Pooling every uploader's observations into one sufficient-statistics
// accumulator per (cell, AP) is exactly the right shape for an honest crowd,
// and exactly the wrong one under the threat model of "Coordinated Position
// Falsification Attacks" (PAPERS.md): k colluding uploaders who flood one
// cell with shifted RSSIs drag the pooled mean wherever they like, because
// the mean weighs *observations*, not *witnesses*.  This grid keeps the
// sufficient statistics broken down by uploader, so aggregation can weigh
// each distinct witness once:
//
//   * trimmed mean over per-uploader means — discards the top/bottom
//     trim-fraction of witnesses before averaging;
//   * median-of-uploader-means (trim >= 0.5) — immune while colluders are a
//     minority of distinct uploaders in the cell, no matter how many
//     observations each of them floods in.
//
// With trimming disabled (trim = 0) RobustCellAggregator answers the pooled
// mean by summing the per-uploader counts and sums of the (cell, AP).  RSSIs
// are integers, so every count and sum is an exact integer in a double and
// the result is bitwise the ingestion-order pooled mean, whatever the
// grouping — the exact-mean oracle the equivalence tests pin.
//
// The grid is a pure fold of (point, uploader) in ingestion order into one
// flat, open-addressed table keyed by (cell, MAC), each key holding its
// uploaders' statistics in uploader-id order, beside a table of per-cell
// point counts.  One hash probe answers a lookup, and an add costs one probe
// per observation.  The tables keep first-seen order: serialize() and
// checksum() sort on demand into the canonical order (cells, then MACs, then
// uploaders, each ascending), and operator== compares key by key, so two
// grids of the same facts are equal whatever order they were folded in.  CrowdStore never persists the grid;
// open() refolds it from the snapshot's points, bitwise-equal to the grid
// the writing process maintained.  serialize()/checksum() are the
// fingerprint the tests compare.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "wifi/refindex.hpp"

namespace trajkit::wifi {

/// Stable identity of an uploading device/account, stamped by the ingestion
/// edge into every journal frame.  0 is the anonymous uploader, exempt from
/// reputation tracking.
using UploaderId = std::uint64_t;
inline constexpr UploaderId kAnonymousUploader = 0;

/// Sufficient statistics of one RSSI sample: one uploader's observations of
/// one AP inside one cell.
struct ApCellStats {
  std::uint64_t count = 0;
  double sum = 0.0;    ///< sum of RSSI dBm, in ingestion order
  double sumsq = 0.0;  ///< sum of squared RSSI dBm, in ingestion order

  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }

  friend bool operator==(const ApCellStats&, const ApCellStats&) = default;
};

/// Cell coordinates: floor(east / cell), floor(north / cell).
using CellKey = std::pair<std::int64_t, std::int64_t>;

/// Per (cell, AP, uploader), the count/sum/sumsq of that uploader's RSSI
/// observations there.
class ProvenanceGrid {
 public:
  /// One (cell, AP) key of the grid.
  struct Key {
    CellKey cell;
    std::uint64_t mac = 0;
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  explicit ProvenanceGrid(double cell_size_m = 4.0);

  /// Fold one ingested reference point into its cell under `uploader`.
  void add(const ReferencePoint& point, UploaderId uploader);
  /// Make room for `observations` more observations, each of which adds at
  /// most one key and one witness, so folding them reallocates nothing.
  void reserve(std::size_t observations);

  /// floor(pos / cell size) per axis (geo's tile_of), saturated to the
  /// int64 range.
  CellKey cell_of(const Enu& pos) const;
  /// Reference points folded into the cell at `pos` (all uploaders); 0 when
  /// none landed there.
  std::uint64_t cell_points(const Enu& pos) const;

  std::uint64_t point_count() const { return points_; }
  std::size_t cell_count() const { return cells_.size(); }
  double cell_size_m() const { return cell_size_m_; }

  /// Every (cell, AP) key, in canonical order.
  std::vector<Key> keys() const;

  /// Per-uploader mean RSSIs of (cell at `pos`, `mac`), in uploader-id order,
  /// optionally excluding one uploader (self-exclusion for reputation
  /// scoring, so a witness never vouches for itself).  Empty when nothing
  /// landed there.
  std::vector<double> uploader_means(const Enu& pos, std::uint64_t mac,
                                     UploaderId exclude = kAnonymousUploader) const;
  /// The same means written into `out` (cleared first), so a caller that
  /// reuses `out` allocates nothing once it has grown.
  void uploader_means(const Enu& pos, std::uint64_t mac, UploaderId exclude,
                      std::vector<double>& out) const;
  /// Every uploader's statistics of (cell at `pos`, `mac`) summed (exact:
  /// integer RSSIs); count 0 when nothing landed there.
  ApCellStats pooled(const Enu& pos, std::uint64_t mac) const;

  /// Deterministic text rendering (%.17g doubles) in canonical order: the
  /// tests' equality witness.
  std::string serialize() const;

  /// FNV-1a of serialize().
  std::uint64_t checksum() const;

  friend bool operator==(const ProvenanceGrid& a, const ProvenanceGrid& b);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct CellRow {
    CellKey key;
    std::uint64_t points = 0;
  };
  /// One uploader's statistics under one key; `next` links the key's
  /// further witnesses in ascending uploader id.
  struct Witness {
    UploaderId uploader = kAnonymousUploader;
    ApCellStats stats;
    std::uint32_t next = kNone;
  };
  /// A key and its lowest-id witness inline (count 0 until the first
  /// observation lands), so a key with one uploader is one row.
  struct KeyRow {
    Key key;
    Witness head;
  };

  /// Row of `key` in key_rows_, or kNone.
  std::uint32_t find(const Key& key) const;
  /// `uploader`'s statistics under key row `row`, linked in if new.
  ApCellStats& witness(std::uint32_t row, UploaderId uploader);
  /// The witness after `w` in its key's list, or null.
  const Witness* after(const Witness& w) const {
    return w.next == kNone ? nullptr : &witnesses_[w.next];
  }

  double cell_size_m_;
  std::uint64_t points_ = 0;
  // Rows in first-seen order; each slot table is open-addressed over row
  // ids (kNone = empty), a power of two in size, at most half full and
  // probed linearly (the PointArrays MAC-table idiom).
  std::vector<CellRow> cells_;
  std::vector<std::uint32_t> cell_slots_ = std::vector<std::uint32_t>(16, kNone);
  std::vector<KeyRow> key_rows_;
  std::vector<std::uint32_t> key_slots_ = std::vector<std::uint32_t>(16, kNone);
  std::vector<Witness> witnesses_;  ///< every witness after a key's head
};

/// How per-cell RSSI consensus is aggregated across witnesses.
struct RobustAggregationParams {
  /// Fraction of witnesses trimmed from each end of the sorted per-uploader
  /// means before averaging.  0 disables trimming (pooled exact mean over
  /// every observation, the bitwise oracle path); >= 0.5 degenerates to the
  /// median of uploader means.
  double trim_fraction = 0.5;
  /// Minimum distinct witnesses before a robust consensus exists; below it
  /// estimate()/consensus_excluding() report "no consensus" rather than
  /// letting one witness define truth.  Ignored on the trim = 0 path.
  std::size_t min_uploaders = 2;
};

/// Trimmed mean of `values` (taken by value; sorted internally):
/// floor(trim * n) dropped from each end — capped so at least one value
/// survives — and trim >= 0.5 yields the median.  The shared arithmetic of
/// the aggregator and the tests.
double trimmed_mean(std::vector<double> values, double trim_fraction);

/// Robust per-cell RSSI estimator over a provenance grid, which must
/// outlive the aggregator.
class RobustCellAggregator {
 public:
  explicit RobustCellAggregator(const ProvenanceGrid& provenance,
                                RobustAggregationParams params = {});

  /// Consensus RSSI of (cell at `pos`, `mac`).  trim = 0: the pooled mean of
  /// every observation there, Σ sum / Σ count over the per-uploader entries;
  /// trim > 0: trimmed mean / median of per-uploader means.  Returns false
  /// when the cell/AP has no (or too few) witnesses.
  bool estimate(const Enu& pos, std::uint64_t mac, double* out) const;

  /// The consensus the *other* witnesses form — `exclude`'s own observations
  /// are held out, so reputation scoring never lets an uploader certify
  /// itself.  Always aggregates robustly (a trim = 0 configuration still
  /// trims nothing but weighs witnesses, not observations).
  bool consensus_excluding(const Enu& pos, std::uint64_t mac, UploaderId exclude,
                           double* out) const;

  const RobustAggregationParams& params() const { return params_; }

 private:
  const ProvenanceGrid* provenance_;
  RobustAggregationParams params_;
};

}  // namespace trajkit::wifi
