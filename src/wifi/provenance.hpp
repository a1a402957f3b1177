// Per-uploader provenance statistics and robust per-cell RSSI aggregation.
//
// The crowd store's CellStatsGrid pools every uploader's observations into
// one sufficient-statistics accumulator per (cell, AP) — exactly the right
// shape for an honest crowd, and exactly the wrong one under the threat
// model of "Coordinated Position Falsification Attacks" (PAPERS.md): k
// colluding uploaders who flood one cell with shifted RSSIs drag the pooled
// mean wherever they like, because the mean weighs *observations*, not
// *witnesses*.  This grid keeps the same sufficient statistics broken down
// by uploader, so aggregation can weigh each distinct witness once:
//
//   * trimmed mean over per-uploader means — discards the top/bottom
//     trim-fraction of witnesses before averaging;
//   * median-of-uploader-means (trim >= 0.5) — immune while colluders are a
//     minority of distinct uploaders in the cell, no matter how many
//     observations each of them floods in.
//
// RobustCellAggregator front-ends both grids: with trimming disabled
// (trim = 0) it answers from the pooled CellStatsGrid accumulators, bitwise
// identical to ApCellStats::mean() — the exact-mean oracle the equivalence
// tests pin — and with trimming enabled it answers from the per-uploader
// breakdown here.
//
// Determinism mirrors cell_stats.hpp: ordered containers, ingestion-order
// accumulation, %.17g round-trip serialisation, so an incrementally
// maintained grid is bitwise-equal to one rebuilt by replay.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "wifi/cell_stats.hpp"
#include "wifi/refindex.hpp"

namespace trajkit::wifi {

/// Stable identity of an uploading device/account, stamped by the ingestion
/// edge into every journal frame.  0 is the anonymous uploader, exempt from
/// reputation tracking.
using UploaderId = std::uint64_t;
inline constexpr UploaderId kAnonymousUploader = 0;

/// CellStatsGrid broken down by uploader: per (cell, AP, uploader), the
/// count/sum/sumsq of that uploader's RSSI observations there.
class ProvenanceGrid {
 public:
  using CellKey = CellStatsGrid::CellKey;

  struct Cell {
    std::uint64_t count = 0;  ///< reference points in the cell (all uploaders)
    /// mac -> uploader -> that uploader's RSSI sufficient statistics.
    std::map<std::uint64_t, std::map<UploaderId, ApCellStats>> aps;

    friend bool operator==(const Cell&, const Cell&) = default;
  };

  explicit ProvenanceGrid(double cell_size_m = 4.0);

  /// Fold one ingested reference point into its cell under `uploader`.
  void add(const ReferencePoint& point, UploaderId uploader);

  CellKey cell_of(const Enu& pos) const;
  const Cell* cell_at(const Enu& pos) const;

  std::uint64_t point_count() const { return points_; }
  std::size_t cell_count() const { return cells_.size(); }
  double cell_size_m() const { return cell_size_m_; }
  const std::map<CellKey, Cell>& cells() const { return cells_; }

  /// Per-uploader mean RSSIs of (cell at `pos`, `mac`), in uploader-id order,
  /// optionally excluding one uploader (self-exclusion for reputation
  /// scoring, so a witness never vouches for itself).  Empty when nothing
  /// landed there.
  std::vector<double> uploader_means(const Enu& pos, std::uint64_t mac,
                                     UploaderId exclude = kAnonymousUploader) const;

  /// Deterministic text rendering (%.17g doubles) — the snapshot record
  /// format and the compaction debug-check equality witness.
  std::string serialize() const;
  static Expected<ProvenanceGrid, std::string> deserialize(const std::string& text);

  /// FNV-1a of serialize().
  std::uint64_t checksum() const;

  friend bool operator==(const ProvenanceGrid&, const ProvenanceGrid&) = default;

 private:
  double cell_size_m_;
  std::uint64_t points_ = 0;
  std::map<CellKey, Cell> cells_;
};

/// How per-cell RSSI consensus is aggregated across witnesses.
struct RobustAggregationParams {
  /// Fraction of witnesses trimmed from each end of the sorted per-uploader
  /// means before averaging.  0 disables trimming (pooled exact mean, the
  /// bitwise oracle path); >= 0.5 degenerates to the median of uploader
  /// means.
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

/// Robust per-cell RSSI estimator over the pooled + per-uploader grids.
/// Both grids must describe the same ingestion stream (same cell size, same
/// points) and outlive the aggregator.
class RobustCellAggregator {
 public:
  RobustCellAggregator(const CellStatsGrid& pooled, const ProvenanceGrid& provenance,
                       RobustAggregationParams params = {});

  /// Consensus RSSI of (cell at `pos`, `mac`).  trim = 0: the pooled
  /// ApCellStats::mean(), bitwise-equal to the pre-provenance estimate;
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
  const CellStatsGrid* pooled_;
  const ProvenanceGrid* provenance_;
  RobustAggregationParams params_;
};

}  // namespace trajkit::wifi
