// Durable store for the crowdsourced RSSI reference dataset (the paper's
// historical scan store H that the whole defense leans on).
//
// Streaming ingestion is write-ahead: every accepted scan is validated
// (wifi/validate), encoded as one text line and appended to a CRC-framed
// journal (common/durable/journal) *before* it is visible in memory.  An
// explicit compact() folds the journal into a CRC-framed snapshot (one
// durable container: a meta record plus one record per reference point) and
// resets the journal.
//
// Crash safety is the point of the split:
//   - a crash mid-append leaves a torn journal tail, which the next open()
//     truncates deterministically — the store recovers to an exact prefix of
//     the accepted scans;
//   - a crash anywhere inside compact() double-applies nothing, because the
//     snapshot records the next journal seq it has folded in and replay
//     skips older records.  Snapshot committed but journal not yet reset is
//     therefore a fully consistent state, not a hazard.
//
// Poisoning resistance (the adversarial-crowdsourcing layer): every append
// carries the uploader's stable identity in its journal frame
// (durable/journal), and the store maintains, next to the pooled
// CellStatsGrid, a per-uploader ProvenanceGrid and a ReputationBook.  Each
// provenance-stamped append is scored against the robust consensus the
// other witnesses of its cells form (RobustCellAggregator: trimmed mean /
// median of per-uploader means); uploaders whose decayed agreement sinks
// below threshold are quarantined — their points stay durable and replay
// bitwise, but trusted_points() holds them out of epoch publishes until a
// "#clear" review clears them.  Review actions ride the WAL as '#' control
// frames, same discipline as "#epoch", so recovery and follower shipping
// replay them exactly.
//
// Determinism of the adversarial layer: reputation is a pure function of the
// ingestion sequence (points, uploaders, control frames) under fixed
// ReputationParams/RobustAggregationParams — configure the same params
// before replaying a journal that was scored under them, or the recovered
// scores will differ (the snapshot carries its fold-time scores verbatim, so
// only the journal tail is rescored on open).
//
// VerifierService::try_create_from_store cold-starts a serving process from
// any such crash point and reproduces bit-identical verdicts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/durable/journal.hpp"
#include "common/expected.hpp"
#include "wifi/cell_stats.hpp"
#include "wifi/provenance.hpp"
#include "wifi/refindex.hpp"
#include "wifi/reputation.hpp"
#include "wifi/validate.hpp"

namespace trajkit::wifi {

/// Fault/crash point between compact()'s two stages (snapshot committed,
/// journal not yet reset), keyed by the snapshot path.  The durable and
/// journal layers carry their own points inside each stage.
inline constexpr const char* kFaultStoreCompact = "store.compact_between";

class CrowdStore {
 public:
  /// What open() reconstructed, for logs and the recovery tests.
  struct OpenStats {
    std::size_t snapshot_points = 0;   ///< points folded into the snapshot
    std::size_t replayed_records = 0;  ///< journal records applied on top
    std::uint64_t skipped_stale = 0;   ///< journal records older than the snapshot
    std::uint64_t truncated_bytes = 0; ///< torn-tail bytes the journal discarded
  };

  /// A parsed '#' control frame.  Control frames ride the WAL next to the
  /// points — "#epoch N" (model epoch published), "#quarantine U" (review
  /// forced an uploader out), "#clear U" (review reinstated it) — so
  /// recovery and follower frame shipping replay operator actions exactly.
  struct ControlFrame {
    enum class Kind { kEpoch, kMotionEpoch, kQuarantine, kClear };
    Kind kind = Kind::kEpoch;
    std::uint64_t value = 0;  ///< epoch number or uploader id
  };

  /// Adversarial-layer tuning, applied *before* journal replay so the
  /// recovered reputation scores are computed under the same parameters the
  /// original process scored with (see the determinism note above).
  struct Tuning {
    ReputationParams reputation;
    RobustAggregationParams aggregation;
    UploaderRatePolicy rate_policy;
  };

  /// Open (creating if needed) the store rooted at directory `dir`.  Layout:
  /// dir/crowd.snapshot (durable container) + dir/crowd.journal (WAL).
  /// `sync_each_append` follows Journal::open's contract.
  static Expected<std::unique_ptr<CrowdStore>, std::string> open(
      const std::string& dir, bool sync_each_append = true,
      const Tuning& tuning = {});

  CrowdStore(const CrowdStore&) = delete;
  CrowdStore& operator=(const CrowdStore&) = delete;

  /// Validate and durably append one crowdsourced reference point under
  /// `uploader`'s identity; it is journaled (and fsynced, in a provenance
  /// frame) before points() shows it, then scored against the robust
  /// consensus of its cells.  kAnonymousUploader is stamped as 0 and skips
  /// reputation/rate accounting.  Returns the journal seq it was accepted
  /// under.
  Expected<std::uint64_t, std::string> append(const ReferencePoint& point,
                                              UploaderId uploader);
  Expected<std::uint64_t, std::string> append(const ReferencePoint& point) {
    return append(point, kAnonymousUploader);
  }

  /// Journal an epoch control frame ("#epoch N").  Epoch markers ride the
  /// same WAL as the points, so followers learn about published model epochs
  /// through the existing frame-shipping path, and recovery restores the
  /// highest epoch the store had observed.  Monotone: a marker never lowers
  /// observed_epoch().  Returns the journal seq of the marker frame.
  Expected<std::uint64_t, std::string> append_epoch_marker(std::uint64_t epoch);

  /// Journal a motion-model epoch marker ("#motion_epoch N"): the quantized
  /// motion classifier published under ArtifactStore epoch N.  Same contract
  /// as append_epoch_marker — rides the WAL, ships to followers verbatim,
  /// monotone, survives recovery and compaction — but tracks the motion
  /// sidecar's artifact lineage independently of the RSSI detector's.
  Expected<std::uint64_t, std::string> append_motion_epoch_marker(std::uint64_t epoch);

  /// Review actions, journaled as control frames then applied: force an
  /// uploader into quarantine / clear it back to a fresh record.
  Expected<std::uint64_t, std::string> append_quarantine_marker(UploaderId uploader);
  Expected<std::uint64_t, std::string> append_clear_marker(UploaderId uploader);

  /// Journal + apply an already-encoded '#' control frame verbatim (the
  /// replication path: a follower re-journals exactly the payload its leader
  /// shipped).  Rejects unknown control frames.
  Expected<std::uint64_t, std::string> append_control(const std::string& payload);

  /// Fold the journal into a fresh snapshot, then reset the journal.  Safe to
  /// crash at any point inside; idempotent to re-run after recovery.  The
  /// snapshot carries the full dataset — quarantined points included, they
  /// must survive a later "#clear" — plus the provenance grid and the
  /// reputation book, so recovery never rescored folded history.
  Expected<bool, std::string> compact();

  /// The full recovered + appended reference set, in ingestion order —
  /// quarantined uploaders included (storage is not judgement).
  const std::vector<ReferencePoint>& points() const { return points_; }

  /// Uploader of each point, parallel to points().
  const std::vector<UploaderId>& uploaders() const { return uploaders_; }
  UploaderId uploader_of(std::size_t i) const { return uploaders_[i]; }

  /// The serving view: every point whose uploader is not quarantined, in
  /// ingestion order.  This is what epoch publishes fold into artifacts —
  /// the quarantine stage that keeps suspected poison out of the model while
  /// review is pending.
  std::vector<ReferencePoint> trusted_points() const;
  /// Points currently held out by quarantine (points() size minus trusted).
  std::size_t quarantined_point_count() const;

  /// Per-cell sufficient statistics (count/sum/sumsq per AP) maintained
  /// incrementally on every append — always current with points(), so
  /// compact() serialises them instead of recomputing, and the online model
  /// layer reads densities without a scan over the dataset.
  const CellStatsGrid& cell_stats() const { return cell_stats_; }

  /// The same statistics broken down by uploader (the robust-aggregation and
  /// reputation substrate), and the reputation ledger itself.
  const ProvenanceGrid& provenance() const { return provenance_; }
  const ReputationBook& reputation() const { return reputation_; }

  /// Adversarial-layer configuration.  Set before traffic (and identically
  /// before recovery — see the determinism note above); not persisted.
  void set_reputation_params(const ReputationParams& params) { rep_params_ = params; }
  const ReputationParams& reputation_params() const { return rep_params_; }
  void set_aggregation_params(const RobustAggregationParams& params);
  const RobustAggregationParams& aggregation_params() const { return agg_params_; }
  /// Per-uploader rate cap (wifi/validate); applied at append admission,
  /// never at replay (journaled records were already admitted).
  void set_rate_policy(const UploaderRatePolicy& policy);

  /// Highest model epoch marker this store has journaled, observed or
  /// recovered (0 = none yet).
  std::uint64_t observed_epoch() const { return observed_epoch_; }

  /// Highest motion-model epoch marker journaled, observed or recovered
  /// (0 = none yet) — the epoch followers load the quantized motion
  /// classifier from after adopting shipped frames.
  std::uint64_t observed_motion_epoch() const { return observed_motion_epoch_; }

  /// Debug flag: when set, compact() recomputes the cell statistics and the
  /// provenance grid from scratch and fails (Expected) unless the
  /// incremental state is bitwise identical — the cheap-reuse path stays
  /// honest under test.
  void set_verify_cell_stats(bool on) { verify_cell_stats_ = on; }

  /// Seq the next append will be assigned.
  std::uint64_t next_seq() const { return journal_->next_seq(); }
  /// Records sitting in the journal (appended or replayed since the last
  /// compaction) — the compaction trigger.
  std::size_t journaled_since_snapshot() const { return journaled_; }
  const OpenStats& open_stats() const { return open_stats_; }

  static std::string snapshot_path(const std::string& dir);
  static std::string journal_path(const std::string& dir);
  /// Format tag of the store's write-ahead journal, for read-only frame
  /// shipping (durable::Journal::read_records) by the replication layer.
  static const char* journal_tag();

  /// Text codec for one reference point, shared by the journal payloads and
  /// the snapshot records ("east north traj_id n mac rssi ...", %.17g).
  /// Provenance never rides the payload: the journal frame (v2) and the
  /// snapshot record prefix carry it, so payload bytes match v1 exactly.
  static std::string encode_point(const ReferencePoint& point);
  static Expected<ReferencePoint, std::string> decode_point(const std::string& line);

  /// Control-frame codec.  Payloads starting with '#' are reserved for
  /// control frames; parse_control rejects unknown kinds.  is_epoch_marker
  /// parses the epoch into `epoch` when non-null (kept for the shipping
  /// layer's fast path).
  static std::string encode_epoch_marker(std::uint64_t epoch);
  static std::string encode_motion_epoch_marker(std::uint64_t epoch);
  static std::string encode_quarantine_marker(UploaderId uploader);
  static std::string encode_clear_marker(UploaderId uploader);
  static Expected<ControlFrame, std::string> parse_control(const std::string& payload);
  static bool is_epoch_marker(const std::string& payload,
                              std::uint64_t* epoch = nullptr);

 private:
  CrowdStore() = default;

  /// Score `point` against the robust consensus of its cells (self excluded),
  /// then fold it into every in-memory structure.  Shared bit-for-bit by the
  /// append path and journal replay.
  void ingest_state(const ReferencePoint& point, UploaderId uploader);
  void apply_control(const ControlFrame& frame);

  std::string dir_;
  std::unique_ptr<durable::Journal> journal_;
  std::vector<ReferencePoint> points_;
  std::vector<UploaderId> uploaders_;  ///< parallel to points_
  CellStatsGrid cell_stats_;
  ProvenanceGrid provenance_;
  ReputationBook reputation_;
  ReputationParams rep_params_;
  RobustAggregationParams agg_params_;
  UploaderRateLimiter rate_limiter_;
  std::uint64_t observed_epoch_ = 0;
  std::uint64_t observed_motion_epoch_ = 0;
  bool verify_cell_stats_ = false;
  std::size_t snapshot_count_ = 0;  ///< prefix of points_ covered by the snapshot
  std::size_t journaled_ = 0;
  OpenStats open_stats_;
};

}  // namespace trajkit::wifi
