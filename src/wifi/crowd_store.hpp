// Durable store for the crowdsourced RSSI reference dataset (the paper's
// historical scan store H that the whole defense leans on).
//
// The points live in one layout, PointArrays (wifi/point_arrays): appends
// key onto the store's arrays, open() keeps the snapshot's decoded arrays,
// and every served epoch copies them and adds only its grid.
//
// Streaming ingestion is write-ahead: every accepted scan is validated
// (wifi/validate), encoded as one text line and appended to a CRC-framed
// journal (common/durable/journal) *before* it is visible in memory.  An
// explicit compact() folds the journal into a CRC-framed snapshot (one
// durable container, v6: a binary meta record, one point record holding
// the arrays' binary image plus a u64 uploader per point, and the reputation
// book; DESIGN.md, "Crowd snapshot image") and resets the journal.
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
// (durable/journal), and the store maintains a per-uploader ProvenanceGrid
// and a ReputationBook next to the points.  Each provenance-stamped append
// is scored against the robust consensus the other witnesses of its cells
// form (RobustCellAggregator: trimmed mean / median of per-uploader means);
// uploaders whose decayed agreement sinks below threshold are quarantined —
// their points stay durable and replay bitwise, but trusted_points() holds
// them out of epoch publishes until a "#clear" review clears them.  Review
// actions ride the WAL as '#' control frames, same discipline as "#epoch",
// so recovery and follower shipping replay them exactly.
//
// Determinism of the adversarial layer: reputation is a pure function of the
// ingestion sequence (points, uploaders, control frames) under fixed
// ReputationParams/RobustAggregationParams — configure the same params
// before replaying a journal that was scored under them, or the recovered
// scores will differ (the snapshot carries its fold-time scores verbatim, so
// only the journal tail is rescored on open).  The provenance grid is never
// persisted: open() refolds it from the snapshot's points in record order,
// which is bitwise the grid the writing process held.
//
// VerifierService::try_create_from_store cold-starts a serving process from
// any such crash point and reproduces bit-identical verdicts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable/journal.hpp"
#include "common/expected.hpp"
#include "wifi/provenance.hpp"
#include "wifi/refindex.hpp"
#include "wifi/reputation.hpp"
#include "wifi/validate.hpp"

namespace trajkit::wifi {

/// A '#' control frame.  Control frames ride the WAL next to the points —
/// "#epoch N" (model epoch published), "#motion_epoch N" (motion classifier
/// published under ArtifactStore epoch N), "#quarantine U" (review forced an
/// uploader out), "#clear U" (review reinstated it) — so recovery and
/// follower frame shipping replay operator actions exactly.  The two epoch
/// kinds are monotone: a lower marker never lowers the observed epoch.
struct ControlFrame {
  enum class Kind { kEpoch, kMotionEpoch, kQuarantine, kClear };
  Kind kind = Kind::kEpoch;
  std::uint64_t value = 0;  ///< epoch number or uploader id
};

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
  /// frame) before arrays() shows it, then scored against the robust
  /// consensus of its cells.  Validation, the rate cap and the arrays' MAC
  /// cap all refuse before the journal write; the rate budget is charged
  /// after it.  kAnonymousUploader is stamped as 0 and skips reputation/rate
  /// accounting.  Returns the journal seq it was accepted under.
  Expected<std::uint64_t, std::string> append(const ReferencePoint& point,
                                              UploaderId uploader);
  Expected<std::uint64_t, std::string> append(const ReferencePoint& point) {
    return append(point, kAnonymousUploader);
  }

  /// Journal a control frame, then apply it; returns its journal seq.  The
  /// primary's publish path journals "#epoch N" here, review tools the
  /// quarantine/clear actions, and a follower every control frame its
  /// leader shipped (parse_control, then this: the same bytes again).
  Expected<std::uint64_t, std::string> append_control(const ControlFrame& frame);

  /// Fold the journal into a fresh snapshot, then reset the journal.  Safe to
  /// crash at any point inside; idempotent to re-run after recovery.  The
  /// snapshot carries the full dataset — quarantined points included, they
  /// must survive a later "#clear" — plus the reputation book, so recovery
  /// never rescores folded history.
  Expected<bool, std::string> compact();

  /// The full recovered + appended reference set, in ingestion order —
  /// quarantined uploaders included (storage is not judgement).  Byte-equal
  /// to PointArrays built from the same points at once.
  const PointArrays& arrays() const { return arrays_; }
  ReferencePoint point(std::size_t h) const { return arrays_.point(h); }
  /// Every point decoded into a fresh vector: a copy of the whole store.
  std::vector<ReferencePoint> points() const;

  /// Uploader of each point, parallel to arrays().
  const std::vector<UploaderId>& uploaders() const { return uploaders_; }

  /// The serving view: every point whose uploader is not quarantined, in
  /// ingestion order.  This is what filtered epoch publishes fold into
  /// artifacts — the quarantine stage that keeps suspected poison out of the
  /// model while review is pending.
  PointArrays trusted_points() const;
  /// Points currently held out by quarantine (arrays() size minus trusted).
  std::size_t quarantined_point_count() const;

  /// Per-(cell, AP, uploader) RSSI statistics of arrays() (the
  /// robust-aggregation and reputation substrate), and the reputation ledger
  /// itself.
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

  /// Text codec for one journal payload ("east north traj_id n mac rssi
  /// ...", %.17g), which replication ships as is.  Provenance never rides
  /// the payload: the journal frame (v2) carries it, so payload bytes match
  /// v1 exactly.  decode_point is strict like parse_control:
  /// encode_point(decode_point(p)) == p for every payload it accepts.
  static std::string encode_point(const ReferencePoint& point);
  static Expected<ReferencePoint, std::string> decode_point(const std::string& line);

  /// Control-frame codec.  Payloads starting with '#' are reserved for
  /// control frames.  parse_control is strict — a known prefix, then a
  /// decimal u64 with no sign, leading zero or trailing byte — so
  /// encode_control(parse_control(p)) == p for every payload it accepts.
  static std::string encode_control(const ControlFrame& frame);
  static Expected<ControlFrame, std::string> parse_control(const std::string& payload);

 private:
  CrowdStore() = default;

  /// Score `point` against the robust consensus of its cells (self excluded),
  /// then fold it into every in-memory structure.  Shared bit-for-bit by the
  /// append path and journal replay.
  void ingest_state(const ReferencePoint& point, UploaderId uploader);
  void apply_control(const ControlFrame& frame);
  /// Fill arrays_ and uploaders_ from the snapshot's point record and refold
  /// the provenance grid over them in record order.  Refuses what
  /// PointArrays' image constructor refuses, a short uploader array and
  /// trailing bytes.
  Expected<bool, std::string> load_point_record(std::string_view record);

  std::string dir_;
  std::unique_ptr<durable::Journal> journal_;
  PointArrays arrays_;
  std::vector<UploaderId> uploaders_;  ///< parallel to arrays_
  ProvenanceGrid provenance_;
  ReputationBook reputation_;
  ReputationParams rep_params_;
  RobustAggregationParams agg_params_;
  UploaderRateLimiter rate_limiter_;
  std::uint64_t observed_epoch_ = 0;
  std::uint64_t observed_motion_epoch_ = 0;
  std::size_t journaled_ = 0;
  OpenStats open_stats_;
};

}  // namespace trajkit::wifi
