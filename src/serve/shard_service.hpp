// One geo-shard of the city-scale verification plane.
//
// The ShardRouter (serve/shard_router) partitions the crowdsourced reference
// world by map tile; each ShardService owns the slice of reference points
// whose tiles (plus a halo) hash to it, and optionally a durable CrowdStore
// for the shard's ingestion stream.  The slice detector is built under the
// *global* reference grid geometry (ReferenceIndex::natural_bounds of the
// unsharded set), which is what makes per-segment Eq. 8 features
// bitwise-equal to the single-shard oracle — see shard_router.hpp for the
// full equivalence argument.
//
// Replication: a leader shard ships every accepted write-ahead frame
// (seq + CrowdStore point encoding) to its attached ShardReplica followers
// and acknowledges the upload only after each follower has durably applied
// it.  Frames are applied through the journal's seq discipline — a stale seq
// is skipped (idempotent redelivery), a gapped seq is refused — so a
// follower can also cold-start from a copy of the leader's snapshot plus a
// read-only scan of its journal tail (durable::Journal::read_records) and
// converge on exactly the acknowledged prefix.  After a leader kill the
// promoted follower is just a CrowdStore directory: VerifierService::
// try_create_from_store (or a fresh ShardService) serves from it and
// reproduces bit-identical verdicts, which tests/shard_test.cpp proves by
// crashing the leader at every shipping fault point.
//
// Serving: the slice detector and the epoch live in one
// EpochedDetector — the same holder VerifierService serves from — so a
// follower's epoch adoption (refresh_from_store) is the service's publish
// minus the artifact commit.  Segment evaluation runs on the caller's thread
// (the router fans out synchronously); a shard never spawns threads, so
// fork-based crash harnesses can build shards in a child.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/expected.hpp"
#include "gbt/booster.hpp"
#include "serve/epoched_detector.hpp"
#include "serve/rpd_lru_cache.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"

namespace trajkit::serve {

/// Fault/crash points on the replication shipping path, keyed by the frame
/// seq, in execution order.  kFaultShipFrame fires after the leader's durable
/// append but before the follower sees the frame (a crash there loses the
/// in-flight frame — safe, the upload was never acknowledged);
/// kFaultShipApplied fires after the follower durably applied it but before
/// the acknowledgement (a crash there leaves an unacked-but-replicated frame
/// — the at-least-once shape seq-skip redelivery absorbs).
inline constexpr const char* kFaultShipFrame = "shard.ship_frame";
inline constexpr const char* kFaultShipApplied = "shard.ship_applied";

/// Every shipping fault point, for harnesses that walk the failover matrix.
inline constexpr const char* kShipFaultPoints[] = {kFaultShipFrame,
                                                   kFaultShipApplied};

/// How a leader reaches one follower.  ShardReplica implements it in-process
/// (the PR 6 shape); serve/net_shard's RemoteFollower implements it over a
/// net::Transport with deadlines, bounded retry and gap backfill.  Either
/// way the contract is the same: apply_frame returns only after the frame is
/// durable on the follower (or describes why it is not), and both calls are
/// fenced by `term` — a deposed leader's traffic is refused, never applied.
class FollowerLink {
 public:
  virtual ~FollowerLink() = default;

  /// Durably apply one seq-stamped frame under the leader's term.  True =
  /// appended, false = stale seq (idempotent redelivery).
  virtual Expected<bool, std::string> apply_frame(std::uint64_t seq,
                                                  const std::string& payload,
                                                  wifi::UploaderId uploader,
                                                  std::uint64_t term) = 0;

  /// Lease renewal: deliver (term, leader_next_seq) so the follower can
  /// refresh its lease clock and spot its own replication lag.  Returns the
  /// follower's next expected seq.
  virtual Expected<std::uint64_t, std::string> heartbeat(
      std::uint64_t term, std::uint64_t leader_next_seq) = 0;
};

/// Follower end of shard replication: a durable CrowdStore that only accepts
/// seq-stamped frames shipped from its leader.
///
/// Lease + fencing: the replica tracks the highest leader term it has seen
/// (frames and heartbeats both carry one) and refuses anything from an older
/// term — after a partition heals, a deposed leader cannot overwrite what
/// the promoted one replicated (split-brain fencing).  leader_alive() turns
/// heartbeat receipt into failure detection: a follower whose lease lapsed
/// may promote() (bumping the term) without the fork+kill-only path PR 6
/// needed.  The clock is injectable so lease tests advance time manually.
class ShardReplica : public FollowerLink {
 public:
  /// Open (creating if needed) a follower store rooted at `dir`.
  static Expected<std::unique_ptr<ShardReplica>, std::string> open(
      const std::string& dir, bool sync_each_append = true);

  /// Cold-start a follower from a running or dead leader's on-disk state:
  /// atomically copy the leader snapshot (if any), then replay the leader's
  /// journal tail read-only through apply_frame — stale records skip, so
  /// rerunning after a partial bootstrap converges instead of duplicating.
  static Expected<std::unique_ptr<ShardReplica>, std::string> bootstrap(
      const std::string& leader_dir, const std::string& dir,
      bool sync_each_append = true);

  /// Durably apply one shipped frame.  Returns true when the frame was
  /// appended, false when `seq` is stale (already applied — idempotent
  /// redelivery); a gap (`seq` beyond the next expected) is an error, the
  /// follower must re-bootstrap rather than silently lose frames.  Control
  /// frames ('#' payloads — epoch markers, quarantine reviews) re-journal
  /// verbatim through the follower store's append_control, so followers
  /// learn about published epochs and review actions from the same WAL
  /// shipping that carries the points.  `uploader` is the frame's provenance
  /// stamp; the follower re-journals it unchanged, so a
  /// promoted follower scores and quarantines exactly like its leader.
  /// `term` below the highest term seen is refused ("fenced").  Safe to call
  /// from concurrent transport threads (one frame applies at a time).
  Expected<bool, std::string> apply_frame(
      std::uint64_t seq, const std::string& payload,
      wifi::UploaderId uploader = wifi::kAnonymousUploader,
      std::uint64_t term = 0) override;

  /// Record a leader heartbeat: fences stale terms, refreshes the lease
  /// clock, remembers the leader's next seq (the follower's gap detector).
  Expected<std::uint64_t, std::string> heartbeat(
      std::uint64_t term, std::uint64_t leader_next_seq) override;

  /// Lease check: a heartbeat arrived within the last `lease_us`.  False
  /// before the first heartbeat.
  bool leader_alive(std::int64_t lease_us) const;
  /// Bump past every term seen and return the new term — the replica is now
  /// fenced against its old leader.  (In-memory: a real multi-node election
  /// would journal the vote; here promotion is the test- and operator-driven
  /// takeover path.)
  std::uint64_t promote();
  /// Highest leader term observed (frames + heartbeats).
  std::uint64_t term() const { return term_seen_.load(); }
  /// Leader's next seq from the last heartbeat (0 before the first): when it
  /// runs ahead of next_seq(), this follower has a gap to repair.
  std::uint64_t leader_next_seen() const { return leader_next_seen_.load(); }

  /// Substitute a manual clock for lease tests; must outlive the replica.
  void set_clock(const Clock* clock) { clock_ = clock; }

  /// Seq of the next frame this follower expects.
  std::uint64_t next_seq() const { return store_->next_seq(); }
  const wifi::CrowdStore& store() const { return *store_; }
  const std::string& dir() const { return dir_; }

 private:
  ShardReplica(std::string dir, std::unique_ptr<wifi::CrowdStore> store)
      : dir_(std::move(dir)), store_(std::move(store)) {}

  std::string dir_;
  std::unique_ptr<wifi::CrowdStore> store_;
  /// Serializes frame application across transport threads.
  std::mutex apply_mu_;
  const Clock* clock_ = &steady_clock();
  std::atomic<std::uint64_t> term_seen_{0};
  std::atomic<std::uint64_t> leader_next_seen_{0};
  std::atomic<std::int64_t> last_heartbeat_us_{-1};
};

/// required_follower_acks sentinel: every attached follower must ack.
inline constexpr std::size_t kAllFollowers = static_cast<std::size_t>(-1);

struct ShardServiceConfig {
  /// Followers that must durably hold a frame before ingest acknowledges it.
  /// kAllFollowers (default) preserves the PR 6 contract.  A smaller quorum
  /// keeps ingestion available while a follower is partitioned — the lagging
  /// follower develops a WAL gap and converges later through gap repair
  /// (serve/net_shard), never by silently skipping frames.
  std::size_t required_follower_acks = kAllFollowers;
};

class ShardService {
 public:
  /// Verification shard over a pre-sliced reference set.  `index_bounds`
  /// must be the global set's grid extent (oracle index().bounds()) for the
  /// bitwise-equivalence contract to hold.  Never spawns threads.
  ShardService(std::size_t shard_id, std::vector<wifi::ReferencePoint> slice,
               const wifi::RssiDetectorConfig& config,
               gbt::GbtClassifier classifier, std::size_t trained_points,
               const BoundingBox& index_bounds, ShardServiceConfig cfg = {});

  /// Ingestion-only leader shard: owns the durable CrowdStore at `dir`, no
  /// detector (verification capacity comes from promotion / reassembly).
  static Expected<std::unique_ptr<ShardService>, std::string> open_leader(
      std::size_t shard_id, const std::string& dir, bool sync_each_append = true,
      ShardServiceConfig cfg = {});

  ShardService(const ShardService&) = delete;
  ShardService& operator=(const ShardService&) = delete;

  std::size_t shard_id() const { return shard_id_; }
  bool has_detector() const { return detector_snapshot() != nullptr; }
  /// Shared-ownership handle on the shard's live detector (RCU snapshot):
  /// holders keep their epoch alive across a concurrent refresh.
  std::shared_ptr<const wifi::RssiDetector> detector_snapshot() const {
    return epoched_.detector();
  }
  /// The live detector; requires has_detector().  Does not pin the epoch —
  /// prefer detector_snapshot() when a hot-swap may run concurrently.
  const wifi::RssiDetector& detector() const { return *detector_snapshot(); }
  /// Inert seam kept for servebench: an always-empty cache, never null.
  const ShardedRpdLruCache* cache() const {
    static const ShardedRpdLruCache kInert;
    return &kInert;
  }
  /// The shard's durable store (null for a pure verification slice).
  const wifi::CrowdStore* store() const { return store_.get(); }
  /// Model epoch this shard currently serves (0 until a refresh/adopt).
  std::uint64_t epoch() const { return epoched_.epoch(); }

  // -- Ingestion + replication (requires a store) ---------------------------

  /// Attach a follower link (in-process ShardReplica or a net_shard
  /// RemoteFollower); not owned, must outlive the shard.  Every subsequent
  /// ingest is acknowledged only after the configured quorum of followers
  /// durably applied it.
  void attach_follower(FollowerLink* follower);

  /// Validate + leader-durable append + ship to every follower; returns the
  /// acknowledged seq.  The returned seq is the durability promise: a
  /// crash anywhere inside — leader WAL, shipping, follower WAL — can only
  /// lose frames that were never returned.  `uploader` stamps the frame's
  /// provenance end to end (leader WAL, wire, follower WALs).  With the
  /// default all-follower quorum any follower failure fails the ingest; a
  /// smaller quorum tolerates partitioned followers (they fall behind and
  /// gap-repair later).
  Expected<std::uint64_t, std::string> ingest(
      const wifi::ReferencePoint& point,
      wifi::UploaderId uploader = wifi::kAnonymousUploader);

  /// Renew every follower's leader lease (term + leader next seq).  Returns
  /// the number of followers that answered; shipping failures are recorded
  /// in follower_failures().
  std::size_t send_heartbeats();

  /// The term this leader stamps on frames and heartbeats.  Raise it when a
  /// shard resumes leadership after a takeover so the old leader is fenced.
  std::uint64_t term() const { return term_; }
  void set_term(std::uint64_t term) { term_ = term; }

  std::size_t follower_count() const { return followers_.size(); }
  /// Ship/heartbeat failures per attached follower (index = attach order).
  const std::vector<std::uint64_t>& follower_failures() const {
    return follower_failures_;
  }
  /// Last failure message per follower ("" when it never failed).
  const std::vector<std::string>& follower_errors() const {
    return follower_errors_;
  }

  /// Fold the leader store's journal into its snapshot (follower bootstraps
  /// read both, so compaction is transparent to replication).
  Expected<bool, std::string> compact();

  /// Frames acknowledged through ingest() so far.
  std::uint64_t acked_frames() const { return acked_; }

  /// Journal + ship an epoch control frame ("#epoch N") exactly like a point
  /// frame: leader-durable first, then applied on every follower before the
  /// call returns.  The primary's publish path calls this after committing
  /// the epoch's artifact.
  Expected<std::uint64_t, std::string> ship_epoch_marker(std::uint64_t epoch);

  /// Journal + ship a motion-model epoch marker ("#motion_epoch N"): the
  /// quantized motion classifier was published under ArtifactStore epoch N.
  /// Followers observe it through the same WAL shipping as point frames and
  /// load the artifact from their own store at that epoch.
  Expected<std::uint64_t, std::string> ship_motion_marker(std::uint64_t epoch);

  /// Journal + ship any '#' control frame (epoch markers, "#quarantine U",
  /// "#clear U" review actions) with the same leader-durable-then-followers
  /// discipline and fault points as point frames, so quarantine state stays
  /// converged across the replica set.
  Expected<std::uint64_t, std::string> ship_control(const std::string& payload);

  // -- Epoch hot-swap -------------------------------------------------------

  /// Arm verification on a store-backed shard (the promoted-follower shape):
  /// assemble a detector over the store's recovered points under the given
  /// classifier/config and `index_bounds`, and adopt the store's observed
  /// epoch.  Requires a store and no existing detector.
  Expected<bool, std::string> arm_verification(
      const wifi::RssiDetectorConfig& config, gbt::GbtClassifier classifier,
      std::size_t trained_points, const BoundingBox& index_bounds);

  /// Follower epoch adoption: after WAL frames (points + an "#epoch N"
  /// marker) landed in the store, build the next epoch over the store's
  /// current points (EpochedDetector::build_next: the store must extend the
  /// serving slice; the index keeps its pinned grid bounds) and flip to the
  /// marker's epoch without dropping in-flight segments.  `epoch` = 0 adopts
  /// store()->observed_epoch().  Requires a store and an armed detector.
  Expected<std::uint64_t, std::string> refresh_from_store(std::uint64_t epoch = 0);

  // -- Segment evaluation (requires a detector) -----------------------------

  /// Evaluate points [begin, end) of `upload` on the calling thread, writing
  /// the Eq. 8 feature slots (2 * top_k * (end - begin) doubles) and the
  /// per-point scores (end - begin) to caller-provided storage.
  void evaluate_segment(const wifi::ScannedUpload& upload, std::size_t begin,
                        std::size_t end, double* features, double* scores) const;

  /// Segments this shard evaluated.
  std::uint64_t segments_evaluated() const { return segments_.load(); }

 private:
  ShardService(std::size_t shard_id, std::unique_ptr<wifi::CrowdStore> store,
               ShardServiceConfig cfg);

  /// Shared shipping discipline for point and control frames: fault points,
  /// per-follower failure accounting, quorum check, acked_ bump.
  Expected<std::uint64_t, std::string> ship_to_followers(
      std::uint64_t seq, const std::string& payload, wifi::UploaderId uploader);
  std::size_t required_acks() const;

  std::size_t shard_id_ = 0;
  // Segment evaluation snapshots once per segment and never blocks a flip.
  EpochedDetector epoched_;
  std::unique_ptr<wifi::CrowdStore> store_;
  std::vector<FollowerLink*> followers_;
  std::vector<std::uint64_t> follower_failures_;
  std::vector<std::string> follower_errors_;
  std::size_t required_follower_acks_ = kAllFollowers;
  std::uint64_t term_ = 0;
  std::uint64_t acked_ = 0;

  mutable std::atomic<std::uint64_t> segments_{0};
};

}  // namespace trajkit::serve
