// The shard protocol over a net::Transport: remote followers, hedged segment
// reads, leader heartbeats, and post-heal WAL gap repair.
//
// This is the glue between serve/shard_service (which speaks FollowerLink /
// SegmentEvaluator) and src/net (which moves opaque request/response
// payloads).  Nothing here assumes a particular backend — the same classes
// run over SimNet in the chaos suite and over UDS between real processes.
//
// Client side:
//   RemoteFollower       FollowerLink over the wire: per-RPC deadline,
//                        bounded retry with the PR 3 deterministic-jitter
//                        backoff, and leader-push gap backfill — on a "gap"
//                        response it re-ships the missing journal tail from
//                        the leader's own WAL, then the original frame, so a
//                        follower that fell behind under a one-way partition
//                        converges as soon as traffic resumes.
//   RemoteSegmentClient  SegmentEvaluator over the wire with hedged fan-out:
//                        the primary endpoint gets a short hedge deadline;
//                        a straggler triggers the same request against the
//                        next replica endpoint (reads are idempotent, so
//                        hedging is free of write races).
//
// Server side:
//   FollowerNode         binds a ShardReplica behind a handler (apply/hb
//                        verbs), and owns the *pull* half of gap repair:
//                        when a frame or heartbeat reveals the replica is
//                        behind, it requests a targeted journal-tail
//                        backfill from the leader's tail endpoint and
//                        applies it through the normal seq discipline.
//   make_tail_handler    serves "tail" requests from a leader WAL directory
//                        (read-only Journal scan — works against a live or
//                        dead leader, exactly like replica bootstrap).
//   make_segment_handler serves "seg" requests from a ShardService's
//                        RCU-snapshotted detector.
//   ShardNode            one endpoint per process: dispatches all verbs to
//                        the parts a node actually has.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/expected.hpp"
#include "net/rpc.hpp"
#include "net/transport.hpp"
#include "serve/shard_router.hpp"
#include "serve/shard_service.hpp"

namespace trajkit::serve {

/// Deadline/retry/hedge policy for shard RPCs.  `retry` reuses the serving
/// layer's RetryPolicy verbatim — same bounded count, and the same
/// backoff_delay_us keyed by (jitter_seed, RPC key, attempt), so chaos runs
/// replay.
struct NetCallPolicy {
  RetryPolicy retry;
  std::int64_t rpc_deadline_us = 50'000;
  /// Straggler threshold for hedged segment reads: the primary gets this
  /// much, then the hedge fires against the next endpoint.  Only meaningful
  /// with >1 endpoint.
  std::int64_t hedge_deadline_us = 10'000;
  /// Frames per tail RPC during gap repair (bounds response size).
  std::uint64_t tail_chunk = 1024;
};

/// Transport-side counters a remote client accumulates.
struct NetClientStats {
  std::uint64_t rpcs = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t hedges = 0;
  std::uint64_t gap_backfills = 0;
  std::uint64_t fenced = 0;
};

/// FollowerLink over a Transport.  apply_frame/heartbeat ship the RPC with
/// deadline + bounded deterministic retry; set_backfill_journal arms the
/// leader-push half of gap repair.
class RemoteFollower final : public FollowerLink {
 public:
  RemoteFollower(net::Transport& transport, std::string endpoint,
                 NetCallPolicy policy = {}, const Clock* clock = nullptr);

  /// Arm leader-push backfill: on a "gap" response, re-ship the missing
  /// frames from this leader WAL directory (read-only journal scan), then
  /// the original frame.  Without it a gap is just reported as failure.
  void set_backfill_journal(std::string leader_dir);

  Expected<bool, std::string> apply_frame(std::uint64_t seq,
                                          const std::string& payload,
                                          wifi::UploaderId uploader,
                                          std::uint64_t term) override;
  Expected<std::uint64_t, std::string> heartbeat(
      std::uint64_t term, std::uint64_t leader_next_seq) override;

  NetClientStats stats() const;
  const std::string& endpoint() const { return endpoint_; }

 private:
  net::CallResult call_with_retry(const std::string& request, std::uint64_t key);
  Expected<net::FrameResponse, std::string> apply_roundtrip(
      const net::ApplyRequest& request);
  /// Push frames [from, upto) from the backfill journal to the follower.
  Expected<bool, std::string> push_backfill(std::uint64_t from,
                                            std::uint64_t upto,
                                            std::uint64_t term);

  net::Transport& transport_;
  std::string endpoint_;
  NetCallPolicy policy_;
  const Clock* clock_;
  std::string backfill_dir_;

  std::atomic<std::uint64_t> rpcs_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> gap_backfills_{0};
  std::atomic<std::uint64_t> fenced_{0};
};

/// SegmentEvaluator over a Transport with hedged fan-out reads.  `endpoints`
/// lists replicas serving the same shard slice, primary first; the primary
/// gets hedge_deadline_us (when alternatives exist), stragglers hedge to the
/// next endpoint, and remaining retries round-robin.  Throws FaultError when
/// every attempt fails — the router catches and falls back locally.
class RemoteSegmentClient final : public SegmentEvaluator {
 public:
  RemoteSegmentClient(net::Transport& transport,
                      std::vector<std::string> endpoints, std::size_t top_k,
                      NetCallPolicy policy = {}, const Clock* clock = nullptr);

  void evaluate(const wifi::ScannedUpload& upload, std::size_t begin,
                std::size_t end, double* features, double* scores) override;
  Stats stats() const override;

 private:
  net::Transport& transport_;
  std::vector<std::string> endpoints_;
  std::size_t top_k_;
  NetCallPolicy policy_;
  const Clock* clock_;

  std::atomic<std::uint64_t> rpcs_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> hedges_{0};
};

/// Follower-side server: dispatches apply/hb onto a ShardReplica and, when a
/// leader tail endpoint is configured, pulls targeted journal backfills to
/// close its own gaps (detected from an ahead-of-us frame seq or heartbeat
/// leader_next).
class FollowerNode {
 public:
  explicit FollowerNode(ShardReplica& replica);
  /// With a transport + the leader's tail endpoint, the node self-repairs.
  FollowerNode(ShardReplica& replica, net::Transport& transport,
               std::string leader_tail_endpoint, NetCallPolicy policy = {},
               const Clock* clock = nullptr);

  /// The verb dispatcher to bind on this node's endpoint.
  net::Handler handler();

  /// Pull the leader's journal tail from next_seq() forward and apply it
  /// (chunked; loops to convergence).  Returns the new next_seq.  Errors
  /// when no tail endpoint is configured, the transport fails after
  /// retries, or the requested tail was compacted away (the follower must
  /// re-bootstrap from a snapshot — repair cannot invent folded frames).
  Expected<std::uint64_t, std::string> pull_repair();

  /// pull_repair() only when the last heartbeat showed the leader ahead —
  /// the post-heal convergence step a follower runs on its lease timer.
  Expected<std::uint64_t, std::string> repair_if_behind();

  NetClientStats stats() const;
  ShardReplica& replica() { return replica_; }

 private:
  std::string handle(const std::string& request);
  std::string handle_apply(const std::string& request);
  std::string handle_heartbeat(const std::string& request);

  ShardReplica& replica_;
  net::Transport* transport_ = nullptr;
  std::string leader_tail_endpoint_;
  NetCallPolicy policy_;
  const Clock* clock_ = &steady_clock();

  std::atomic<std::uint64_t> rpcs_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> gap_repairs_{0};
};

/// Serve "tail" requests from a WAL directory: a read-only journal scan per
/// request (never an append fd), so it works against live and dead leaders
/// alike.  Responds "err compacted ..." when from_seq predates the journal
/// (frames folded into the snapshot) — the client must re-bootstrap.
net::Handler make_tail_handler(std::string wal_dir);

/// Serve "seg" requests from a shard's detector (RCU snapshot per request).
/// A decoded upload that fails wifi::validate_upload is answered with an RPC
/// error.  Features/scores round-trip through %.17g text — bit-exact, so a
/// remote segment is indistinguishable from a local one in the merged
/// verdict.
net::Handler make_segment_handler(const ShardService& shard);

/// One endpoint per process: dispatch every verb this node can serve.
/// Unhandled verbs answer "err ...".  Any part may be absent.
class ShardNode {
 public:
  ShardNode() = default;

  void serve_follower(std::shared_ptr<FollowerNode> follower);
  void serve_tail(std::string wal_dir);
  void serve_segments(const ShardService* shard);

  net::Handler handler();

 private:
  std::shared_ptr<FollowerNode> follower_;
  net::Handler tail_;
  net::Handler segments_;
};

}  // namespace trajkit::serve
