// The shard protocol over a net::Transport: remote followers, hedged segment
// reads, leader heartbeats, and leader-push WAL gap repair.
//
// This is the glue between serve/shard_service (which speaks FollowerLink /
// SegmentEvaluator) and src/net (which moves opaque request/response
// payloads).  Nothing here assumes a particular backend — the same classes
// run over SimNet in the chaos suite and over UDS between real processes.
//
// Client side (both run every RPC through one NetChannel loop):
//   RemoteFollower       FollowerLink over the wire, and the only gap-repair
//                        path: when an apply comes back kGap, or a
//                        heartbeat reply shows the follower behind, it
//                        re-ships the missing frames from the leader's own
//                        WAL under the leader's term.  Every repaired frame
//                        is therefore fenced exactly like a live one, and a
//                        follower that fell behind under a partition
//                        converges on the next heartbeat, with or without
//                        new writes.
//   RemoteSegmentClient  SegmentEvaluator over the wire with hedged fan-out:
//                        the primary endpoint gets a short hedge deadline;
//                        a straggler triggers the same request against the
//                        next replica endpoint (reads are idempotent, so
//                        hedging is free of write races).
//
// Server side:
//   make_follower_handler serves apply/hb onto a ShardReplica.
//   make_segment_handler  serves "seg" from a ShardService's RCU-snapshotted
//                         detector.
#pragma once

#include <atomic>
#include <cstdint>
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
  /// Straggler threshold for hedged reads: the primary gets this much, then
  /// the hedge fires against the next endpoint.  Only used with >1 endpoint.
  std::int64_t hedge_deadline_us = 10'000;
};

/// The one RPC loop every shard client runs, with its counters.  Attempts
/// move round-robin over `endpoints`; a retryable failure backs off by
/// backoff_delay_us(policy.retry, key, attempt) before the next attempt.
/// With more than one endpoint, attempt 0 is the hedge: it gets
/// hedge_deadline_us, and a straggler re-fires at the next endpoint at once,
/// with no backoff.  Every verb is idempotent (see net/rpc.hpp), so
/// re-sending is always safe.
class NetChannel {
 public:
  NetChannel(net::Transport& transport, std::vector<std::string> endpoints,
             NetCallPolicy policy, const Clock* clock);

  /// Send `request` until it succeeds, fails non-retryably or the attempts
  /// run out; returns the last result.  `key` seeds the backoff jitter and
  /// SimNet's fault draws.
  net::CallResult call(const std::string& request, std::uint64_t key);

  const std::string& primary() const { return endpoints_.front(); }
  /// rpcs/retries/timeouts/hedges; the shipping fields stay 0.
  NetClientStats stats() const;

 private:
  net::Transport& transport_;
  std::vector<std::string> endpoints_;
  NetCallPolicy policy_;
  const Clock* clock_;

  std::atomic<std::uint64_t> rpcs_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> hedges_{0};
};

/// FollowerLink over a Transport.  `leader_dir` is the shipping leader's
/// store directory: gap repair re-ships frames from a read-only scan of its
/// WAL (CrowdStore::journal_path), stamped with the term of the call that
/// found the gap.  A gap the WAL cannot cover (compacted into the snapshot)
/// fails with "compacted": the follower must re-bootstrap.
class RemoteFollower final : public FollowerLink {
 public:
  RemoteFollower(net::Transport& transport, std::string endpoint,
                 std::string leader_dir, NetCallPolicy policy = {},
                 const Clock* clock = nullptr);

  /// Ship one frame; on a kGap reply, push the missing frames first and
  /// ship it again.  Transport and decode failures come back as kError;
  /// every other answer is the follower's own.
  net::FrameResponse apply_frame(std::uint64_t seq, const std::string& payload,
                                 wifi::UploaderId uploader,
                                 std::uint64_t term) override;
  /// Renew the lease; when the reply shows the follower behind
  /// `leader_next_seq`, push [follower_next, leader_next_seq) and answer
  /// kApplied with the follower's next seq after the push.  A failed push
  /// (compacted WAL, a refused frame) fails the heartbeat, though the lease
  /// was renewed.
  net::FrameResponse heartbeat(std::uint64_t term,
                               std::uint64_t leader_next_seq) override;

  NetClientStats stats() const;
  const std::string& endpoint() const { return channel_.primary(); }

 private:
  /// One RPC through the channel, decoded; counts kFenced answers.
  net::FrameResponse roundtrip(const std::string& request, std::uint64_t key,
                               const std::string& what);
  net::FrameResponse ship(const net::ApplyRequest& request);
  /// Push frames [from, upto) from the leader WAL; kApplied/kStale carry
  /// the follower's next seq afterwards.
  net::FrameResponse push_backfill(std::uint64_t from, std::uint64_t upto,
                                   std::uint64_t term);

  NetChannel channel_;
  std::string leader_dir_;
  std::atomic<std::uint64_t> gap_backfills_{0};
  std::atomic<std::uint64_t> fenced_{0};
};

/// SegmentEvaluator over a Transport with hedged fan-out reads.  `endpoints`
/// lists replicas serving the same shard slice, primary first (NetChannel's
/// loop: hedge, then round-robin retries).  Throws FaultError when every
/// attempt fails — the router catches and falls back locally.
class RemoteSegmentClient final : public SegmentEvaluator {
 public:
  RemoteSegmentClient(net::Transport& transport,
                      std::vector<std::string> endpoints, std::size_t top_k,
                      NetCallPolicy policy = {}, const Clock* clock = nullptr);

  void evaluate(const wifi::ScannedUpload& upload, std::size_t begin,
                std::size_t end, double* features, double* scores) override;
  NetClientStats stats() const override { return channel_.stats(); }

 private:
  NetChannel channel_;
  std::size_t top_k_;
};

/// Serve "apply"/"hb" onto a follower replica: decode the request, call the
/// replica, encode its typed answer (a fenced frame or heartbeat answers
/// kFenced, a frame ahead of the replica's next seq kGap, which the leader
/// repairs).  Other verbs answer an RPC error.  `replica` must outlive the
/// handler.
net::Handler make_follower_handler(ShardReplica& replica);

/// Serve "seg" requests from a shard's detector (RCU snapshot per request).
/// A decoded upload that fails wifi::validate_upload is answered with an RPC
/// error.  Features/scores cross the wire as their own eight bytes — bit-
/// exact, so a remote segment is indistinguishable from a local one in the
/// merged verdict.
net::Handler make_segment_handler(const ShardService& shard);

}  // namespace trajkit::serve
