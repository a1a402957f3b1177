#include "serve/net_shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

namespace trajkit::serve {
namespace {

/// Keys for different verbs live in disjoint substream ranges, so an apply
/// retried at seq K and a heartbeat carrying leader_next K never share a
/// SimNet fault fate.
constexpr std::uint64_t kHeartbeatKeySalt = 0x6862ull << 48;
constexpr std::uint64_t kTailKeySalt = 0x7461696cull << 24;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One RPC with deadline + bounded deterministic-backoff retry.  Counters
/// are the caller's atomics (the per-client stats surface).
net::CallResult call_with_retry_impl(
    net::Transport& transport, const std::string& endpoint,
    const std::string& request, std::uint64_t key, const NetCallPolicy& policy,
    const Clock& clock, std::atomic<std::uint64_t>& rpcs,
    std::atomic<std::uint64_t>& retries, std::atomic<std::uint64_t>& timeouts) {
  net::CallResult result;
  const std::size_t attempts = policy.retry.max_retries + 1;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    rpcs.fetch_add(1, std::memory_order_relaxed);
    result = transport.call(endpoint, request,
                            {policy.rpc_deadline_us, key, attempt});
    if (result.ok()) return result;
    if (result.status == net::CallStatus::kTimeout) {
      timeouts.fetch_add(1, std::memory_order_relaxed);
    }
    if (!result.retryable() || attempt + 1 == attempts) break;
    retries.fetch_add(1, std::memory_order_relaxed);
    clock.sleep_us(backoff_delay_us(policy.retry, key, attempt));
  }
  return result;
}

}  // namespace

// ---------------------------------------------------------------------------
// RemoteFollower

RemoteFollower::RemoteFollower(net::Transport& transport, std::string endpoint,
                               NetCallPolicy policy, const Clock* clock)
    : transport_(transport),
      endpoint_(std::move(endpoint)),
      policy_(policy),
      clock_(clock != nullptr ? clock : &steady_clock()) {}

void RemoteFollower::set_backfill_journal(std::string leader_dir) {
  backfill_dir_ = std::move(leader_dir);
}

net::CallResult RemoteFollower::call_with_retry(const std::string& request,
                                                std::uint64_t key) {
  return call_with_retry_impl(transport_, endpoint_, request, key, policy_,
                              *clock_, rpcs_, retries_, timeouts_);
}

Expected<net::FrameResponse, std::string> RemoteFollower::apply_roundtrip(
    const net::ApplyRequest& request) {
  using Result = Expected<net::FrameResponse, std::string>;
  const net::CallResult result =
      call_with_retry(net::encode_apply(request), request.seq);
  if (!result.ok()) {
    return Result::failure("shard net: apply seq " +
                           std::to_string(request.seq) + " to " + endpoint_ +
                           ": " + result.payload);
  }
  auto response = net::decode_frame_response(result.payload);
  if (!response) return Result::failure("shard net: " + response.error());
  return response;
}

Expected<bool, std::string> RemoteFollower::push_backfill(std::uint64_t from,
                                                          std::uint64_t upto,
                                                          std::uint64_t term) {
  using Result = Expected<bool, std::string>;
  auto tail = durable::Journal::read_records(
      wifi::CrowdStore::journal_path(backfill_dir_),
      wifi::CrowdStore::journal_tag());
  if (!tail) return Result::failure("shard net: backfill: " + tail.error());
  std::uint64_t expected = from;
  for (const auto& record : tail.value().records) {
    if (record.seq < from) continue;
    if (record.seq >= upto) break;
    if (record.seq != expected) {
      return Result::failure(
          "shard net: backfill: journal tail skips seq " +
          std::to_string(expected) +
          " (compacted) — follower must re-bootstrap");
    }
    auto response =
        apply_roundtrip({term, record.seq, record.uploader, record.payload});
    if (!response) return Result::failure(response.error());
    const auto status = response.value().status;
    if (status != net::FrameResponse::Status::kApplied &&
        status != net::FrameResponse::Status::kStale) {
      // A gap *inside* the backfill would mean the journal itself cannot
      // cover the follower's hole — do not recurse.
      return Result::failure("shard net: backfill seq " +
                             std::to_string(record.seq) + " refused");
    }
    ++expected;
  }
  if (expected < upto) {
    return Result::failure("shard net: backfill: journal tail ends at seq " +
                           std::to_string(expected) + ", frame needs " +
                           std::to_string(upto) +
                           " (compacted) — follower must re-bootstrap");
  }
  return true;
}

Expected<bool, std::string> RemoteFollower::apply_frame(
    std::uint64_t seq, const std::string& payload, wifi::UploaderId uploader,
    std::uint64_t term) {
  using Result = Expected<bool, std::string>;
  const net::ApplyRequest request{term, seq, uploader, payload};
  auto response = apply_roundtrip(request);
  if (response && response.value().status == net::FrameResponse::Status::kGap &&
      !backfill_dir_.empty()) {
    // Leader-push gap repair: the follower is missing [its next, seq) — ship
    // that journal tail, then the original frame again.
    gap_backfills_.fetch_add(1, std::memory_order_relaxed);
    auto filled = push_backfill(response.value().value, seq, term);
    if (!filled) return Result::failure(filled.error());
    response = apply_roundtrip(request);
  }
  if (!response) return Result::failure(response.error());
  switch (response.value().status) {
    case net::FrameResponse::Status::kApplied:
      return true;
    case net::FrameResponse::Status::kStale:
      return false;
    case net::FrameResponse::Status::kGap:
      return Result::failure(
          "shard net: follower " + endpoint_ + " gap at seq " +
          std::to_string(seq) + " (expects " +
          std::to_string(response.value().value) + ", no backfill journal)");
    case net::FrameResponse::Status::kFenced:
      fenced_.fetch_add(1, std::memory_order_relaxed);
      return Result::failure(
          "shard net: fenced by follower " + endpoint_ + " (term " +
          std::to_string(response.value().value) + ")");
    case net::FrameResponse::Status::kError:
      return Result::failure("shard net: " + response.value().error);
  }
  return Result::failure("shard net: unreachable");
}

Expected<std::uint64_t, std::string> RemoteFollower::heartbeat(
    std::uint64_t term, std::uint64_t leader_next_seq) {
  using Result = Expected<std::uint64_t, std::string>;
  const net::CallResult result =
      call_with_retry(net::encode_heartbeat({term, leader_next_seq}),
                      kHeartbeatKeySalt ^ leader_next_seq);
  if (!result.ok()) {
    return Result::failure("shard net: heartbeat to " + endpoint_ + ": " +
                           result.payload);
  }
  auto response = net::decode_frame_response(result.payload);
  if (!response) return Result::failure("shard net: " + response.error());
  switch (response.value().status) {
    case net::FrameResponse::Status::kApplied:
      return response.value().value;
    case net::FrameResponse::Status::kFenced:
      fenced_.fetch_add(1, std::memory_order_relaxed);
      return Result::failure("shard net: heartbeat fenced by " + endpoint_ +
                             " (term " +
                             std::to_string(response.value().value) + ")");
    default:
      return Result::failure("shard net: heartbeat: " +
                             response.value().error);
  }
}

NetClientStats RemoteFollower::stats() const {
  NetClientStats s;
  s.rpcs = rpcs_.load();
  s.retries = retries_.load();
  s.timeouts = timeouts_.load();
  s.gap_backfills = gap_backfills_.load();
  s.fenced = fenced_.load();
  return s;
}

// ---------------------------------------------------------------------------
// RemoteSegmentClient

RemoteSegmentClient::RemoteSegmentClient(net::Transport& transport,
                                         std::vector<std::string> endpoints,
                                         std::size_t top_k,
                                         NetCallPolicy policy,
                                         const Clock* clock)
    : transport_(transport),
      endpoints_(std::move(endpoints)),
      top_k_(top_k),
      policy_(policy),
      clock_(clock != nullptr ? clock : &steady_clock()) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("RemoteSegmentClient: need an endpoint");
  }
}

void RemoteSegmentClient::evaluate(const wifi::ScannedUpload& upload,
                                   std::size_t begin, std::size_t end,
                                   double* features, double* scores) {
  if (begin > end || end > upload.positions.size() ||
      upload.positions.size() != upload.scans.size()) {
    throw std::invalid_argument("RemoteSegmentClient: bad segment bounds");
  }
  const std::size_t n = end - begin;
  net::SegmentRequest request;
  request.top_k = top_k_;
  request.upload.source_traj_id = upload.source_traj_id;
  const auto b = static_cast<std::ptrdiff_t>(begin);
  const auto e = static_cast<std::ptrdiff_t>(end);
  request.upload.positions.assign(upload.positions.begin() + b,
                                  upload.positions.begin() + e);
  request.upload.scans.assign(upload.scans.begin() + b,
                              upload.scans.begin() + e);
  const std::string encoded = net::encode_segment(request);
  // The fault-determinism key is the request's own bytes: stable across
  // thread schedules, distinct across segments.
  const std::uint64_t key = fnv1a(encoded);

  const bool can_hedge = endpoints_.size() > 1;
  const std::size_t attempts = policy_.retry.max_retries + 1;
  std::string last_error = "no attempt ran";
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    // Primary first with the short straggler deadline; the hedge fires the
    // same request at the next replica, and later retries round-robin.
    const std::string& endpoint = endpoints_[attempt % endpoints_.size()];
    const std::int64_t deadline = (attempt == 0 && can_hedge)
                                      ? policy_.hedge_deadline_us
                                      : policy_.rpc_deadline_us;
    rpcs_.fetch_add(1, std::memory_order_relaxed);
    const net::CallResult result =
        transport_.call(endpoint, encoded, {deadline, key, attempt});
    if (result.ok()) {
      auto response = net::decode_segment_response(result.payload);
      if (!response) {
        // Application-level refusal (no detector armed, decode failure):
        // retrying the same bytes cannot help.
        throw std::runtime_error("shard net: segment: " + response.error());
      }
      if (response.value().features.size() != 2 * top_k_ * n ||
          response.value().scores.size() != n) {
        throw std::runtime_error("shard net: segment response shape mismatch");
      }
      std::copy(response.value().features.begin(),
                response.value().features.end(), features);
      std::copy(response.value().scores.begin(), response.value().scores.end(),
                scores);
      return;
    }
    last_error = result.payload;
    if (result.status == net::CallStatus::kTimeout) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!result.retryable() || attempt + 1 == attempts) break;
    if (attempt == 0 && can_hedge) {
      // The hedge fires immediately — backing off would defeat its purpose.
      hedges_.fetch_add(1, std::memory_order_relaxed);
    } else {
      retries_.fetch_add(1, std::memory_order_relaxed);
      clock_->sleep_us(backoff_delay_us(policy_.retry, key, attempt));
    }
  }
  throw FaultError("shard net: segment evaluation failed: " + last_error);
}

SegmentEvaluator::Stats RemoteSegmentClient::stats() const {
  Stats s;
  s.rpcs = rpcs_.load();
  s.retries = retries_.load();
  s.timeouts = timeouts_.load();
  s.hedges = hedges_.load();
  return s;
}

// ---------------------------------------------------------------------------
// FollowerNode

FollowerNode::FollowerNode(ShardReplica& replica) : replica_(replica) {}

FollowerNode::FollowerNode(ShardReplica& replica, net::Transport& transport,
                           std::string leader_tail_endpoint,
                           NetCallPolicy policy, const Clock* clock)
    : replica_(replica),
      transport_(&transport),
      leader_tail_endpoint_(std::move(leader_tail_endpoint)),
      policy_(policy),
      clock_(clock != nullptr ? clock : &steady_clock()) {}

net::Handler FollowerNode::handler() {
  return [this](const std::string& request) { return handle(request); };
}

std::string FollowerNode::handle(const std::string& request) {
  switch (net::peek_verb(request)) {
    case net::Verb::kApply:
      return handle_apply(request);
    case net::Verb::kHeartbeat:
      return handle_heartbeat(request);
    default:
      return net::encode_rpc_error("follower: unhandled verb");
  }
}

std::string FollowerNode::handle_apply(const std::string& request) {
  auto decoded = net::decode_apply(request);
  if (!decoded) return net::encode_rpc_error(decoded.error());
  const net::ApplyRequest& req = decoded.value();
  // Self-repair before refusing: when the frame is ahead of us and a leader
  // tail endpoint is configured, pull the missing frames first — the normal
  // post-heal resume then succeeds on its first ship instead of bouncing
  // through a gap response.
  if (transport_ != nullptr && req.seq > replica_.next_seq()) {
    (void)pull_repair();  // a failed pull falls through to the gap response
  }
  auto applied =
      replica_.apply_frame(req.seq, req.payload, req.uploader, req.term);
  net::FrameResponse response;
  if (applied) {
    response.status = applied.value() ? net::FrameResponse::Status::kApplied
                                      : net::FrameResponse::Status::kStale;
    response.value = replica_.next_seq();
  } else if (req.seq > replica_.next_seq()) {
    response.status = net::FrameResponse::Status::kGap;
    response.value = replica_.next_seq();
  } else if (applied.error().find("fenced") != std::string::npos) {
    response.status = net::FrameResponse::Status::kFenced;
    response.value = replica_.term();
  } else {
    response.status = net::FrameResponse::Status::kError;
    response.error = applied.error();
  }
  return net::encode_frame_response(response);
}

std::string FollowerNode::handle_heartbeat(const std::string& request) {
  auto decoded = net::decode_heartbeat(request);
  if (!decoded) return net::encode_rpc_error(decoded.error());
  auto acked =
      replica_.heartbeat(decoded.value().term, decoded.value().leader_next_seq);
  net::FrameResponse response;
  if (acked) {
    response.status = net::FrameResponse::Status::kApplied;
    response.value = acked.value();
  } else if (acked.error().find("fenced") != std::string::npos) {
    response.status = net::FrameResponse::Status::kFenced;
    response.value = replica_.term();
  } else {
    response.status = net::FrameResponse::Status::kError;
    response.error = acked.error();
  }
  return net::encode_frame_response(response);
}

Expected<std::uint64_t, std::string> FollowerNode::pull_repair() {
  using Result = Expected<std::uint64_t, std::string>;
  if (transport_ == nullptr || leader_tail_endpoint_.empty()) {
    return Result::failure("follower: no leader tail endpoint configured");
  }
  bool progressed = false;
  for (;;) {
    const std::uint64_t from = replica_.next_seq();
    const net::CallResult result = call_with_retry_impl(
        *transport_, leader_tail_endpoint_,
        net::encode_tail({from, policy_.tail_chunk}), kTailKeySalt ^ from,
        policy_, *clock_, rpcs_, retries_, timeouts_);
    if (!result.ok()) {
      return Result::failure("follower: tail pull from " +
                             leader_tail_endpoint_ + ": " + result.payload);
    }
    auto frames = net::decode_tail_response(result.payload);
    if (!frames) return Result::failure("follower: " + frames.error());
    if (frames.value().empty()) break;
    for (const net::TailFrame& frame : frames.value()) {
      if (frame.seq < replica_.next_seq()) continue;  // idempotent overlap
      auto applied = replica_.apply_frame(frame.seq, frame.payload,
                                          frame.uploader, replica_.term());
      if (!applied) return Result::failure("follower: " + applied.error());
    }
    progressed = true;
    if (frames.value().size() < policy_.tail_chunk) break;
  }
  if (progressed) gap_repairs_.fetch_add(1, std::memory_order_relaxed);
  // Converged as far as the leader's journal reaches.  If the last heartbeat
  // says the leader is still ahead, the missing frames were compacted into
  // its snapshot — repair cannot invent them.
  const std::uint64_t leader_next = replica_.leader_next_seen();
  if (leader_next > replica_.next_seq()) {
    return Result::failure(
        "follower: tail exhausted at seq " +
        std::to_string(replica_.next_seq()) + " but leader is at " +
        std::to_string(leader_next) +
        " — journal compacted, follower must re-bootstrap");
  }
  return replica_.next_seq();
}

Expected<std::uint64_t, std::string> FollowerNode::repair_if_behind() {
  if (replica_.leader_next_seen() <= replica_.next_seq()) {
    return replica_.next_seq();
  }
  return pull_repair();
}

NetClientStats FollowerNode::stats() const {
  NetClientStats s;
  s.rpcs = rpcs_.load();
  s.retries = retries_.load();
  s.timeouts = timeouts_.load();
  s.gap_backfills = gap_repairs_.load();
  return s;
}

// ---------------------------------------------------------------------------
// Server handlers

net::Handler make_tail_handler(std::string wal_dir) {
  return [dir = std::move(wal_dir)](const std::string& request) -> std::string {
    auto decoded = net::decode_tail(request);
    if (!decoded) return net::encode_rpc_error(decoded.error());
    const std::uint64_t from = decoded.value().from_seq;
    const std::uint64_t cap = decoded.value().max_frames;
    // Read-only scan per request — never an append fd on the leader's WAL —
    // so the handler works identically against a live or a dead leader.
    auto tail = durable::Journal::read_records(
        wifi::CrowdStore::journal_path(dir), wifi::CrowdStore::journal_tag());
    if (!tail) return net::encode_rpc_error("tail: " + tail.error());
    std::vector<net::TailFrame> frames;
    for (const auto& record : tail.value().records) {
      if (record.seq < from) continue;
      if (frames.empty() && record.seq != from) {
        return net::encode_rpc_error(
            "tail: compacted — journal starts at seq " +
            std::to_string(record.seq) + ", requested " +
            std::to_string(from));
      }
      if (!frames.empty() && record.seq != frames.back().seq + 1) {
        return net::encode_rpc_error("tail: journal not contiguous at seq " +
                                     std::to_string(record.seq));
      }
      frames.push_back({record.seq, record.uploader, record.payload});
      if (cap != 0 && frames.size() >= cap) break;
    }
    return net::encode_tail_response(frames);
  };
}

net::Handler make_segment_handler(const ShardService& shard) {
  return [&shard](const std::string& request) -> std::string {
    auto decoded = net::decode_segment(request);
    if (!decoded) return net::encode_rpc_error(decoded.error());
    // The wire is a trust boundary too: a well-formed frame can still carry
    // a NaN or out-of-envelope coordinate.
    if (auto valid = wifi::validate_upload(decoded.value().upload); !valid) {
      return net::encode_rpc_error("segment: " + valid.error());
    }
    // One RCU snapshot per request: a concurrent epoch flip cannot destroy
    // the index mid-walk, matching the local evaluate_segment discipline.
    const auto detector = shard.detector_snapshot();
    if (!detector) return net::encode_rpc_error("segment: no detector armed");
    net::SegmentResponse response;
    try {
      detector->segment_features(decoded.value().upload, response.features,
                                 response.scores);
    } catch (const std::exception& e) {
      return net::encode_rpc_error(std::string("segment: ") + e.what());
    }
    return net::encode_segment_response(response);
  };
}

// ---------------------------------------------------------------------------
// ShardNode

void ShardNode::serve_follower(std::shared_ptr<FollowerNode> follower) {
  follower_ = std::move(follower);
}

void ShardNode::serve_tail(std::string wal_dir) {
  tail_ = make_tail_handler(std::move(wal_dir));
}

void ShardNode::serve_segments(const ShardService* shard) {
  segments_ = shard != nullptr ? make_segment_handler(*shard) : net::Handler{};
}

net::Handler ShardNode::handler() {
  return [this](const std::string& request) -> std::string {
    switch (net::peek_verb(request)) {
      case net::Verb::kApply:
      case net::Verb::kHeartbeat:
        if (follower_) return follower_->handler()(request);
        return net::encode_rpc_error("node: no follower attached");
      case net::Verb::kTail:
        if (tail_) return tail_(request);
        return net::encode_rpc_error("node: no tail source attached");
      case net::Verb::kSegment:
        if (segments_) return segments_(request);
        return net::encode_rpc_error("node: no segment shard attached");
      default:
        return net::encode_rpc_error("node: unknown verb");
    }
  };
}

}  // namespace trajkit::serve
