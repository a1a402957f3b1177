#include "serve/net_shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

namespace trajkit::serve {
namespace {

/// Heartbeat keys live in a substream range disjoint from apply keys (frame
/// seqs), so an apply retried at seq K and a heartbeat carrying leader_next
/// K never share a SimNet fault fate.
constexpr std::uint64_t kHeartbeatKeySalt = 0x6862ull << 48;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// NetChannel

NetChannel::NetChannel(net::Transport& transport,
                       std::vector<std::string> endpoints, NetCallPolicy policy,
                       const Clock* clock)
    : transport_(transport),
      endpoints_(std::move(endpoints)),
      policy_(policy),
      clock_(clock != nullptr ? clock : &steady_clock()) {
  if (endpoints_.empty()) {
    throw std::invalid_argument("shard net: need an endpoint");
  }
}

net::CallResult NetChannel::call(const std::string& request,
                                 std::uint64_t key) {
  const bool hedged = endpoints_.size() > 1;
  const std::size_t attempts = policy_.retry.max_retries + 1;
  net::CallResult result;
  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    const bool hedge = hedged && attempt == 0;
    rpcs_.fetch_add(1, std::memory_order_relaxed);
    result = transport_.call(
        endpoints_[attempt % endpoints_.size()], request,
        {hedge ? policy_.hedge_deadline_us : policy_.rpc_deadline_us, key,
         attempt});
    if (result.ok()) return result;
    if (result.status == net::CallStatus::kTimeout) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!result.retryable() || attempt + 1 == attempts) break;
    if (hedge) {
      // The hedge fires immediately — backing off would defeat its purpose.
      hedges_.fetch_add(1, std::memory_order_relaxed);
    } else {
      retries_.fetch_add(1, std::memory_order_relaxed);
      clock_->sleep_us(backoff_delay_us(policy_.retry, key, attempt));
    }
  }
  return result;
}

NetClientStats NetChannel::stats() const {
  NetClientStats s;
  s.rpcs = rpcs_.load();
  s.retries = retries_.load();
  s.timeouts = timeouts_.load();
  s.hedges = hedges_.load();
  return s;
}

// ---------------------------------------------------------------------------
// RemoteFollower

RemoteFollower::RemoteFollower(net::Transport& transport, std::string endpoint,
                               std::string leader_dir, NetCallPolicy policy,
                               const Clock* clock)
    : channel_(transport, {std::move(endpoint)}, policy, clock),
      leader_dir_(std::move(leader_dir)) {}

Expected<net::FrameResponse, std::string> RemoteFollower::apply_roundtrip(
    const net::ApplyRequest& request) {
  using Result = Expected<net::FrameResponse, std::string>;
  const net::CallResult result =
      channel_.call(net::encode_apply(request), request.seq);
  if (!result.ok()) {
    return Result::failure("shard net: apply seq " +
                           std::to_string(request.seq) + " to " + endpoint() +
                           ": " + result.payload);
  }
  auto response = net::decode_frame_response(result.payload);
  if (!response) return Result::failure("shard net: " + response.error());
  return response;
}

std::string RemoteFollower::refused(const net::FrameResponse& response,
                                    const std::string& what) {
  switch (response.status) {
    case net::FrameResponse::Status::kFenced:
      fenced_.fetch_add(1, std::memory_order_relaxed);
      return "shard net: " + what + " fenced by follower " + endpoint() +
             " (term " + std::to_string(response.value) + ")";
    case net::FrameResponse::Status::kGap:
      return "shard net: " + what + ": follower " + endpoint() +
             " still expects seq " + std::to_string(response.value);
    default:
      return "shard net: " + what + ": " + response.error;
  }
}

Expected<std::uint64_t, std::string> RemoteFollower::push_backfill(
    std::uint64_t from, std::uint64_t upto, std::uint64_t term) {
  using Result = Expected<std::uint64_t, std::string>;
  gap_backfills_.fetch_add(1, std::memory_order_relaxed);
  auto tail = durable::Journal::read_records(
      wifi::CrowdStore::journal_path(leader_dir_),
      wifi::CrowdStore::journal_tag());
  if (!tail) return Result::failure("shard net: backfill: " + tail.error());
  std::uint64_t expected = from;
  std::uint64_t follower_next = from;
  for (const auto& record : tail.value().records) {
    if (record.seq < from) continue;
    if (record.seq >= upto || record.seq != expected) break;
    auto response =
        apply_roundtrip({term, record.seq, record.uploader, record.payload});
    if (!response) return Result::failure(response.error());
    const auto status = response.value().status;
    if (status != net::FrameResponse::Status::kApplied &&
        status != net::FrameResponse::Status::kStale) {
      // Never recurse: a gap inside the backfill means the WAL itself cannot
      // cover the follower's hole.
      return Result::failure(refused(
          response.value(), "backfill seq " + std::to_string(record.seq)));
    }
    follower_next = response.value().value;
    ++expected;
  }
  if (expected < upto) {
    return Result::failure("shard net: backfill: leader journal lacks seq " +
                           std::to_string(expected) + " (compacted) — follower " +
                           endpoint() + " must re-bootstrap");
  }
  return Result(follower_next);
}

Expected<bool, std::string> RemoteFollower::apply_frame(
    std::uint64_t seq, const std::string& payload, wifi::UploaderId uploader,
    std::uint64_t term) {
  using Result = Expected<bool, std::string>;
  const net::ApplyRequest request{term, seq, uploader, payload};
  auto response = apply_roundtrip(request);
  if (response && response.value().status == net::FrameResponse::Status::kGap) {
    // The follower is missing [its next, seq): ship that WAL range, then the
    // original frame again.
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
    default:
      return Result::failure(
          refused(response.value(), "apply seq " + std::to_string(seq)));
  }
}

Expected<std::uint64_t, std::string> RemoteFollower::heartbeat(
    std::uint64_t term, std::uint64_t leader_next_seq) {
  using Result = Expected<std::uint64_t, std::string>;
  const net::CallResult result =
      channel_.call(net::encode_heartbeat({term, leader_next_seq}),
                    kHeartbeatKeySalt ^ leader_next_seq);
  if (!result.ok()) {
    return Result::failure("shard net: heartbeat to " + endpoint() + ": " +
                           result.payload);
  }
  auto response = net::decode_frame_response(result.payload);
  if (!response) return Result::failure("shard net: " + response.error());
  if (response.value().status != net::FrameResponse::Status::kApplied) {
    return Result::failure(refused(response.value(), "heartbeat"));
  }
  // An idle follower converges here: the reply shows its lag, and the leader
  // pushes the missing range under the term it just renewed.
  const std::uint64_t follower_next = response.value().value;
  if (follower_next >= leader_next_seq) return Result(follower_next);
  return push_backfill(follower_next, leader_next_seq, term);
}

NetClientStats RemoteFollower::stats() const {
  NetClientStats s = channel_.stats();
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
    : channel_(transport, std::move(endpoints), policy, clock), top_k_(top_k) {}

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
  const net::CallResult result = channel_.call(encoded, fnv1a(encoded));
  if (!result.ok()) {
    throw FaultError("shard net: segment evaluation failed: " + result.payload);
  }
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
  std::copy(response.value().features.begin(), response.value().features.end(),
            features);
  std::copy(response.value().scores.begin(), response.value().scores.end(),
            scores);
}

// ---------------------------------------------------------------------------
// Server handlers

net::Handler make_follower_handler(ShardReplica& replica) {
  return [&replica](const std::string& request) -> std::string {
    net::FrameResponse response;
    std::string error;
    std::uint64_t frame_seq = 0;  // gap detection (applies only)
    switch (net::peek_verb(request)) {
      case net::Verb::kApply: {
        auto req = net::decode_apply(request);
        if (!req) return net::encode_rpc_error(req.error());
        auto applied = replica.apply_frame(req.value().seq, req.value().payload,
                                           req.value().uploader,
                                           req.value().term);
        if (applied) {
          response.status = applied.value()
                                ? net::FrameResponse::Status::kApplied
                                : net::FrameResponse::Status::kStale;
          response.value = replica.next_seq();
          return net::encode_frame_response(response);
        }
        error = applied.error();
        frame_seq = req.value().seq;
        break;
      }
      case net::Verb::kHeartbeat: {
        auto req = net::decode_heartbeat(request);
        if (!req) return net::encode_rpc_error(req.error());
        auto acked =
            replica.heartbeat(req.value().term, req.value().leader_next_seq);
        if (acked) {
          response.status = net::FrameResponse::Status::kApplied;
          response.value = acked.value();
          return net::encode_frame_response(response);
        }
        error = acked.error();
        break;
      }
      default:
        return net::encode_rpc_error("follower: unhandled verb");
    }
    // Fencing is checked first, as ShardReplica does: a deposed leader's
    // frame is "fenced" even when it is also ahead, so it never triggers a
    // backfill.
    if (error.find("fenced") != std::string::npos) {
      response.status = net::FrameResponse::Status::kFenced;
      response.value = replica.term();
    } else if (frame_seq > replica.next_seq()) {
      response.status = net::FrameResponse::Status::kGap;
      response.value = replica.next_seq();
    } else {
      response.status = net::FrameResponse::Status::kError;
      response.error = error;
    }
    return net::encode_frame_response(response);
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

}  // namespace trajkit::serve
