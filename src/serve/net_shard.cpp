#include "serve/net_shard.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

namespace trajkit::serve {
namespace {

using Status = net::FrameResponse::Status;

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

net::FrameResponse RemoteFollower::roundtrip(const std::string& request,
                                             std::uint64_t key,
                                             const std::string& what) {
  const net::CallResult result = channel_.call(request, key);
  if (!result.ok()) {
    return {Status::kError, 0,
            "net " + what + " to " + endpoint() + ": " + result.payload};
  }
  auto response = net::decode_frame_response(result.payload);
  if (!response) return {Status::kError, 0, "net " + what + ": " + response.error()};
  if (response.value().status == Status::kFenced) {
    fenced_.fetch_add(1, std::memory_order_relaxed);
  }
  return std::move(response).value();
}

net::FrameResponse RemoteFollower::ship(const net::ApplyRequest& request) {
  return roundtrip(net::encode_apply(request), request.seq,
                   "apply seq " + std::to_string(request.seq));
}

net::FrameResponse RemoteFollower::push_backfill(std::uint64_t from,
                                                 std::uint64_t upto,
                                                 std::uint64_t term) {
  gap_backfills_.fetch_add(1, std::memory_order_relaxed);
  auto tail = durable::Journal::read_records(
      wifi::CrowdStore::journal_path(leader_dir_),
      wifi::CrowdStore::journal_tag());
  if (!tail) return {Status::kError, 0, "net backfill: " + tail.error()};
  std::uint64_t expected = from;
  net::FrameResponse answer{Status::kApplied, from, {}};
  for (const auto& record : tail.value().records) {
    if (record.seq < from) continue;
    if (record.seq >= upto || record.seq != expected) break;
    answer = ship({term, record.seq, record.uploader, record.payload});
    // Never recurse: a gap inside the backfill means the WAL itself cannot
    // cover the follower's hole.
    if (!answer.acked()) return answer;
    ++expected;
  }
  if (expected < upto) {
    return {Status::kError, 0,
            "net backfill: leader journal lacks seq " + std::to_string(expected) +
                " (compacted) — follower " + endpoint() + " must re-bootstrap"};
  }
  return answer;
}

net::FrameResponse RemoteFollower::apply_frame(std::uint64_t seq,
                                               const std::string& payload,
                                               wifi::UploaderId uploader,
                                               std::uint64_t term) {
  const net::ApplyRequest request{term, seq, uploader, payload};
  const net::FrameResponse answer = ship(request);
  if (answer.status != Status::kGap) return answer;
  // The follower is missing [its next, seq): ship that WAL range, then the
  // original frame again.
  const net::FrameResponse filled = push_backfill(answer.value, seq, term);
  return filled.acked() ? ship(request) : filled;
}

net::FrameResponse RemoteFollower::heartbeat(std::uint64_t term,
                                             std::uint64_t leader_next_seq) {
  const net::FrameResponse answer =
      roundtrip(net::encode_heartbeat({term, leader_next_seq}),
                kHeartbeatKeySalt ^ leader_next_seq, "heartbeat");
  // An idle follower converges here: the reply shows its lag, and the leader
  // pushes the missing range under the term it just renewed.
  if (answer.status != Status::kApplied || answer.value >= leader_next_seq) {
    return answer;
  }
  const net::FrameResponse filled =
      push_backfill(answer.value, leader_next_seq, term);
  return filled.acked() ? net::FrameResponse{Status::kApplied, filled.value, {}}
                        : filled;
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
  const std::string encoded = net::encode_segment(upload, begin, end, top_k_);
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
    switch (net::peek_verb(request)) {
      case net::Verb::kApply: {
        auto req = net::decode_apply(request);
        if (!req) return net::encode_rpc_error(req.error());
        return net::encode_frame_response(
            replica.apply_frame(req.value().seq, req.value().payload,
                                req.value().uploader, req.value().term));
      }
      case net::Verb::kHeartbeat: {
        auto req = net::decode_heartbeat(request);
        if (!req) return net::encode_rpc_error(req.error());
        return net::encode_frame_response(
            replica.heartbeat(req.value().term, req.value().leader_next_seq));
      }
      default:
        return net::encode_rpc_error("follower: unhandled verb");
    }
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
