// Shard protocol codec: the messages ShardService replication and segment
// fan-out exchange over a Transport.
//
// Wire form is line-oriented text — the repo's durable formats are text with
// %.17g doubles (exact IEEE-754 round-trip), and the RPC layer keeps that
// idiom so a captured frame is eyeballable in a test failure.  Free-form
// byte fields (WAL payloads, error messages) are length-prefixed, never
// delimiter-escaped.  The verbs:
//
//   apply <term> <seq> <uploader> <len>\n<payload>
//     -> ok <next> | stale <next> | gap <expected> | fenced <term>
//        | err <len>\n<msg>
//   hb <term> <leader_next>
//     -> ok <follower_next> | fenced <term> | err ...
//   seg <traj_id> <points> <top_k>(\n<east> <north> <aps> (<mac> <rssi>)*)*
//     -> segok <nf> <ns>\n<f..>\n<s..>                       | err ...
//
// Every RPC is idempotent by construction: applies are seq-disciplined
// (redelivery is "stale", a no-op), heartbeats and segments are reads.
// That is what licenses the client's retry/hedge policy over a transport
// whose kTimeout cannot say whether the handler ran.  Gap repair needs no
// verb of its own: the leader re-ships the missing frames as ordinary
// applies under its own term (serve/net_shard).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "wifi/features.hpp"
#include "wifi/provenance.hpp"

namespace trajkit::net {

enum class Verb { kApply, kHeartbeat, kSegment, kUnknown };

/// Cheap dispatch on the first token of a request.
Verb peek_verb(std::string_view request);

/// Application-level failure response, shared by every verb.
std::string encode_rpc_error(std::string_view message);

// -- WAL frame shipping -------------------------------------------------------

struct ApplyRequest {
  std::uint64_t term = 0;
  std::uint64_t seq = 0;
  wifi::UploaderId uploader = wifi::kAnonymousUploader;
  std::string payload;  ///< CrowdStore point / '#' control encoding
};

struct FrameResponse {
  enum class Status { kApplied, kStale, kGap, kFenced, kError };
  Status status = Status::kError;
  /// next expected seq (kApplied/kStale), expected seq (kGap), or the
  /// follower's fencing term (kFenced).
  std::uint64_t value = 0;
  std::string error;  ///< kError only
};

std::string encode_apply(const ApplyRequest& request);
Expected<ApplyRequest, std::string> decode_apply(std::string_view request);
std::string encode_frame_response(const FrameResponse& response);
Expected<FrameResponse, std::string> decode_frame_response(std::string_view bytes);

// -- Leader lease heartbeat ---------------------------------------------------

struct HeartbeatRequest {
  std::uint64_t term = 0;
  std::uint64_t leader_next_seq = 0;  ///< lets a follower spot its own gap
};

std::string encode_heartbeat(const HeartbeatRequest& request);
Expected<HeartbeatRequest, std::string> decode_heartbeat(std::string_view request);

// -- Segment evaluation -------------------------------------------------------

/// The upload carries ONLY the segment's points — the shard evaluates
/// [0, n) locally and the router writes the answers into the merged
/// vector's slots for the original [begin, end).
struct SegmentRequest {
  wifi::ScannedUpload upload;
  std::size_t top_k = 0;
};

struct SegmentResponse {
  std::vector<double> features;  ///< 2 * top_k * n, %.17g round-tripped
  std::vector<double> scores;    ///< n
};

std::string encode_segment(const SegmentRequest& request);
Expected<SegmentRequest, std::string> decode_segment(std::string_view request);
std::string encode_segment_response(const SegmentResponse& response);
Expected<SegmentResponse, std::string> decode_segment_response(
    std::string_view bytes);

}  // namespace trajkit::net
