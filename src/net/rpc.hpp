// Shard protocol codec: the messages ShardService replication and segment
// fan-out exchange over a Transport.
//
// Wire form is fixed-width binary fields in the durable layer's byte codec
// (common/durable/bytes: native little-endian, read back through a
// bounds-checked ByteCursor), so a double crosses the wire as its own eight
// bytes — exact by construction.  Byte fields (WAL payloads, error messages)
// and arrays are prefixed by a u64 count, and a decoder refuses a count the
// remaining bytes cannot hold before it allocates.  Every message starts with
// a u8 tag; a decoder refuses an unknown tag, truncation and trailing bytes.
//
//   apply    u8 1, u64 term, u64 seq, u64 uploader, u64 len, payload
//   hb       u8 2, u64 term, u64 leader_next
//   seg      u8 3, u32 traj_id, u64 top_k, u64 points,
//            points x (f64 east, f64 north, u64 aps, aps x (u64 mac, i32 rssi))
//
//   frame response (apply, hb)   u8 status (FrameResponse::Status), u64 value
//   segment response             u8 5, u64 nf, f64[nf], u64 ns, f64[ns]
//   error (any verb)             u8 4, u64 len, message
//
// Every RPC is idempotent by construction: applies are seq-disciplined
// (redelivery is "stale", a no-op), heartbeats and segments are reads.
// That is what licenses the client's retry/hedge policy over a transport
// whose kTimeout cannot say whether the handler ran.  Gap repair needs no
// verb of its own: the leader re-ships the missing frames as ordinary
// applies under its own term (serve/net_shard).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"
#include "wifi/features.hpp"
#include "wifi/provenance.hpp"

namespace trajkit::net {

enum class Verb : std::uint8_t { kUnknown = 0, kApply = 1, kHeartbeat = 2, kSegment = 3 };

/// Cheap dispatch on a request's tag byte.
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

/// A follower's one typed answer to a frame or a heartbeat, end to end:
/// ShardReplica returns it, the follower handler encodes it, RemoteFollower
/// decodes and passes it on, and ShardService renders a refusal as text.
struct FrameResponse {
  enum class Status : std::uint8_t { kApplied, kStale, kGap, kFenced, kError };
  Status status = Status::kError;
  /// next expected seq (kApplied/kStale), expected seq (kGap), or the
  /// follower's fencing term (kFenced).
  std::uint64_t value = 0;
  std::string error;  ///< kError only

  /// The follower holds the frame durably (kStale: it already did).
  bool acked() const { return status == Status::kApplied || status == Status::kStale; }
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
  std::vector<double> features;  ///< 2 * top_k * n
  std::vector<double> scores;    ///< n
};

/// Encode points [begin, end) of `upload` as a segment request, straight
/// from the caller's upload.  Requires positions and scans of equal length.
std::string encode_segment(const wifi::ScannedUpload& upload, std::size_t begin,
                           std::size_t end, std::size_t top_k);
inline std::string encode_segment(const SegmentRequest& request) {
  return encode_segment(request.upload, 0, request.upload.positions.size(),
                        request.top_k);
}
Expected<SegmentRequest, std::string> decode_segment(std::string_view request);
std::string encode_segment_response(const SegmentResponse& response);
Expected<SegmentResponse, std::string> decode_segment_response(
    std::string_view bytes);

}  // namespace trajkit::net
