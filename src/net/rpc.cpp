#include "net/rpc.hpp"

#include "common/durable/bytes.hpp"

namespace trajkit::net {
namespace {

using durable::append_pod;
using durable::append_u64;
using durable::ByteCursor;
using Status = FrameResponse::Status;

/// Response tags: a frame response's tag is its Status; the error tag is
/// shared by every verb's response.
constexpr auto kErrorTag = static_cast<std::uint8_t>(Status::kError);
constexpr std::uint8_t kSegmentOkTag = kErrorTag + 1;

/// Smallest encoded point (east, north, AP count) and an AP (mac, rssi): a
/// count the remaining bytes cannot hold is refused before it allocates.
constexpr std::size_t kMinPointBytes = 8 + 8 + 8;
constexpr std::size_t kApBytes = 8 + 4;

void append_tag(std::string& out, std::uint8_t tag) { append_pod(out, tag); }
void append_tag(std::string& out, Verb verb) {
  append_tag(out, static_cast<std::uint8_t>(verb));
}

void append_bytes(std::string& out, std::string_view bytes) {
  append_u64(out, bytes.size());
  out.append(bytes);
}

bool read_bytes_field(ByteCursor& c, std::string_view& out) {
  std::uint64_t len = 0;
  return c.read_u64(len) && c.read_view(out, len);
}

void append_doubles(std::string& out, const std::vector<double>& v) {
  append_u64(out, v.size());
  durable::append_array(out, v.data(), v.size());
}

bool read_doubles(ByteCursor& c, std::vector<double>& out) {
  std::uint64_t n = 0;
  return c.read_u64(n) && c.read_array(out, n);
}

bool read_verb(ByteCursor& c, Verb verb) {
  std::uint8_t tag = 0;
  return c.read(tag) && tag == static_cast<std::uint8_t>(verb);
}

}  // namespace

Verb peek_verb(std::string_view request) {
  if (request.empty()) return Verb::kUnknown;
  const auto tag = static_cast<std::uint8_t>(request.front());
  return tag <= static_cast<std::uint8_t>(Verb::kSegment) ? static_cast<Verb>(tag)
                                                          : Verb::kUnknown;
}

std::string encode_rpc_error(std::string_view message) {
  std::string out;
  append_tag(out, kErrorTag);
  append_bytes(out, message);
  return out;
}

// -- apply --------------------------------------------------------------------

std::string encode_apply(const ApplyRequest& request) {
  std::string out;
  append_tag(out, Verb::kApply);
  append_u64(out, request.term);
  append_u64(out, request.seq);
  append_u64(out, request.uploader);
  append_bytes(out, request.payload);
  return out;
}

Expected<ApplyRequest, std::string> decode_apply(std::string_view request) {
  ByteCursor c{request};
  ApplyRequest out;
  std::string_view payload;
  if (!read_verb(c, Verb::kApply) || !c.read_u64(out.term) ||
      !c.read_u64(out.seq) || !c.read_u64(out.uploader) ||
      !read_bytes_field(c, payload) || c.remaining() != 0) {
    return Expected<ApplyRequest, std::string>::failure("rpc: malformed apply");
  }
  out.payload = payload;
  return out;
}

std::string encode_frame_response(const FrameResponse& response) {
  if (response.status == Status::kError) return encode_rpc_error(response.error);
  std::string out;
  append_tag(out, static_cast<std::uint8_t>(response.status));
  append_u64(out, response.value);
  return out;
}

Expected<FrameResponse, std::string> decode_frame_response(
    std::string_view bytes) {
  using Result = Expected<FrameResponse, std::string>;
  ByteCursor c{bytes};
  std::uint8_t tag = 0;
  if (!c.read(tag) || tag > kErrorTag) {
    return Result::failure("rpc: unknown frame response");
  }
  FrameResponse out;
  out.status = static_cast<Status>(tag);
  std::string_view error;
  const bool ok = out.status == Status::kError ? read_bytes_field(c, error)
                                               : c.read_u64(out.value);
  if (!ok || c.remaining() != 0) {
    return Result::failure("rpc: malformed frame response");
  }
  out.error = error;
  return out;
}

// -- heartbeat ----------------------------------------------------------------

std::string encode_heartbeat(const HeartbeatRequest& request) {
  std::string out;
  append_tag(out, Verb::kHeartbeat);
  append_u64(out, request.term);
  append_u64(out, request.leader_next_seq);
  return out;
}

Expected<HeartbeatRequest, std::string> decode_heartbeat(
    std::string_view request) {
  ByteCursor c{request};
  HeartbeatRequest out;
  if (!read_verb(c, Verb::kHeartbeat) || !c.read_u64(out.term) ||
      !c.read_u64(out.leader_next_seq) || c.remaining() != 0) {
    return Expected<HeartbeatRequest, std::string>::failure(
        "rpc: malformed heartbeat");
  }
  return out;
}

// -- segment ------------------------------------------------------------------

std::string encode_segment(const wifi::ScannedUpload& upload, std::size_t begin,
                           std::size_t end, std::size_t top_k) {
  std::string out;
  append_tag(out, Verb::kSegment);
  durable::append_u32(out, upload.source_traj_id);
  append_u64(out, top_k);
  append_u64(out, end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    append_pod(out, upload.positions[i].east);
    append_pod(out, upload.positions[i].north);
    append_u64(out, upload.scans[i].size());
    for (const wifi::ApObservation& ap : upload.scans[i]) {
      append_u64(out, ap.mac);
      append_pod(out, std::int32_t{ap.rssi_dbm});
    }
  }
  return out;
}

Expected<SegmentRequest, std::string> decode_segment(std::string_view request) {
  using Result = Expected<SegmentRequest, std::string>;
  const auto malformed = [] {
    return Result::failure("rpc: malformed segment request");
  };
  ByteCursor c{request};
  SegmentRequest out;
  std::uint64_t n = 0;
  if (!read_verb(c, Verb::kSegment) ||
      !c.read_u32(out.upload.source_traj_id) || !c.read_u64(out.top_k) ||
      !c.read_u64(n) || n > c.remaining() / kMinPointBytes) {
    return malformed();
  }
  out.upload.positions.resize(n);
  out.upload.scans.resize(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Enu& pos = out.upload.positions[i];
    std::uint64_t aps = 0;
    if (!c.read(pos.east) || !c.read(pos.north) || !c.read_u64(aps) ||
        aps > c.remaining() / kApBytes) {
      return malformed();
    }
    wifi::WifiScan& scan = out.upload.scans[i];
    scan.resize(aps);
    for (wifi::ApObservation& ap : scan) {
      std::int32_t rssi = 0;
      if (!c.read_u64(ap.mac) || !c.read(rssi)) return malformed();
      ap.rssi_dbm = rssi;
    }
  }
  if (c.remaining() != 0) return malformed();
  return out;
}

std::string encode_segment_response(const SegmentResponse& response) {
  std::string out;
  append_tag(out, kSegmentOkTag);
  append_doubles(out, response.features);
  append_doubles(out, response.scores);
  return out;
}

Expected<SegmentResponse, std::string> decode_segment_response(
    std::string_view bytes) {
  using Result = Expected<SegmentResponse, std::string>;
  ByteCursor c{bytes};
  std::uint8_t tag = 0;
  if (!c.read(tag)) return Result::failure("rpc: malformed segment response");
  if (tag == kErrorTag) {
    std::string_view message;
    if (!read_bytes_field(c, message) || c.remaining() != 0) {
      return Result::failure("rpc: malformed err response");
    }
    return Result::failure(std::string(message));
  }
  SegmentResponse out;
  if (tag != kSegmentOkTag || !read_doubles(c, out.features) ||
      !read_doubles(c, out.scores) || c.remaining() != 0) {
    return Result::failure("rpc: malformed segment response");
  }
  return out;
}

}  // namespace trajkit::net
