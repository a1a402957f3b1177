#include "net/rpc.hpp"

#include <charconv>
#include <cstdio>

namespace trajkit::net {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, p);
}

void append_double(std::string& out, double v) {
  // %.17g: exact IEEE-754 double round-trip, the repo's durable-text idiom.
  char buf[40];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

/// Tiny cursor over the wire text; every take_* fails soft (sets bad).
struct Cursor {
  std::string_view rest;
  bool bad = false;

  bool take(char c) {
    if (bad || rest.empty() || rest.front() != c) return (bad = true, false);
    rest.remove_prefix(1);
    return true;
  }

  std::uint64_t take_u64() {
    if (bad) return 0;
    std::uint64_t v = 0;
    const auto [p, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (ec != std::errc() || p == rest.data()) return (bad = true, 0);
    rest.remove_prefix(static_cast<std::size_t>(p - rest.data()));
    return v;
  }

  double take_double() {
    if (bad) return 0.0;
    double v = 0.0;
    const auto [p, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (ec != std::errc() || p == rest.data()) return (bad = true, 0.0);
    rest.remove_prefix(static_cast<std::size_t>(p - rest.data()));
    return v;
  }

  std::int64_t take_i64() {
    if (bad) return 0;
    std::int64_t v = 0;
    const auto [p, ec] =
        std::from_chars(rest.data(), rest.data() + rest.size(), v);
    if (ec != std::errc() || p == rest.data()) return (bad = true, 0);
    rest.remove_prefix(static_cast<std::size_t>(p - rest.data()));
    return v;
  }

  /// `len` raw bytes (length-prefixed field bodies).
  std::string take_bytes(std::uint64_t len) {
    if (bad) return {};
    if (rest.size() < len) return (bad = true, std::string());
    std::string v(rest.substr(0, len));
    rest.remove_prefix(len);
    return v;
  }

  bool take_word(std::string_view word) {
    if (bad || rest.substr(0, word.size()) != word) return (bad = true, false);
    rest.remove_prefix(word.size());
    return true;
  }

  bool done() const { return !bad && rest.empty(); }
};

/// Payload bodies are capped by the frame layer; re-assert here so a decoder
/// fed a corrupt length never allocates unboundedly.
constexpr std::uint64_t kMaxField = 16u << 20;
constexpr std::uint64_t kMaxVectorElems = 1u << 22;

}  // namespace

Verb peek_verb(std::string_view request) {
  if (request.substr(0, 6) == "apply ") return Verb::kApply;
  if (request.substr(0, 3) == "hb ") return Verb::kHeartbeat;
  if (request.substr(0, 4) == "seg ") return Verb::kSegment;
  return Verb::kUnknown;
}

std::string encode_rpc_error(std::string_view message) {
  std::string out = "err ";
  append_u64(out, message.size());
  out.push_back('\n');
  out.append(message);
  return out;
}

// -- apply --------------------------------------------------------------------

std::string encode_apply(const ApplyRequest& request) {
  std::string out = "apply ";
  append_u64(out, request.term);
  out.push_back(' ');
  append_u64(out, request.seq);
  out.push_back(' ');
  append_u64(out, request.uploader);
  out.push_back(' ');
  append_u64(out, request.payload.size());
  out.push_back('\n');
  out.append(request.payload);
  return out;
}

Expected<ApplyRequest, std::string> decode_apply(std::string_view request) {
  using Result = Expected<ApplyRequest, std::string>;
  Cursor c{request};
  c.take_word("apply ");
  ApplyRequest out;
  out.term = c.take_u64();
  c.take(' ');
  out.seq = c.take_u64();
  c.take(' ');
  out.uploader = c.take_u64();
  c.take(' ');
  const std::uint64_t len = c.take_u64();
  if (!c.bad && len > kMaxField) c.bad = true;
  c.take('\n');
  out.payload = c.take_bytes(len);
  if (!c.done()) return Result::failure("rpc: malformed apply");
  return out;
}

std::string encode_frame_response(const FrameResponse& response) {
  std::string out;
  switch (response.status) {
    case FrameResponse::Status::kApplied: out = "ok "; break;
    case FrameResponse::Status::kStale: out = "stale "; break;
    case FrameResponse::Status::kGap: out = "gap "; break;
    case FrameResponse::Status::kFenced: out = "fenced "; break;
    case FrameResponse::Status::kError: return encode_rpc_error(response.error);
  }
  append_u64(out, response.value);
  return out;
}

Expected<FrameResponse, std::string> decode_frame_response(
    std::string_view bytes) {
  using Result = Expected<FrameResponse, std::string>;
  FrameResponse out;
  Cursor c{bytes};
  if (bytes.substr(0, 3) == "ok ") {
    c.take_word("ok ");
    out.status = FrameResponse::Status::kApplied;
  } else if (bytes.substr(0, 6) == "stale ") {
    c.take_word("stale ");
    out.status = FrameResponse::Status::kStale;
  } else if (bytes.substr(0, 4) == "gap ") {
    c.take_word("gap ");
    out.status = FrameResponse::Status::kGap;
  } else if (bytes.substr(0, 7) == "fenced ") {
    c.take_word("fenced ");
    out.status = FrameResponse::Status::kFenced;
  } else if (bytes.substr(0, 4) == "err ") {
    c.take_word("err ");
    const std::uint64_t len = c.take_u64();
    if (!c.bad && len > kMaxField) c.bad = true;
    c.take('\n');
    out.status = FrameResponse::Status::kError;
    out.error = c.take_bytes(len);
    if (!c.done()) return Result::failure("rpc: malformed err response");
    return out;
  } else {
    return Result::failure("rpc: unknown frame response");
  }
  out.value = c.take_u64();
  if (!c.done()) return Result::failure("rpc: malformed frame response");
  return out;
}

// -- heartbeat ----------------------------------------------------------------

std::string encode_heartbeat(const HeartbeatRequest& request) {
  std::string out = "hb ";
  append_u64(out, request.term);
  out.push_back(' ');
  append_u64(out, request.leader_next_seq);
  return out;
}

Expected<HeartbeatRequest, std::string> decode_heartbeat(
    std::string_view request) {
  using Result = Expected<HeartbeatRequest, std::string>;
  Cursor c{request};
  c.take_word("hb ");
  HeartbeatRequest out;
  out.term = c.take_u64();
  c.take(' ');
  out.leader_next_seq = c.take_u64();
  if (!c.done()) return Result::failure("rpc: malformed heartbeat");
  return out;
}

// -- segment ------------------------------------------------------------------

std::string encode_segment(const SegmentRequest& request) {
  const wifi::ScannedUpload& u = request.upload;
  std::string out = "seg ";
  append_u64(out, u.source_traj_id);
  out.push_back(' ');
  append_u64(out, u.positions.size());
  out.push_back(' ');
  append_u64(out, request.top_k);
  for (std::size_t i = 0; i < u.positions.size(); ++i) {
    out.push_back('\n');
    append_double(out, u.positions[i].east);
    out.push_back(' ');
    append_double(out, u.positions[i].north);
    out.push_back(' ');
    const wifi::WifiScan& scan = i < u.scans.size() ? u.scans[i] : wifi::WifiScan{};
    append_u64(out, scan.size());
    for (const wifi::ApObservation& ap : scan) {
      out.push_back(' ');
      append_u64(out, ap.mac);
      out.push_back(' ');
      char buf[16];
      const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), ap.rssi_dbm);
      out.append(buf, p);
    }
  }
  return out;
}

Expected<SegmentRequest, std::string> decode_segment(std::string_view request) {
  using Result = Expected<SegmentRequest, std::string>;
  Cursor c{request};
  c.take_word("seg ");
  SegmentRequest out;
  out.upload.source_traj_id = static_cast<std::uint32_t>(c.take_u64());
  c.take(' ');
  const std::uint64_t n = c.take_u64();
  c.take(' ');
  out.top_k = static_cast<std::size_t>(c.take_u64());
  if (!c.bad && n > kMaxVectorElems) c.bad = true;
  if (!c.bad) {
    out.upload.positions.reserve(n);
    out.upload.scans.reserve(n);
  }
  for (std::uint64_t i = 0; i < n && !c.bad; ++i) {
    c.take('\n');
    Enu pos;
    pos.east = c.take_double();
    c.take(' ');
    pos.north = c.take_double();
    c.take(' ');
    const std::uint64_t aps = c.take_u64();
    if (!c.bad && aps > kMaxVectorElems) c.bad = true;
    wifi::WifiScan scan;
    if (!c.bad) scan.reserve(aps);
    for (std::uint64_t a = 0; a < aps && !c.bad; ++a) {
      c.take(' ');
      wifi::ApObservation ap;
      ap.mac = c.take_u64();
      c.take(' ');
      ap.rssi_dbm = static_cast<int>(c.take_i64());
      scan.push_back(ap);
    }
    out.upload.positions.push_back(pos);
    out.upload.scans.push_back(std::move(scan));
  }
  if (!c.done()) return Result::failure("rpc: malformed segment request");
  return out;
}

std::string encode_segment_response(const SegmentResponse& response) {
  std::string out = "segok ";
  append_u64(out, response.features.size());
  out.push_back(' ');
  append_u64(out, response.scores.size());
  out.push_back('\n');
  for (std::size_t i = 0; i < response.features.size(); ++i) {
    if (i != 0) out.push_back(' ');
    append_double(out, response.features[i]);
  }
  out.push_back('\n');
  for (std::size_t i = 0; i < response.scores.size(); ++i) {
    if (i != 0) out.push_back(' ');
    append_double(out, response.scores[i]);
  }
  return out;
}

Expected<SegmentResponse, std::string> decode_segment_response(
    std::string_view bytes) {
  using Result = Expected<SegmentResponse, std::string>;
  if (bytes.substr(0, 4) == "err ") {
    Cursor c{bytes};
    c.take_word("err ");
    const std::uint64_t len = c.take_u64();
    if (!c.bad && len > kMaxField) c.bad = true;
    c.take('\n');
    const std::string msg = c.take_bytes(len);
    if (!c.done()) return Result::failure("rpc: malformed err response");
    return Result::failure(msg);
  }
  Cursor c{bytes};
  c.take_word("segok ");
  const std::uint64_t nf = c.take_u64();
  c.take(' ');
  const std::uint64_t ns = c.take_u64();
  c.take('\n');
  if (!c.bad && (nf > kMaxVectorElems || ns > kMaxVectorElems)) c.bad = true;
  SegmentResponse out;
  if (!c.bad) {
    out.features.reserve(nf);
    out.scores.reserve(ns);
  }
  for (std::uint64_t i = 0; i < nf && !c.bad; ++i) {
    if (i != 0) c.take(' ');
    out.features.push_back(c.take_double());
  }
  c.take('\n');
  for (std::uint64_t i = 0; i < ns && !c.bad; ++i) {
    if (i != 0) c.take(' ');
    out.scores.push_back(c.take_double());
  }
  if (!c.done()) return Result::failure("rpc: malformed segment response");
  return out;
}

}  // namespace trajkit::net
