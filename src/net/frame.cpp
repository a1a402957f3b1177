#include "net/frame.hpp"

#include "common/durable/bytes.hpp"
#include "common/durable/crc32.hpp"

namespace trajkit::net {

constexpr std::string_view kMagic = "TKNF";

std::string encode_frame(std::uint64_t msg_id, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kMagic);
  durable::append_u32(out, static_cast<std::uint32_t>(payload.size()));
  durable::append_u64(out, msg_id);
  durable::append_u32(out, durable::crc32(payload));
  out.append(payload);
  return out;
}

Expected<FrameHeader, std::string> decode_frame_header(std::string_view bytes) {
  using Result = Expected<FrameHeader, std::string>;
  durable::ByteCursor c{bytes};
  std::string_view magic;
  FrameHeader h;
  if (!c.read_view(magic, kMagic.size()) || !c.read_u32(h.payload_len) ||
      !c.read_u64(h.msg_id) || !c.read_u32(h.payload_crc))
    return Result::failure("net frame: short header");
  if (magic != kMagic) return Result::failure("net frame: bad magic");
  if (h.payload_len > kMaxFramePayload)
    return Result::failure("net frame: implausible payload length " +
                           std::to_string(h.payload_len));
  return h;
}

Expected<bool, std::string> check_frame_payload(const FrameHeader& header,
                                                std::string_view payload) {
  using Result = Expected<bool, std::string>;
  if (payload.size() != header.payload_len)
    return Result::failure("net frame: payload length mismatch");
  if (durable::crc32(payload) != header.payload_crc)
    return Result::failure("net frame: payload CRC mismatch");
  return true;
}

Expected<std::string, std::string> decode_frame(std::string_view bytes,
                                                std::uint64_t* msg_id) {
  using Result = Expected<std::string, std::string>;
  auto header = decode_frame_header(bytes);
  if (!header) return Result::failure(header.error());
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (payload.size() != header.value().payload_len)
    return Result::failure(payload.size() < header.value().payload_len
                               ? "net frame: truncated payload"
                               : "net frame: trailing bytes after payload");
  auto ok = check_frame_payload(header.value(), payload);
  if (!ok) return Result::failure(ok.error());
  if (msg_id != nullptr) *msg_id = header.value().msg_id;
  return std::string(payload);
}

}  // namespace trajkit::net
