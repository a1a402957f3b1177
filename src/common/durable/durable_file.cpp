#include "common/durable/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/durable/crc32.hpp"
#include "common/fault.hpp"

namespace trajkit::durable {
namespace {

constexpr char kMagic[8] = {'T', 'K', 'D', 'U', 'R', 'B', '1', '\n'};
constexpr char kFooterMagic[4] = {'T', 'K', 'E', 'N'};
constexpr std::size_t kMaxTagLen = 256;
/// Smallest possible on-disk footprint of one record: u64 length + u32 CRC
/// with an empty payload.  Bounds how many records a file of a given size
/// can plausibly claim.
constexpr std::size_t kMinRecordBytes = 12;

void append_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

/// Bounds-checked cursor over an immutable byte image; every read_* returns
/// false on exhaustion instead of walking past the end.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  std::size_t remaining() const { return data.size() - pos; }

  bool read_bytes(void* out, std::size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data.data() + pos, n);
    pos += n;
    return true;
  }
  bool read_u32(std::uint32_t& out) { return read_bytes(&out, sizeof out); }
  bool read_u64(std::uint64_t& out) { return read_bytes(&out, sizeof out); }
  bool read_view(std::string_view& out, std::size_t n) {
    if (remaining() < n) return false;
    out = data.substr(pos, n);
    pos += n;
    return true;
  }
};

std::string errno_string() { return std::strerror(errno); }

/// Write the full buffer, retrying on short writes/EINTR.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// fsync the directory containing `path` so the rename itself is durable.
bool sync_parent_dir(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

using WriteResult = Expected<bool, std::string>;

WriteResult fail_cleanup(const std::string& tmp, std::string message) {
  ::unlink(tmp.c_str());
  return WriteResult::failure(std::move(message));
}

}  // namespace

std::uint64_t path_fault_key(std::string_view path) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : path) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Expected<bool, std::string> write_file_atomic(const std::string& path,
                                              std::string_view content) {
  auto& faults = global_faults();
  const std::uint64_t key = path_fault_key(path);
  const std::string tmp = path + ".tmp";

  if (faults.should_fail_seq(kFaultOpenTmp, key)) {
    return WriteResult::failure("atomic write: injected fault before open");
  }
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return WriteResult::failure("atomic write: cannot open " + tmp + ": " +
                                errno_string());
  }
  // Two half-writes with a fault point in between, so the crash harness can
  // leave a genuinely torn temp file behind (the target is still untouched).
  const std::size_t half = content.size() / 2;
  if (!write_all(fd, content.data(), half)) {
    ::close(fd);
    return fail_cleanup(tmp, "atomic write: short write to " + tmp);
  }
  if (faults.should_fail_seq(kFaultWritePartial, key)) {
    ::close(fd);
    return fail_cleanup(tmp, "atomic write: injected fault mid-write");
  }
  if (!write_all(fd, content.data() + half, content.size() - half)) {
    ::close(fd);
    return fail_cleanup(tmp, "atomic write: short write to " + tmp);
  }
  if (faults.should_fail_seq(kFaultSyncTmp, key)) {
    ::close(fd);
    return fail_cleanup(tmp, "atomic write: injected fault before fsync");
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    return fail_cleanup(tmp, "atomic write: fsync failed: " + errno_string());
  }
  ::close(fd);
  if (faults.should_fail_seq(kFaultRename, key)) {
    return fail_cleanup(tmp, "atomic write: injected fault before rename");
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return fail_cleanup(tmp, "atomic write: rename to " + path + " failed: " +
                                  errno_string());
  }
  // From here the new file is in place; a failure below only weakens
  // durability of the *rename* (fine after a process crash, visible only
  // after a power loss), so the fault point models "crash after commit".
  if (faults.should_fail_seq(kFaultDirSync, key)) {
    return WriteResult::failure("atomic write: injected fault before dir sync");
  }
  if (!sync_parent_dir(path)) {
    return WriteResult::failure("atomic write: directory fsync failed: " +
                                errno_string());
  }
  return WriteResult(true);
}

void remove_stale_tmp(const std::string& path) {
  ::unlink((path + ".tmp").c_str());
}

Expected<std::string, std::string> read_file(const std::string& path) {
  using Result = Expected<std::string, std::string>;
  std::ifstream is(path, std::ios::binary);
  if (!is) return Result::failure("cannot open " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) return Result::failure("read error on " + path);
  return Result(std::move(buf).str());
}

DurableWriter::DurableWriter(std::string tag, std::uint32_t version)
    : tag_(std::move(tag)), version_(version) {}

void DurableWriter::add_record(std::string_view payload) {
  records_.emplace_back(payload);
}

std::string DurableWriter::bytes() const {
  std::string out;
  std::size_t payload_total = 0;
  for (const auto& r : records_) payload_total += r.size();
  out.reserve(payload_total + 64 + tag_.size() + records_.size() * 12);
  out.append(kMagic, sizeof kMagic);
  append_u32(out, static_cast<std::uint32_t>(tag_.size()));
  out += tag_;
  append_u32(out, version_);
  append_u32(out, static_cast<std::uint32_t>(records_.size()));
  for (const auto& r : records_) {
    append_u64(out, r.size());
    append_u32(out, crc32(r));
    out += r;
  }
  const std::uint32_t file_crc = crc32(out);
  out.append(kFooterMagic, sizeof kFooterMagic);
  append_u32(out, file_crc);
  return out;
}

Expected<bool, std::string> DurableWriter::commit(const std::string& path) const {
  // Refuse to commit what parse_durable would refuse to read: past the record
  // cap the file would be unloadable, which for a store snapshot means a
  // store that compacts once and can never be reopened.
  if (records_.size() > kMaxDurableRecords) {
    return WriteResult::failure(
        "durable: record count " + std::to_string(records_.size()) +
        " exceeds the cap of " + std::to_string(kMaxDurableRecords) +
        " for " + path);
  }
  return write_file_atomic(path, bytes());
}

Expected<std::vector<std::string>, std::string> parse_durable(
    std::string_view bytes, std::string_view tag, std::uint32_t version) {
  using Result = Expected<std::vector<std::string>, std::string>;
  Cursor cur{bytes};
  char magic[sizeof kMagic];
  if (!cur.read_bytes(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return Result::failure("durable: bad magic (not a durable file)");
  }
  std::uint32_t tag_len = 0;
  if (!cur.read_u32(tag_len) || tag_len > kMaxTagLen) {
    return Result::failure("durable: bad tag length");
  }
  std::string_view file_tag;
  if (!cur.read_view(file_tag, tag_len)) {
    return Result::failure("durable: truncated tag");
  }
  if (file_tag != tag) {
    return Result::failure("durable: tag mismatch (file is '" +
                           std::string(file_tag) + "', expected '" +
                           std::string(tag) + "')");
  }
  std::uint32_t file_version = 0;
  std::uint32_t record_count = 0;
  if (!cur.read_u32(file_version) || !cur.read_u32(record_count)) {
    return Result::failure("durable: truncated header");
  }
  if (file_version != version) {
    return Result::failure("durable: unsupported version " +
                           std::to_string(file_version) + " (expected " +
                           std::to_string(version) + ")");
  }
  // Two plausibility bounds before reserving anything: the global cap the
  // writer enforces, and what the remaining bytes could physically hold.
  if (record_count > kMaxDurableRecords ||
      record_count > cur.remaining() / kMinRecordBytes) {
    return Result::failure("durable: implausible record count");
  }
  std::vector<std::string> records;
  records.reserve(record_count);
  for (std::uint32_t i = 0; i < record_count; ++i) {
    std::uint64_t len = 0;
    std::uint32_t crc = 0;
    if (!cur.read_u64(len) || !cur.read_u32(crc)) {
      return Result::failure("durable: truncated record header " + std::to_string(i));
    }
    if (len > cur.remaining()) {
      return Result::failure("durable: truncated record " + std::to_string(i));
    }
    std::string_view payload;
    cur.read_view(payload, static_cast<std::size_t>(len));
    if (crc32(payload) != crc) {
      return Result::failure("durable: CRC mismatch in record " + std::to_string(i));
    }
    records.emplace_back(payload);
  }
  const std::size_t body_end = cur.pos;
  char footer[sizeof kFooterMagic];
  std::uint32_t file_crc = 0;
  if (!cur.read_bytes(footer, sizeof footer) || !cur.read_u32(file_crc) ||
      std::memcmp(footer, kFooterMagic, sizeof kFooterMagic) != 0) {
    return Result::failure("durable: missing footer (truncated file)");
  }
  if (cur.remaining() != 0) {
    return Result::failure("durable: trailing bytes after footer");
  }
  if (crc32(bytes.substr(0, body_end)) != file_crc) {
    return Result::failure("durable: file CRC mismatch");
  }
  return Result(std::move(records));
}

Expected<std::vector<std::string>, std::string> read_durable_file(
    const std::string& path, std::string_view tag, std::uint32_t version) {
  using Result = Expected<std::vector<std::string>, std::string>;
  auto raw = read_file(path);
  if (!raw) return Result::failure("durable: " + raw.error());
  return parse_durable(raw.value(), tag, version);
}

}  // namespace trajkit::durable
