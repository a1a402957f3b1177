#include "common/durable/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/durable/crc32.hpp"
#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"

namespace trajkit::durable {
namespace {

/// Header magic; byte kVersionAt is the format version digit.
constexpr char kMagic[8] = {'T', 'K', 'J', 'R', 'N', 'L', '2', '\n'};
constexpr std::size_t kVersionAt = 6;
constexpr char kRecordMagic[4] = {'T', 'K', 'J', '2'};
constexpr std::size_t kMaxTagLen = 256;
constexpr std::size_t kMaxPayload = 1u << 26;  ///< 64 MiB per record

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

std::string header_bytes(std::string_view tag, std::uint64_t base_seq) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  append_u32(out, static_cast<std::uint32_t>(tag.size()));
  out += tag;
  append_u64(out, base_seq);
  return out;
}

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

/// A frame's CRC chains the provenance stamp in front of the payload, so a
/// flipped uploader byte invalidates the whole frame — identity stamps are as
/// tamper-evident as the data they stamp.
std::uint32_t frame_crc(std::uint64_t uploader, std::string_view payload) {
  char stamp[sizeof uploader];
  std::memcpy(stamp, &uploader, sizeof stamp);
  return crc32(payload.data(), payload.size(), crc32(stamp, sizeof stamp));
}

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

/// Parsed body of a journal file: header seq plus the intact record prefix.
struct ParsedJournal {
  std::uint64_t base_seq = 0;
  Journal::Recovery recovery;
  std::size_t good_end = 0;  ///< file offset after the last intact record
};

Expected<ParsedJournal, std::string> parse_journal(const std::string& bytes,
                                                   std::string_view tag,
                                                   const std::string& path) {
  using Result = Expected<ParsedJournal, std::string>;
  Cursor cur{bytes};
  char magic[sizeof kMagic];
  if (!cur.read_bytes(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, kVersionAt) != 0 ||
      magic[kVersionAt + 1] != kMagic[kVersionAt + 1]) {
    return Result::failure("journal: bad magic in " + path);
  }
  if (magic[kVersionAt] != kMagic[kVersionAt]) {
    return Result::failure("journal: unsupported version " +
                           std::string(1, magic[kVersionAt]) + " (expected " +
                           std::string(1, kMagic[kVersionAt]) + ") in " + path);
  }
  std::uint32_t tag_len = 0;
  if (!cur.read_u32(tag_len) || tag_len > kMaxTagLen) {
    return Result::failure("journal: bad tag length in " + path);
  }
  std::string_view file_tag;
  if (!cur.read_view(file_tag, tag_len) || file_tag != tag) {
    return Result::failure("journal: tag mismatch in " + path);
  }
  ParsedJournal parsed;
  if (!cur.read_u64(parsed.base_seq)) {
    return Result::failure("journal: truncated header in " + path);
  }

  // Replay intact records; stop at the first frame that is short, has a bad
  // magic/CRC or an out-of-order seq.  Everything from there on is a torn
  // tail (or trailing corruption).
  std::uint64_t next_seq = parsed.base_seq;
  parsed.good_end = cur.pos;
  while (cur.remaining() > 0) {
    char rec_magic[sizeof kRecordMagic];
    std::uint64_t seq = 0;
    std::uint64_t uploader = 0;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    if (!cur.read_bytes(rec_magic, sizeof rec_magic) ||
        std::memcmp(rec_magic, kRecordMagic, sizeof kRecordMagic) != 0 ||
        !cur.read_u64(seq) || !cur.read_u64(uploader) || !cur.read_u32(len) ||
        !cur.read_u32(crc)) {
      break;
    }
    if (seq != next_seq || len > kMaxPayload || len > cur.remaining()) {
      break;
    }
    std::string_view payload;
    cur.read_view(payload, len);
    if (frame_crc(uploader, payload) != crc) break;
    parsed.recovery.records.push_back({seq, std::string(payload), uploader});
    next_seq = seq + 1;
    parsed.good_end = cur.pos;
  }
  parsed.recovery.truncated_bytes = bytes.size() - parsed.good_end;
  return Result(std::move(parsed));
}

}  // namespace

Journal::Journal(std::string path, std::string tag, bool sync_each_append)
    : path_(std::move(path)), tag_(std::move(tag)),
      sync_each_append_(sync_each_append) {}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Expected<std::unique_ptr<Journal>, std::string> Journal::open(
    const std::string& path, std::string_view tag, std::uint64_t base_seq_if_new,
    bool sync_each_append) {
  using Result = Expected<std::unique_ptr<Journal>, std::string>;

  // A crash between opening and renaming the temp file inside a previous
  // atomic write (creation or reset) leaves `path + ".tmp"` behind; nothing
  // else ever reclaims it, so recovery does.
  remove_stale_tmp(path);

  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    // No journal yet: create one atomically, so a crash mid-creation leaves
    // either nothing (retried next open) or a complete empty journal.
    auto created = write_file_atomic(path, header_bytes(tag, base_seq_if_new));
    if (!created) return Result::failure("journal create: " + created.error());
  }

  auto raw = read_file(path);
  if (!raw) return Result::failure("journal: " + raw.error());
  const std::string& bytes = raw.value();

  auto parsed = parse_journal(bytes, tag, path);
  if (!parsed) return Result::failure(parsed.error());

  std::unique_ptr<Journal> journal(
      new Journal(path, std::string(tag), sync_each_append));
  // A torn tail (or trailing corruption) is truncated off deterministically
  // below, so the journal recovers to an exact record prefix.
  const std::size_t good_end = parsed.value().good_end;
  journal->next_seq_ = parsed.value().base_seq + parsed.value().recovery.records.size();
  journal->recovery_ = std::move(parsed).value().recovery;

  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return Result::failure("journal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  if (journal->recovery_.truncated_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0 || ::fsync(fd) != 0) {
      ::close(fd);
      return Result::failure("journal: cannot truncate torn tail of " + path);
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    return Result::failure("journal: cannot seek " + path);
  }
  journal->fd_ = fd;
  return Result(std::move(journal));
}

Expected<Journal::Recovery, std::string> Journal::read_records(
    const std::string& path, std::string_view tag) {
  using Result = Expected<Recovery, std::string>;
  auto raw = read_file(path);
  if (!raw) return Result::failure("journal: " + raw.error());
  auto parsed = parse_journal(raw.value(), tag, path);
  if (!parsed) return Result::failure(parsed.error());
  return Result(std::move(parsed).value().recovery);
}

std::string Journal::abort_append(off_t pre_append_size, std::string message) {
  // A failed append must not leave a torn frame behind an open, usable
  // journal: later appends would land after the tear, be acknowledged, and
  // then be truncated away by the next open()'s torn-tail recovery — acked
  // records silently lost.  Roll the file back to its pre-append size; the
  // truncated length becomes durable with the next fsynced append, and a
  // crash before that recovers fine (open() cuts any torn tail, and the
  // failed record was never acknowledged).  If even the rollback fails,
  // poison the journal so every further append fails loudly.
  if (::ftruncate(fd_, pre_append_size) == 0 &&
      ::lseek(fd_, pre_append_size, SEEK_SET) >= 0) {
    return message;
  }
  message += " (rollback failed: ";
  message += std::strerror(errno);
  message += "; journal poisoned)";
  ::close(fd_);
  fd_ = -1;
  return message;
}

Expected<std::uint64_t, std::string> Journal::append(std::string_view payload,
                                                     std::uint64_t uploader) {
  using Result = Expected<std::uint64_t, std::string>;
  if (fd_ < 0) return Result::failure("journal: not open");
  if (payload.size() > kMaxPayload) {
    return Result::failure("journal: oversized record");
  }
  auto& faults = global_faults();
  const std::uint64_t key = path_fault_key(path_);

  std::string frame;
  frame.reserve(payload.size() + 28);
  frame.append(kRecordMagic, sizeof kRecordMagic);
  append_u64(frame, next_seq_);
  append_u64(frame, uploader);
  append_u32(frame, static_cast<std::uint32_t>(payload.size()));
  append_u32(frame, frame_crc(uploader, payload));
  frame += payload;

  const off_t start = ::lseek(fd_, 0, SEEK_CUR);
  if (start < 0) {
    return Result::failure("journal: cannot locate append offset in " + path_);
  }

  // Half the frame, then the fault point, then the rest: a kCrash here takes
  // the process down mid-frame, leaving a torn tail for the next open() to
  // truncate.  A kFail (like any real write/fsync error) instead returns
  // through abort_append, which rolls the file back so the journal stays
  // frame-aligned and usable.
  const std::size_t half = frame.size() / 2;
  if (!write_all(fd_, frame.data(), half)) {
    return Result::failure(abort_append(start, "journal: short write to " + path_));
  }
  if (faults.should_fail_seq(kFaultAppendPartial, key)) {
    return Result::failure(abort_append(start, "journal: injected fault mid-append"));
  }
  if (!write_all(fd_, frame.data() + half, frame.size() - half)) {
    return Result::failure(abort_append(start, "journal: short write to " + path_));
  }
  if (faults.should_fail_seq(kFaultAppendSync, key)) {
    return Result::failure(abort_append(start, "journal: injected fault before fsync"));
  }
  if (sync_each_append_ && ::fsync(fd_) != 0) {
    return Result::failure(abort_append(
        start, "journal: fsync failed: " + std::string(std::strerror(errno))));
  }
  return Result(next_seq_++);
}

Expected<bool, std::string> Journal::sync() {
  using Result = Expected<bool, std::string>;
  if (fd_ < 0) return Result::failure("journal: not open");
  if (::fsync(fd_) != 0) {
    return Result::failure("journal: fsync failed: " + std::string(std::strerror(errno)));
  }
  return Result(true);
}

Expected<bool, std::string> Journal::reset(std::uint64_t base_seq) {
  using Result = Expected<bool, std::string>;
  if (global_faults().should_fail_seq(kFaultJournalReset, path_fault_key(path_))) {
    return Result::failure("journal: injected fault before reset");
  }
  auto written = write_file_atomic(path_, header_bytes(tag_, base_seq));
  if (!written) return Result::failure("journal reset: " + written.error());
  // Re-point our fd at the fresh file (the old inode is unlinked by rename).
  const int fd = ::open(path_.c_str(), O_RDWR | O_APPEND);
  if (fd < 0) {
    return Result::failure("journal reset: cannot reopen " + path_ + ": " +
                           std::strerror(errno));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
  next_seq_ = base_seq;
  recovery_ = Recovery{};
  return Result(true);
}

}  // namespace trajkit::durable
