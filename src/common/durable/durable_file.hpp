// Crash-safe file persistence: atomic replace + CRC-framed record container.
//
// Every artifact trajkit persists (trained detectors, LSTM/GBT models, RPD
// store snapshots) historically went through a bare ofstream — a crash
// mid-save left a torn file that the loaders would happily parse into
// garbage.  This layer gives every saver the same two guarantees:
//
//   * **Atomicity** — write_file_atomic() writes `path + ".tmp"`, fsyncs it,
//     rename(2)s it over `path` and fsyncs the directory.  A reader (or a
//     restart) observes either the complete old file or the complete new one,
//     never a hybrid; POSIX rename is atomic on a single filesystem.
//   * **Integrity** — DurableWriter frames payload records with a per-record
//     CRC-32 and closes the file with a footer carrying a whole-file CRC.
//     read_durable_file() re-validates everything and returns Expected
//     errors for truncation, bad magic, wrong tag, version skew and CRC
//     mismatch — a corrupt artifact is a diagnosable load failure, never
//     silently consumed.
//
// Each format has exactly one version.  The version check lives in
// parse_durable: callers pass the version they write, and a file stamped
// with any other one is refused ("unsupported version N (expected M)"), so
// no loader carries a branch for a layout nothing writes any more.
//
// Frame layout (all integers native little-endian, this repo targets one
// architecture):
//
//   "TKDURB1\n"            8-byte magic
//   u32 tag_len, tag       format tag, e.g. "rssi_detector"
//   u32 version            format-specific version
//   u32 record_count
//   per record:            u64 payload_len, u32 crc32(payload), payload
//   "TKEN"                 4-byte footer magic
//   u32 crc32(everything before the footer magic)
//
// The write path is instrumented with common/fault points (kFaultPoints
// below).  Armed with FaultAction::kCrash they _exit() the process at that
// exact byte position, which is how tests/crash_recovery_test.cpp proves the
// pre-image/post-image guarantee at every step; armed with kFail they report
// an Expected error after leaving the same on-disk state behind.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"

namespace trajkit::durable {

/// Fault/crash points of the atomic write path, in execution order.  A crash
/// at any point up to and including kFaultRename leaves the previous file
/// intact; a crash at kFaultDirSync (after the rename) leaves the new one.
inline constexpr const char* kFaultOpenTmp = "durable.open_tmp";
inline constexpr const char* kFaultWritePartial = "durable.write_partial";
inline constexpr const char* kFaultSyncTmp = "durable.sync_tmp";
inline constexpr const char* kFaultRename = "durable.rename";
inline constexpr const char* kFaultDirSync = "durable.sync_dir";

/// Every fault point on the atomic write path, for harnesses that iterate
/// the full crash matrix.
inline constexpr const char* kAtomicWritePoints[] = {
    kFaultOpenTmp, kFaultWritePartial, kFaultSyncTmp, kFaultRename, kFaultDirSync,
};

/// Upper bound on records in one framed container.  Enforced at write time
/// by DurableWriter::commit and re-checked on parse (together with a
/// bytes-based plausibility bound), so a writer can never commit a file the
/// reader would refuse.  Model files hold one record, an artifact two and a
/// crowd snapshot three; the largest producer is the artifact store's
/// CURRENT file, one record per published kind, which nothing else bounds.
/// The cap stays past 16 bits: a 65,536 cap once refused files a writer
/// had committed.
inline constexpr std::size_t kMaxDurableRecords = std::size_t{1} << 17;

/// Atomically replace `path` with `content` (temp file + fsync + rename +
/// directory fsync).  On failure the previous file is untouched and the temp
/// file is removed.  Single-writer per path: concurrent writers would race on
/// the same temp name.
Expected<bool, std::string> write_file_atomic(const std::string& path,
                                              std::string_view content);

/// Remove a stale `path + ".tmp"` left behind by a crash between open and
/// rename inside write_file_atomic.  Recovery-time hygiene for owners of a
/// path's lifecycle (Journal::open, CrowdStore::open); missing temp files
/// are not an error.
void remove_stale_tmp(const std::string& path);

/// Slurp a whole file; error on open/read failure (never on content).
Expected<std::string, std::string> read_file(const std::string& path);

/// Frames records into one buffer as they are added, then commits it as one
/// file, atomically.  The buffer is the file minus its footer, so a payload
/// is held once by the caller and once framed; commit() adds no copy.
class DurableWriter {
 public:
  DurableWriter(std::string_view tag, std::uint32_t version);

  void add_record(std::string_view payload);

  /// The framed byte image (magic..footer) — what commit() writes.
  std::string bytes() const;

  /// Atomic write of bytes() to `path` via write_file_atomic.  The footer is
  /// appended to the buffer for the write and taken off again, so the writer
  /// may take more records afterwards.
  Expected<bool, std::string> commit(const std::string& path);

 private:
  std::string frame_;          ///< header and framed records, no footer
  std::size_t count_at_ = 0;   ///< offset of the u32 record count in frame_
  std::size_t records_ = 0;
};

/// Parse and fully validate a framed image into its records; `tag` and
/// `version` must match the writer's.
Expected<std::vector<std::string>, std::string> parse_durable(
    std::string_view bytes, std::string_view tag, std::uint32_t version);

/// read_file + parse_durable.
Expected<std::vector<std::string>, std::string> read_durable_file(
    const std::string& path, std::string_view tag, std::uint32_t version);

/// FNV-1a of a path, the key under which the write path's fault points are
/// consulted (matches the hashing detector_io already uses).
std::uint64_t path_fault_key(std::string_view path);

}  // namespace trajkit::durable
