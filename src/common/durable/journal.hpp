// CRC-framed write-ahead journal with deterministic torn-tail recovery.
//
// The streaming half of the durability story: appended records (crowdsourced
// RPD scans, in the wifi layer) land in this journal *first*, each framed
// with a sequence number and a CRC-32, and are only folded into the durable
// snapshot by an explicit compaction.  After a crash, open() replays every
// intact record in order and truncates the file at the first torn or corrupt
// frame — so recovery always yields an exact prefix of what was appended,
// never a hybrid.
//
// Sequence numbers make snapshot+journal recovery idempotent: every record
// carries the seq it was appended under, the companion snapshot stores the
// next seq it has folded in, and replay skips records older than the
// snapshot.  A crash anywhere between "snapshot committed" and "journal
// reset" therefore double-applies nothing.
//
// File layout (integers native little-endian, like durable_file):
//
//   "TKJRNL2\n"        8-byte magic; the digit is the format version
//   u32 tag_len, tag
//   u64 base_seq       seq of the first record this file may hold
//   per record ("TKJ2"): u64 seq, u64 uploader, u32 payload_len,
//                        u32 crc32(uploader_bytes || payload), payload
//
// Every frame carries per-record *provenance*: a stable uploader id stamped
// by the ingestion layer (0 when anonymous), so a crowdsourced record keeps
// its origin through replay, compaction and follower WAL shipping, and the
// stamp sits under the frame's CRC.  A header with any other version digit
// (the provenance-free "TKJRNL1" format included) is refused as an
// unsupported version, never replayed or truncated.
//
// The append path carries fault/crash points (kFaultAppendPartial lands
// mid-frame, kFaultAppendSync after the frame but before fsync).  A kCrash
// there kills the process and leaves a genuinely torn tail for the harness;
// a kFail — like any real write or fsync error — rolls the file back to its
// pre-append size before returning, so a live journal never sits behind a
// torn frame that a later open() would truncate (along with every record
// acknowledged after it).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/expected.hpp"

namespace trajkit::durable {

/// Fault/crash points of the journal, in execution order.
inline constexpr const char* kFaultAppendPartial = "journal.append_partial";
inline constexpr const char* kFaultAppendSync = "journal.append_sync";
inline constexpr const char* kFaultJournalReset = "journal.reset";

class Journal {
 public:
  struct Record {
    std::uint64_t seq = 0;
    std::string payload;
    /// Provenance stamp; 0 is the anonymous uploader.
    std::uint64_t uploader = 0;
  };

  /// What open() found on disk.
  struct Recovery {
    std::vector<Record> records;   ///< every intact record, in order
    std::uint64_t truncated_bytes = 0;  ///< torn-tail bytes discarded
  };

  /// Open (creating if absent) the journal at `path`.  A new journal starts
  /// at `base_seq_if_new` and is created atomically, so a crash during
  /// creation leaves either no journal or a valid empty one.  An existing
  /// journal is recovered: intact records are replayed into recovery(),
  /// and a torn tail is physically truncated off the file.  A file whose
  /// *header* does not parse, or names another format version, is an error
  /// and leaves the file untouched — that is committed state, not a torn
  /// append, and must not be silently discarded.
  static Expected<std::unique_ptr<Journal>, std::string> open(
      const std::string& path, std::string_view tag,
      std::uint64_t base_seq_if_new = 0, bool sync_each_append = true);

  /// Read-only scan of a journal file owned by someone else: every intact
  /// record, in order, without truncating a torn tail or taking an append
  /// fd.  This is the replication hook — a leader ships its write-ahead
  /// frames by letting a follower read (path, tag) and replay the records
  /// through its own seq-skip apply path, and a follower cold-start replays
  /// the leader's journal tail on top of a copied snapshot the same way.  A
  /// missing file is an error (the caller knows whether a journal must
  /// exist); a torn tail is not — the intact prefix is exactly what the
  /// owner would recover.
  static Expected<Recovery, std::string> read_records(const std::string& path,
                                                      std::string_view tag);

  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  const Recovery& recovery() const { return recovery_; }
  std::uint64_t next_seq() const { return next_seq_; }
  const std::string& path() const { return path_; }

  /// Append one record stamped with `uploader` (0 = anonymous); returns the
  /// seq it was assigned.  With sync_each_append the record is fsynced before returning (the WAL
  /// contract); otherwise durability is deferred to sync()/the OS.  On
  /// failure the file is rolled back to its pre-append size (the record was
  /// never acknowledged, so it must not linger as a torn frame under later
  /// appends); if the rollback itself fails the journal is poisoned — every
  /// later append fails — rather than risk acknowledging records a future
  /// recovery would truncate away.
  Expected<std::uint64_t, std::string> append(std::string_view payload,
                                              std::uint64_t uploader = 0);

  /// fsync the journal fd.
  Expected<bool, std::string> sync();

  /// Atomically replace the file with a fresh empty journal starting at
  /// `base_seq` (compaction's final step).  The old records stay readable by
  /// any already-open handle until the rename lands; a crash before the
  /// rename leaves the old journal, whose stale records the seq check skips.
  Expected<bool, std::string> reset(std::uint64_t base_seq);

 private:
  Journal(std::string path, std::string tag, bool sync_each_append);

  /// Failed-append recovery: truncate the file back to `pre_append_size` so
  /// no torn frame survives under an open journal; poisons the journal
  /// (fd_ = -1) when the rollback fails.  Returns the error message to
  /// report, annotated if poisoned.
  std::string abort_append(off_t pre_append_size, std::string message);

  std::string path_;
  std::string tag_;
  bool sync_each_append_;
  int fd_ = -1;
  std::uint64_t next_seq_ = 0;
  Recovery recovery_;
};

}  // namespace trajkit::durable
