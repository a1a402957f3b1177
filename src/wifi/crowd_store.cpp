#include "wifi/crowd_store.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "common/durable/bytes.hpp"
#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"

namespace trajkit::wifi {
namespace {

constexpr const char* kSnapshotTag = "crowd_snapshot";
// Layout (DESIGN.md, "Crowd snapshot image"): a binary meta record (u64
// next_seq, observed_epoch, observed_motion_epoch), one point record (the
// points' PointArrays image, then a u64 uploader per point) and the
// reputation book's text.  Facts only: the provenance grid is a fold of the
// points and is rebuilt on open.  Snapshots stamped with any other version
// are refused (durable::parse_durable).
constexpr std::uint32_t kSnapshotVersion = 6;
constexpr std::size_t kSnapshotRecords = 3;
constexpr const char* kJournalTag = "crowd_journal";
constexpr std::size_t kMaxSnapshotPoints = 5'000'000;
/// Control-frame prefixes, indexed by ControlFrame::Kind.
constexpr std::string_view kControlPrefix[] = {"#epoch ", "#motion_epoch ",
                                               "#quarantine ", "#clear "};
static_assert(std::size(kControlPrefix) ==
                  static_cast<std::size_t>(ControlFrame::Kind::kClear) + 1,
              "one prefix per control-frame kind");

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Why `arrays` cannot key `point` (PointArrays::check), or "" when they can.
std::string keying_refusal(const PointArrays& arrays, const ReferencePoint& point) {
  try {
    arrays.check(point);
  } catch (const std::exception& e) {
    return e.what();
  }
  return {};
}

}  // namespace

std::string CrowdStore::snapshot_path(const std::string& dir) {
  return dir + "/crowd.snapshot";
}

std::string CrowdStore::journal_path(const std::string& dir) {
  return dir + "/crowd.journal";
}

const char* CrowdStore::journal_tag() { return kJournalTag; }

std::string CrowdStore::encode_point(const ReferencePoint& point) {
  std::string out = format_double(point.pos.east);
  out += ' ';
  out += format_double(point.pos.north);
  out += ' ';
  out += std::to_string(point.traj_id);
  out += ' ';
  out += std::to_string(point.scan.size());
  for (const auto& obs : point.scan) {
    out += ' ';
    out += std::to_string(obs.mac);
    out += ' ';
    out += std::to_string(obs.rssi_dbm);
  }
  return out;
}

Expected<ReferencePoint, std::string> CrowdStore::decode_point(
    const std::string& line) {
  using Result = Expected<ReferencePoint, std::string>;
  const char* at = line.data();
  const char* const last = at + line.size();
  // One field: every byte up to the next space or the end, parsed whole.
  const auto field = [&](auto& value) {
    const char* const end = std::find(at, last, ' ');
    const auto [ptr, ec] = std::from_chars(at, end, value);
    at = end == last ? last : end + 1;
    return ec == std::errc() && ptr == end;
  };
  ReferencePoint p;
  std::size_t scan_size = 0;
  bool parsed = field(p.pos.east) && field(p.pos.north) && field(p.traj_id) &&
                field(scan_size) && scan_size <= kMaxScanAps;
  if (parsed) p.scan.resize(scan_size);
  for (auto& obs : p.scan) parsed = parsed && field(obs.mac) && field(obs.rssi_dbm);
  // Re-encoding must give the same bytes: this refuses trailing bytes, a
  // sign, a doubled space and a double not in its %.17g form alike.
  if (!parsed || encode_point(p) != line) {
    return Result::failure("crowd point: not a record encode_point writes");
  }
  auto valid = validate_reference_point(p);
  if (!valid) return Result::failure(valid.error());
  return Result(std::move(p));
}

std::string CrowdStore::encode_control(const ControlFrame& frame) {
  return std::string(kControlPrefix[static_cast<std::size_t>(frame.kind)]) +
         std::to_string(frame.value);
}

Expected<ControlFrame, std::string> CrowdStore::parse_control(
    const std::string& payload) {
  using Result = Expected<ControlFrame, std::string>;
  for (std::size_t k = 0; k < std::size(kControlPrefix); ++k) {
    if (!payload.starts_with(kControlPrefix[k])) continue;
    ControlFrame frame{static_cast<ControlFrame::Kind>(k), 0};
    const char* last = payload.data() + payload.size();
    const auto [end, ec] = std::from_chars(
        payload.data() + kControlPrefix[k].size(), last, frame.value);
    // Re-encoding must give the same bytes: this refuses a sign, a leading
    // zero and overflow alike.
    if (ec == std::errc() && end == last && encode_control(frame) == payload) {
      return Result(frame);
    }
    break;
  }
  return Result::failure("unknown control frame");
}

Expected<std::unique_ptr<CrowdStore>, std::string> CrowdStore::open(
    const std::string& dir, bool sync_each_append, const Tuning& tuning) {
  using Result = Expected<std::unique_ptr<CrowdStore>, std::string>;

  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Result::failure("crowd store: cannot create " + dir + ": " +
                           std::strerror(errno));
  }

  std::unique_ptr<CrowdStore> store(new CrowdStore);
  store->dir_ = dir;
  // Tuning lands before replay: the journal tail below is rescored under
  // exactly these parameters.
  store->set_reputation_params(tuning.reputation);
  store->set_aggregation_params(tuning.aggregation);
  store->set_rate_policy(tuning.rate_policy);

  // 1. The snapshot: the compacted prefix of the dataset.  Absent on a fresh
  // store; otherwise it must parse — it was committed atomically, so damage
  // here is real corruption, not a crash artifact.
  std::uint64_t snapshot_next_seq = 0;
  const std::string snap = snapshot_path(dir);
  // A crash inside a previous snapshot commit can strand `crowd.snapshot.tmp`
  // forever (the journal cleans up its own temp in Journal::open).
  durable::remove_stale_tmp(snap);
  struct stat st {};
  if (::stat(snap.c_str(), &st) == 0) {
    auto contents = durable::read_durable_file(snap, kSnapshotTag, kSnapshotVersion);
    if (!contents) return Result::failure("crowd store: " + contents.error());
    const auto& records = contents.value();
    if (records.size() != kSnapshotRecords) {
      return Result::failure("crowd store: snapshot holds " +
                             std::to_string(records.size()) + " records, not " +
                             std::to_string(kSnapshotRecords));
    }
    durable::ByteCursor meta{records[0]};
    if (!(meta.read(snapshot_next_seq) && meta.read(store->observed_epoch_) &&
          meta.read(store->observed_motion_epoch_)) ||
        meta.remaining() != 0) {
      return Result::failure("crowd store: bad snapshot meta record");
    }
    auto points = store->load_point_record(records[1]);
    if (!points) return Result::failure("crowd store: snapshot " + points.error());
    auto book = ReputationBook::deserialize(records[2]);
    if (!book) return Result::failure("crowd store: " + book.error());
    store->reputation_ = std::move(book).value();
  }
  store->open_stats_.snapshot_points = store->arrays_.size();

  // 2. The journal: every accepted scan since that snapshot.  open() already
  // truncated any torn tail; replay skips records the snapshot has folded in
  // (possible when a crash hit compact() between its two stages).  Replay
  // shares ingest_state with the live append path, so the recovered
  // provenance and reputation state is bitwise what the crashed process had.
  auto journal = durable::Journal::open(journal_path(dir), kJournalTag,
                                        snapshot_next_seq, sync_each_append);
  if (!journal) return Result::failure("crowd store: " + journal.error());
  store->journal_ = std::move(journal).value();
  store->open_stats_.truncated_bytes = store->journal_->recovery().truncated_bytes;
  for (const auto& record : store->journal_->recovery().records) {
    if (record.seq < snapshot_next_seq) {
      ++store->open_stats_.skipped_stale;
      continue;
    }
    if (!record.payload.empty() && record.payload[0] == '#') {
      auto frame = parse_control(record.payload);
      if (!frame) {
        return Result::failure("crowd store: journal seq " +
                               std::to_string(record.seq) +
                               ": unknown control frame");
      }
      store->apply_control(frame.value());
      ++store->open_stats_.replayed_records;
      continue;
    }
    auto point = decode_point(record.payload);
    const std::string refusal =
        point ? keying_refusal(store->arrays_, point.value()) : point.error();
    if (!refusal.empty()) {
      return Result::failure("crowd store: journal seq " +
                             std::to_string(record.seq) + ": " + refusal);
    }
    store->ingest_state(point.value(), record.uploader);
    ++store->open_stats_.replayed_records;
  }
  store->journaled_ = store->open_stats_.replayed_records;
  return Result(std::move(store));
}

Expected<bool, std::string> CrowdStore::load_point_record(std::string_view record) {
  using Result = Expected<bool, std::string>;
  try {
    PointArrays arrays(record);
    if (arrays.size() > kMaxSnapshotPoints) {
      return Result::failure("holds " + std::to_string(arrays.size()) +
                             " points, above the store's capacity of " +
                             std::to_string(kMaxSnapshotPoints));
    }
    durable::ByteCursor cur{record};
    if (!cur.read_array(uploaders_, arrays.size())) {
      return Result::failure("point record: truncated uploader array");
    }
    if (cur.remaining() != 0) {
      return Result::failure("point record: trailing bytes after the uploaders");
    }
    arrays_ = std::move(arrays);
  } catch (const std::invalid_argument& e) {
    return Result::failure(std::string("point record: ") + e.what());
  }
  // The grid refolds in record order, which is ingestion order.  The
  // snapshot's reputation book already holds these points' scores, so they
  // are not rescored.
  provenance_.reserve(arrays_.observation_count());
  for (std::size_t h = 0; h < arrays_.size(); ++h) {
    provenance_.add(arrays_.point(h), uploaders_[h]);
  }
  return Result(true);
}

void CrowdStore::ingest_state(const ReferencePoint& point, UploaderId uploader) {
  // Score against the consensus the *other* witnesses formed before this
  // point lands — an upload never vouches for itself, and the agreement each
  // append earns is a pure function of the ingestion prefix (replay-safe).
  double agree_sum = 0.0;
  std::size_t scored = 0;
  if (uploader != kAnonymousUploader) {
    const RobustCellAggregator agg(provenance_, agg_params_);
    for (const auto& obs : point.scan) {
      double consensus = 0.0;
      if (!agg.consensus_excluding(point.pos, obs.mac, uploader, &consensus)) {
        continue;
      }
      agree_sum += ReputationBook::agreement(obs.rssi_dbm - consensus, rep_params_);
      ++scored;
    }
  }
  provenance_.add(point, uploader);
  arrays_.append(point);
  uploaders_.push_back(uploader);
  if (scored > 0) {
    reputation_.observe(uploader, agree_sum / static_cast<double>(scored),
                        rep_params_);
  }
}

void CrowdStore::apply_control(const ControlFrame& frame) {
  switch (frame.kind) {
    case ControlFrame::Kind::kEpoch:
      if (frame.value > observed_epoch_) observed_epoch_ = frame.value;
      break;
    case ControlFrame::Kind::kMotionEpoch:
      if (frame.value > observed_motion_epoch_) observed_motion_epoch_ = frame.value;
      break;
    case ControlFrame::Kind::kQuarantine:
      reputation_.quarantine(frame.value);
      break;
    case ControlFrame::Kind::kClear:
      reputation_.clear(frame.value);
      break;
  }
}

Expected<std::uint64_t, std::string> CrowdStore::append(const ReferencePoint& point,
                                                        UploaderId uploader) {
  using Result = Expected<std::uint64_t, std::string>;
  const std::size_t tick = arrays_.size();
  if (tick >= kMaxSnapshotPoints) {
    return Result::failure("crowd store: at capacity (" +
                           std::to_string(kMaxSnapshotPoints) + " points)");
  }
  auto valid = validate_reference_point(point);
  if (!valid) return Result::failure("crowd store: " + valid.error());
  // Rate admission runs only here, never at replay — a journaled record was
  // already admitted once, and re-litigating it on recovery could refuse to
  // replay history the store durably accepted.
  auto admitted = rate_limiter_.check(uploader, tick);
  if (!admitted) return Result::failure("crowd store: " + admitted.error());
  // The arrays refuse past 2^24 distinct MACs; refusing here keeps such a
  // point out of the journal too.
  const std::string refusal = keying_refusal(arrays_, point);
  if (!refusal.empty()) return Result::failure("crowd store: " + refusal);
  auto seq = journal_->append(encode_point(point), uploader);
  if (!seq) return Result::failure("crowd store: " + seq.error());
  // Only after the journal accepted (and fsynced) the record does it become
  // visible — what callers can query is always recoverable — and does it
  // use up the uploader's rate budget: a failed write charges nothing.
  rate_limiter_.charge(uploader, tick);
  ingest_state(point, uploader);
  ++journaled_;
  return seq;
}

Expected<std::uint64_t, std::string> CrowdStore::append_control(
    const ControlFrame& frame) {
  using Result = Expected<std::uint64_t, std::string>;
  auto seq = journal_->append(encode_control(frame));
  if (!seq) return Result::failure("crowd store: " + seq.error());
  apply_control(frame);
  ++journaled_;
  return seq;
}

std::vector<ReferencePoint> CrowdStore::points() const {
  std::vector<ReferencePoint> out;
  out.reserve(arrays_.size());
  for (std::size_t h = 0; h < arrays_.size(); ++h) out.push_back(arrays_.point(h));
  return out;
}

PointArrays CrowdStore::trusted_points() const {
  PointArrays out;
  for (std::size_t h = 0; h < arrays_.size(); ++h) {
    if (!reputation_.is_quarantined(uploaders_[h])) out.append(arrays_.point(h));
  }
  return out;
}

std::size_t CrowdStore::quarantined_point_count() const {
  std::size_t held = 0;
  for (const UploaderId uploader : uploaders_) {
    if (reputation_.is_quarantined(uploader)) ++held;
  }
  return held;
}

void CrowdStore::set_aggregation_params(const RobustAggregationParams& params) {
  agg_params_ = params;
  // Clamp into the aggregator's domain so ingest scoring can construct one
  // unconditionally; >= 0.5 is already "median" and negatives mean "off".
  if (!(agg_params_.trim_fraction >= 0.0)) agg_params_.trim_fraction = 0.0;
  if (agg_params_.trim_fraction > 0.5) agg_params_.trim_fraction = 0.5;
}

void CrowdStore::set_rate_policy(const UploaderRatePolicy& policy) {
  rate_limiter_ = UploaderRateLimiter(policy);
}

Expected<bool, std::string> CrowdStore::compact() {
  using Result = Expected<bool, std::string>;
  const std::uint64_t next_seq = journal_->next_seq();

  // Stage 1: commit a fresh snapshot of everything, stamped with the journal
  // seq it covers and the highest observed model epoch.  Atomic replace — a
  // crash leaves the old snapshot.  Quarantined uploaders' points are folded
  // like any others: storage is not judgement, and a later "#clear" must
  // find them intact.
  std::string meta;
  durable::append_u64(meta, next_seq);
  durable::append_u64(meta, observed_epoch_);
  durable::append_u64(meta, observed_motion_epoch_);
  std::string points;
  arrays_.append_image(points);
  durable::append_array(points, uploaders_.data(), uploaders_.size());
  durable::DurableWriter writer(kSnapshotTag, kSnapshotVersion);
  writer.add_record(meta);
  writer.add_record(points);
  writer.add_record(reputation_.serialize());
  auto committed = writer.commit(snapshot_path(dir_));
  if (!committed) return Result::failure("crowd store: " + committed.error());

  // The gap the recovery tests aim at: snapshot covers the journal, journal
  // still holds the (now stale) records.  Replay's seq check makes this a
  // consistent state, so crashing here loses nothing and duplicates nothing.
  if (global_faults().should_fail_seq(kFaultStoreCompact,
                                      durable::path_fault_key(snapshot_path(dir_)))) {
    return Result::failure("crowd store: injected fault between compact stages");
  }

  // Stage 2: reset the journal to start where the snapshot ends.
  auto reset = journal_->reset(next_seq);
  if (!reset) return Result::failure("crowd store: " + reset.error());
  journaled_ = 0;
  return Result(true);
}

}  // namespace trajkit::wifi
