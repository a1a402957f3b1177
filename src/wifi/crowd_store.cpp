#include "wifi/crowd_store.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/durable/durable_file.hpp"
#include "common/fault.hpp"

namespace trajkit::wifi {
namespace {

constexpr const char* kSnapshotTag = "crowd_snapshot";
// Layout: meta "next_seq point_count observed_epoch observed_motion_epoch",
// then one "<uploader> <point>" record per point, then three trailing
// records — cell statistics, provenance grid, reputation book.  Snapshots
// stamped with any other version are refused (durable::parse_durable).
constexpr std::uint32_t kSnapshotVersion = 4;
constexpr std::size_t kSnapshotOverhead = 4;  ///< meta + three trailing records
constexpr const char* kJournalTag = "crowd_journal";
constexpr std::size_t kMaxSnapshotPoints = 5'000'000;
constexpr const char* kEpochMarkerPrefix = "#epoch ";
constexpr const char* kMotionEpochMarkerPrefix = "#motion_epoch ";
constexpr const char* kQuarantineMarkerPrefix = "#quarantine ";
constexpr const char* kClearMarkerPrefix = "#clear ";

// Every point the store can hold must fit in one snapshot container (plus
// its meta, cell-stats, provenance and reputation records), or compact()
// would commit a snapshot that open() can never read back — a store that
// bricks itself at its first compaction.
static_assert(kMaxSnapshotPoints + 4 <= durable::kMaxDurableRecords,
              "crowd snapshot capacity exceeds the durable record cap");

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Strict "<prefix><decimal u64>" match, no sign, no trailing garbage.
bool parse_marker_value(const std::string& payload, const char* prefix,
                        std::uint64_t* value) {
  const std::size_t prefix_len = std::strlen(prefix);
  if (payload.compare(0, prefix_len, prefix) != 0) return false;
  const std::string digits = payload.substr(prefix_len);
  if (digits.empty() || digits.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *value = v;
  return true;
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
  std::istringstream is(line);
  ReferencePoint p;
  std::size_t scan_size = 0;
  if (!(is >> p.pos.east >> p.pos.north >> p.traj_id >> scan_size)) {
    return Result::failure("crowd point: bad record head");
  }
  if (scan_size > kMaxScanAps) {
    return Result::failure("crowd point: oversized scan");
  }
  p.scan.resize(scan_size);
  for (auto& obs : p.scan) {
    if (!(is >> obs.mac >> obs.rssi_dbm)) {
      return Result::failure("crowd point: truncated scan");
    }
  }
  auto valid = validate_reference_point(p);
  if (!valid) return Result::failure(valid.error());
  return Result(std::move(p));
}

std::string CrowdStore::encode_epoch_marker(std::uint64_t epoch) {
  return kEpochMarkerPrefix + std::to_string(epoch);
}

std::string CrowdStore::encode_motion_epoch_marker(std::uint64_t epoch) {
  return kMotionEpochMarkerPrefix + std::to_string(epoch);
}

std::string CrowdStore::encode_quarantine_marker(UploaderId uploader) {
  return kQuarantineMarkerPrefix + std::to_string(uploader);
}

std::string CrowdStore::encode_clear_marker(UploaderId uploader) {
  return kClearMarkerPrefix + std::to_string(uploader);
}

Expected<CrowdStore::ControlFrame, std::string> CrowdStore::parse_control(
    const std::string& payload) {
  using Result = Expected<ControlFrame, std::string>;
  ControlFrame frame;
  if (parse_marker_value(payload, kEpochMarkerPrefix, &frame.value)) {
    frame.kind = ControlFrame::Kind::kEpoch;
    return Result(frame);
  }
  if (parse_marker_value(payload, kMotionEpochMarkerPrefix, &frame.value)) {
    frame.kind = ControlFrame::Kind::kMotionEpoch;
    return Result(frame);
  }
  if (parse_marker_value(payload, kQuarantineMarkerPrefix, &frame.value)) {
    frame.kind = ControlFrame::Kind::kQuarantine;
    return Result(frame);
  }
  if (parse_marker_value(payload, kClearMarkerPrefix, &frame.value)) {
    frame.kind = ControlFrame::Kind::kClear;
    return Result(frame);
  }
  return Result::failure("unknown control frame");
}

bool CrowdStore::is_epoch_marker(const std::string& payload, std::uint64_t* epoch) {
  std::uint64_t value = 0;
  if (!parse_marker_value(payload, kEpochMarkerPrefix, &value)) return false;
  if (epoch != nullptr) *epoch = value;
  return true;
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
    if (records.size() < kSnapshotOverhead) {
      return Result::failure("crowd store: snapshot missing records");
    }
    std::istringstream meta(records[0]);
    std::size_t point_count = 0;
    if (!(meta >> snapshot_next_seq >> point_count >> store->observed_epoch_ >>
          store->observed_motion_epoch_) ||
        point_count != records.size() - kSnapshotOverhead ||
        point_count > kMaxSnapshotPoints) {
      return Result::failure("crowd store: bad snapshot meta record");
    }
    store->points_.reserve(point_count);
    store->uploaders_.reserve(point_count);
    for (std::size_t i = 1; i <= point_count; ++i) {
      UploaderId uploader = kAnonymousUploader;
      std::string body;
      std::istringstream rec(records[i]);
      if (!(rec >> uploader) || !std::getline(rec, body)) {
        return Result::failure("crowd store: snapshot record " +
                               std::to_string(i - 1) + ": bad uploader prefix");
      }
      auto point = decode_point(body);
      if (!point) {
        return Result::failure("crowd store: snapshot record " +
                               std::to_string(i - 1) + ": " + point.error());
      }
      store->points_.push_back(std::move(point).value());
      store->uploaders_.push_back(uploader);
    }
    auto grid = CellStatsGrid::deserialize(records[point_count + 1]);
    if (!grid) return Result::failure("crowd store: " + grid.error());
    if (grid.value().point_count() != point_count) {
      return Result::failure("crowd store: snapshot cell stats disagree with point count");
    }
    store->cell_stats_ = std::move(grid).value();
    auto prov = ProvenanceGrid::deserialize(records[point_count + 2]);
    if (!prov) return Result::failure("crowd store: " + prov.error());
    if (prov.value().point_count() != point_count) {
      return Result::failure("crowd store: snapshot provenance disagrees with point count");
    }
    store->provenance_ = std::move(prov).value();
    auto book = ReputationBook::deserialize(records[point_count + 3]);
    if (!book) return Result::failure("crowd store: " + book.error());
    store->reputation_ = std::move(book).value();
  }
  store->snapshot_count_ = store->points_.size();
  store->open_stats_.snapshot_points = store->points_.size();

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
    if (!point) {
      return Result::failure("crowd store: journal seq " +
                             std::to_string(record.seq) + ": " + point.error());
    }
    store->ingest_state(point.value(), record.uploader);
    ++store->open_stats_.replayed_records;
  }
  store->journaled_ = store->open_stats_.replayed_records;
  return Result(std::move(store));
}

void CrowdStore::ingest_state(const ReferencePoint& point, UploaderId uploader) {
  // Score against the consensus the *other* witnesses formed before this
  // point lands — an upload never vouches for itself, and the agreement each
  // append earns is a pure function of the ingestion prefix (replay-safe).
  double agree_sum = 0.0;
  std::size_t scored = 0;
  if (uploader != kAnonymousUploader) {
    const RobustCellAggregator agg(cell_stats_, provenance_, agg_params_);
    for (const auto& obs : point.scan) {
      double consensus = 0.0;
      if (!agg.consensus_excluding(point.pos, obs.mac, uploader, &consensus)) {
        continue;
      }
      agree_sum += ReputationBook::agreement(obs.rssi_dbm - consensus, rep_params_);
      ++scored;
    }
  }
  cell_stats_.add(point);
  provenance_.add(point, uploader);
  points_.push_back(point);
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
  if (points_.size() >= kMaxSnapshotPoints) {
    return Result::failure("crowd store: at capacity (" +
                           std::to_string(kMaxSnapshotPoints) + " points)");
  }
  auto valid = validate_reference_point(point);
  if (!valid) return Result::failure("crowd store: " + valid.error());
  // Rate admission runs only here, never at replay — a journaled record was
  // already admitted once, and re-litigating it on recovery could refuse to
  // replay history the store durably accepted.
  auto admitted = rate_limiter_.admit(uploader, points_.size());
  if (!admitted) return Result::failure("crowd store: " + admitted.error());
  auto seq = journal_->append(encode_point(point), uploader);
  if (!seq) return Result::failure("crowd store: " + seq.error());
  // Only after the journal accepted (and fsynced) the record does it become
  // visible — what callers can query is always recoverable.
  ingest_state(point, uploader);
  ++journaled_;
  return seq;
}

Expected<std::uint64_t, std::string> CrowdStore::append_control(
    const std::string& payload) {
  using Result = Expected<std::uint64_t, std::string>;
  auto frame = parse_control(payload);
  if (!frame) return Result::failure("crowd store: " + frame.error());
  auto seq = journal_->append(payload);
  if (!seq) return Result::failure("crowd store: " + seq.error());
  apply_control(frame.value());
  ++journaled_;
  return seq;
}

Expected<std::uint64_t, std::string> CrowdStore::append_epoch_marker(
    std::uint64_t epoch) {
  return append_control(encode_epoch_marker(epoch));
}

Expected<std::uint64_t, std::string> CrowdStore::append_motion_epoch_marker(
    std::uint64_t epoch) {
  return append_control(encode_motion_epoch_marker(epoch));
}

Expected<std::uint64_t, std::string> CrowdStore::append_quarantine_marker(
    UploaderId uploader) {
  return append_control(encode_quarantine_marker(uploader));
}

Expected<std::uint64_t, std::string> CrowdStore::append_clear_marker(
    UploaderId uploader) {
  return append_control(encode_clear_marker(uploader));
}

std::vector<ReferencePoint> CrowdStore::trusted_points() const {
  std::vector<ReferencePoint> out;
  out.reserve(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    if (!reputation_.is_quarantined(uploaders_[i])) out.push_back(points_[i]);
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

  // The cell statistics and the provenance grid were maintained incrementally
  // on every append, so compaction serialises the live structures instead of
  // recomputing them.  The debug flag recomputes anyway and demands bitwise
  // equality — any drift between the incremental and from-scratch paths fails
  // loudly here rather than silently skewing the online model layer.
  const std::string cell_stats_text = cell_stats_.serialize();
  const std::string provenance_text = provenance_.serialize();
  if (verify_cell_stats_) {
    CellStatsGrid fresh(cell_stats_.cell_size_m());
    for (const auto& point : points_) fresh.add(point);
    if (fresh.serialize() != cell_stats_text) {
      return Result::failure(
          "crowd store: incremental cell stats diverged from recompute");
    }
    ProvenanceGrid fresh_prov(provenance_.cell_size_m());
    for (std::size_t i = 0; i < points_.size(); ++i) {
      fresh_prov.add(points_[i], uploaders_[i]);
    }
    if (fresh_prov.serialize() != provenance_text) {
      return Result::failure(
          "crowd store: incremental provenance diverged from recompute");
    }
  }

  // Stage 1: commit a fresh snapshot of everything, stamped with the journal
  // seq it covers and the highest observed model epoch.  Atomic replace — a
  // crash leaves the old snapshot.  Quarantined uploaders' points are folded
  // like any others: storage is not judgement, and a later "#clear" must
  // find them intact.
  durable::DurableWriter writer(kSnapshotTag, kSnapshotVersion);
  writer.add_record(std::to_string(next_seq) + ' ' + std::to_string(points_.size()) +
                    ' ' + std::to_string(observed_epoch_) + ' ' +
                    std::to_string(observed_motion_epoch_));
  for (std::size_t i = 0; i < points_.size(); ++i) {
    writer.add_record(std::to_string(uploaders_[i]) + ' ' + encode_point(points_[i]));
  }
  writer.add_record(cell_stats_text);
  writer.add_record(provenance_text);
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
  snapshot_count_ = points_.size();
  journaled_ = 0;
  return Result(true);
}

}  // namespace trajkit::wifi
