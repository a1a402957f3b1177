#include "serve/shard_service.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/durable/durable_file.hpp"
#include "common/durable/journal.hpp"
#include "common/fault.hpp"

namespace trajkit::serve {

// ---------------------------------------------------------------------------
// ShardReplica

Expected<std::unique_ptr<ShardReplica>, std::string> ShardReplica::open(
    const std::string& dir, bool sync_each_append) {
  using Result = Expected<std::unique_ptr<ShardReplica>, std::string>;
  auto store = wifi::CrowdStore::open(dir, sync_each_append);
  if (!store) return Result::failure("shard replica: " + store.error());
  return Result(std::unique_ptr<ShardReplica>(
      new ShardReplica(dir, std::move(store).value())));
}

Expected<std::unique_ptr<ShardReplica>, std::string> ShardReplica::bootstrap(
    const std::string& leader_dir, const std::string& dir, bool sync_each_append) {
  using Result = Expected<std::unique_ptr<ShardReplica>, std::string>;
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Result::failure("shard replica: cannot create " + dir + ": " +
                           std::strerror(errno));
  }

  // 1. The snapshot, copied atomically: the follower either has the complete
  // leader snapshot or none, never a torn one.  A missing leader snapshot
  // just means the leader never compacted — the journal tail is everything.
  const std::string leader_snapshot = wifi::CrowdStore::snapshot_path(leader_dir);
  struct stat st {};
  if (::stat(leader_snapshot.c_str(), &st) == 0) {
    auto bytes = durable::read_file(leader_snapshot);
    if (!bytes) return Result::failure("shard replica: " + bytes.error());
    auto copied = durable::write_file_atomic(wifi::CrowdStore::snapshot_path(dir),
                                             bytes.value());
    if (!copied) return Result::failure("shard replica: " + copied.error());
  }

  auto replica = open(dir, sync_each_append);
  if (!replica) return replica;

  // 2. The journal tail, scanned read-only (the leader may be dead; we must
  // not truncate or take an append fd on its files).  Replay goes through
  // apply_frame so records the copied snapshot already covers skip on seq.
  auto tail = durable::Journal::read_records(
      wifi::CrowdStore::journal_path(leader_dir), wifi::CrowdStore::journal_tag());
  if (!tail) return Result::failure("shard replica: " + tail.error());
  for (const auto& record : tail.value().records) {
    auto applied =
        replica.value()->apply_frame(record.seq, record.payload, record.uploader);
    if (!applied) return Result::failure(applied.error());
  }
  return replica;
}

Expected<bool, std::string> ShardReplica::apply_frame(std::uint64_t seq,
                                                      const std::string& payload,
                                                      wifi::UploaderId uploader,
                                                      std::uint64_t term) {
  using Result = Expected<bool, std::string>;
  std::lock_guard<std::mutex> lock(apply_mu_);
  // Fencing: a frame from a term below the highest seen is a deposed
  // leader's — refuse it before touching the WAL.  Equal terms are fine
  // (the common single-leader case); a higher term adopts.
  std::uint64_t seen = term_seen_.load(std::memory_order_relaxed);
  if (term < seen) {
    return Result::failure("shard replica: fenced: frame term " +
                           std::to_string(term) + " < seen term " +
                           std::to_string(seen));
  }
  if (term > seen) term_seen_.store(term, std::memory_order_relaxed);
  const std::uint64_t next = store_->next_seq();
  if (seq < next) return Result(false);  // already applied; redelivery is a no-op
  if (seq > next) {
    return Result::failure("shard replica: replication gap in " + dir_ +
                           ": got seq " + std::to_string(seq) + ", expected " +
                           std::to_string(next));
  }
  // Control frames ride the same WAL as the points: epoch markers and
  // quarantine reviews re-journal verbatim instead of decoding as a point.
  if (!payload.empty() && payload[0] == '#') {
    auto appended = store_->append_control(payload);
    if (!appended) {
      return Result::failure("shard replica: seq " + std::to_string(seq) + ": " +
                             appended.error());
    }
    return Result(true);
  }
  auto point = wifi::CrowdStore::decode_point(payload);
  if (!point) return Result::failure("shard replica: " + point.error());
  auto appended = store_->append(point.value(), uploader);
  if (!appended) return Result::failure("shard replica: " + appended.error());
  return Result(true);
}

Expected<std::uint64_t, std::string> ShardReplica::heartbeat(
    std::uint64_t term, std::uint64_t leader_next_seq) {
  using Result = Expected<std::uint64_t, std::string>;
  std::uint64_t seen = term_seen_.load(std::memory_order_relaxed);
  while (term > seen &&
         !term_seen_.compare_exchange_weak(seen, term, std::memory_order_relaxed)) {
  }
  if (term < seen) {
    return Result::failure("shard replica: fenced: heartbeat term " +
                           std::to_string(term) + " < seen term " +
                           std::to_string(seen));
  }
  leader_next_seen_.store(leader_next_seq, std::memory_order_relaxed);
  last_heartbeat_us_.store(clock_->now_us(), std::memory_order_relaxed);
  return store_->next_seq();
}

bool ShardReplica::leader_alive(std::int64_t lease_us) const {
  const std::int64_t last = last_heartbeat_us_.load(std::memory_order_relaxed);
  if (last < 0) return false;
  return clock_->now_us() - last <= lease_us;
}

std::uint64_t ShardReplica::promote() {
  const std::uint64_t next_term = term_seen_.load(std::memory_order_relaxed) + 1;
  term_seen_.store(next_term, std::memory_order_relaxed);
  return next_term;
}

// ---------------------------------------------------------------------------
// ShardService

ShardService::ShardService(std::size_t shard_id,
                           std::vector<wifi::ReferencePoint> slice,
                           const wifi::RssiDetectorConfig& config,
                           gbt::GbtClassifier classifier, std::size_t trained_points,
                           const BoundingBox& index_bounds, ShardServiceConfig cfg)
    : shard_id_(shard_id), required_follower_acks_(cfg.required_follower_acks) {
  epoched_.install({wifi::RssiDetector::assemble(std::move(slice), config,
                                                 std::move(classifier),
                                                 trained_points, index_bounds)},
                   0);
}

ShardService::ShardService(std::size_t shard_id,
                           std::unique_ptr<wifi::CrowdStore> store,
                           ShardServiceConfig cfg)
    : shard_id_(shard_id),
      store_(std::move(store)),
      required_follower_acks_(cfg.required_follower_acks) {}

Expected<std::unique_ptr<ShardService>, std::string> ShardService::open_leader(
    std::size_t shard_id, const std::string& dir, bool sync_each_append,
    ShardServiceConfig cfg) {
  using Result = Expected<std::unique_ptr<ShardService>, std::string>;
  auto store = wifi::CrowdStore::open(dir, sync_each_append);
  if (!store) return Result::failure("shard leader: " + store.error());
  return Result(std::unique_ptr<ShardService>(
      new ShardService(shard_id, std::move(store).value(), cfg)));
}

void ShardService::attach_follower(FollowerLink* follower) {
  followers_.push_back(follower);
  follower_failures_.push_back(0);
  follower_errors_.emplace_back();
}

std::size_t ShardService::required_acks() const {
  return std::min(required_follower_acks_, followers_.size());
}

Expected<std::uint64_t, std::string> ShardService::ship_to_followers(
    std::uint64_t seq, const std::string& payload, wifi::UploaderId uploader) {
  using Result = Expected<std::uint64_t, std::string>;
  // Ship the frame to every follower; the acknowledgement is issued only
  // after the quorum's own WALs hold it.  The fault points bracket each
  // follower append so the failover harness can kill the leader with the
  // frame in every intermediate state.  A failed follower does not abort the
  // fan-out — the rest still receive the frame, and the failure lands in
  // follower_failures()/follower_errors() for the repair machinery.
  auto& faults = global_faults();
  std::size_t acks = 0;
  std::string first_error;
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    std::string error;
    if (faults.should_fail_seq(kFaultShipFrame, seq)) {
      error = "shard: injected fault shipping frame " + std::to_string(seq);
    } else {
      auto applied = followers_[i]->apply_frame(seq, payload, uploader, term_);
      if (!applied) {
        error = applied.error();
      } else if (faults.should_fail_seq(kFaultShipApplied, seq)) {
        error = "shard: injected fault acknowledging frame " + std::to_string(seq);
      }
    }
    if (error.empty()) {
      ++acks;
    } else {
      ++follower_failures_[i];
      follower_errors_[i] = error;
      if (first_error.empty()) first_error = std::move(error);
    }
  }
  if (acks < required_acks()) {
    return Result::failure(first_error.empty() ? "shard: follower quorum not met"
                                               : first_error);
  }
  ++acked_;
  return Result(seq);
}

Expected<std::uint64_t, std::string> ShardService::ingest(
    const wifi::ReferencePoint& point, wifi::UploaderId uploader) {
  using Result = Expected<std::uint64_t, std::string>;
  if (!store_) return Result::failure("shard: no store attached");

  // Leader-durable first: the WAL append fsyncs before returning a seq.
  auto seq = store_->append(point, uploader);
  if (!seq) return seq;
  return ship_to_followers(seq.value(), wifi::CrowdStore::encode_point(point),
                           uploader);
}

std::size_t ShardService::send_heartbeats() {
  const std::uint64_t leader_next = store_ ? store_->next_seq() : 0;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < followers_.size(); ++i) {
    auto ack = followers_[i]->heartbeat(term_, leader_next);
    if (ack) {
      ++answered;
    } else {
      ++follower_failures_[i];
      follower_errors_[i] = ack.error();
    }
  }
  return answered;
}

Expected<bool, std::string> ShardService::compact() {
  using Result = Expected<bool, std::string>;
  if (!store_) return Result::failure("shard: no store attached");
  return store_->compact();
}

Expected<std::uint64_t, std::string> ShardService::ship_epoch_marker(
    std::uint64_t epoch) {
  return ship_control(wifi::CrowdStore::encode_epoch_marker(epoch));
}

Expected<std::uint64_t, std::string> ShardService::ship_motion_marker(
    std::uint64_t epoch) {
  return ship_control(wifi::CrowdStore::encode_motion_epoch_marker(epoch));
}

Expected<std::uint64_t, std::string> ShardService::ship_control(
    const std::string& payload) {
  using Result = Expected<std::uint64_t, std::string>;
  if (!store_) return Result::failure("shard: no store attached");
  auto seq = store_->append_control(payload);
  if (!seq) return seq;
  // Same shipping discipline (and fault points) as point frames: followers
  // hold the marker durably before it is acknowledged.
  return ship_to_followers(seq.value(), payload, wifi::kAnonymousUploader);
}

Expected<bool, std::string> ShardService::arm_verification(
    const wifi::RssiDetectorConfig& config, gbt::GbtClassifier classifier,
    std::size_t trained_points, const BoundingBox& index_bounds) {
  using Result = Expected<bool, std::string>;
  if (!store_) return Result::failure("shard: arm_verification needs a store");
  if (detector_snapshot()) {
    return Result::failure("shard: verification already armed");
  }
  epoched_.install({wifi::RssiDetector::assemble(store_->points(), config,
                                                 std::move(classifier),
                                                 trained_points, index_bounds)},
                   store_->observed_epoch());
  return Result(true);
}

Expected<std::uint64_t, std::string> ShardService::refresh_from_store(
    std::uint64_t epoch) {
  using Result = Expected<std::uint64_t, std::string>;
  if (!store_) return Result::failure("shard: refresh_from_store needs a store");
  auto next = epoched_.build_next(store_->points());
  if (!next) return Result::failure("shard: " + next.error());
  if (epoch == 0) epoch = store_->observed_epoch();
  epoched_.install(std::move(next).value(), epoch);
  return Result(epoch);
}

void ShardService::evaluate_segment(const wifi::ScannedUpload& upload,
                                    std::size_t begin, std::size_t end,
                                    double* features, double* scores) const {
  // One RCU snapshot per segment: a concurrent refresh cannot destroy the
  // index this segment is walking — the segment finishes on its epoch.
  const std::shared_ptr<const wifi::RssiDetector> detector = detector_snapshot();
  if (!detector) throw std::logic_error("shard: no detector attached");
  if (begin > end || end > upload.positions.size() ||
      upload.positions.size() != upload.scans.size()) {
    throw std::invalid_argument("shard: bad segment bounds");
  }
  wifi::ScannedUpload segment;
  segment.source_traj_id = upload.source_traj_id;
  segment.positions.assign(upload.positions.begin() + static_cast<long>(begin),
                           upload.positions.begin() + static_cast<long>(end));
  segment.scans.assign(upload.scans.begin() + static_cast<long>(begin),
                       upload.scans.begin() + static_cast<long>(end));

  std::vector<double> seg_features;
  std::vector<double> seg_scores;
  detector->segment_features(segment, seg_features, seg_scores);
  std::copy(seg_features.begin(), seg_features.end(), features);
  std::copy(seg_scores.begin(), seg_scores.end(), scores);
  segments_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace trajkit::serve
