#include "serve/shard_router.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "wifi/validate.hpp"

namespace trajkit::serve {
namespace {

/// Grid tiles per axis are capped so that cols * rows fits in 64 bits; only
/// sub-centimetre tiles over an Earth-wide index reach the cap, and the tiles
/// past it fold into the last column or row.  Ownership decides balance,
/// never correctness (the halo makes any owner bitwise-safe).
constexpr std::uint64_t kMaxGridAxis = 0xffffffffull;

/// Tiles from `lo` to `hi` inclusive along one axis, capped.  The unsigned
/// difference is exact for any lo <= hi, even across the whole int64 range.
std::uint64_t grid_extent(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return 1;
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  return std::min(span, kMaxGridAxis - 1) + 1;
}

/// Offset of `t` from `origin` clamped into [0, extent).  Comparing before
/// subtracting keeps a far-away tile's offset from overflowing.
std::uint64_t clamp_offset(std::int64_t t, std::int64_t origin,
                           std::uint64_t extent) {
  if (t <= origin) return 0;
  return std::min(static_cast<std::uint64_t>(t) -
                      static_cast<std::uint64_t>(origin),
                  extent - 1);
}

}  // namespace

ShardRouter::ShardRouter(const wifi::RssiDetector& oracle, ShardRouterConfig config)
    : config_(config), top_k_(oracle.config().confidence.top_k) {
  if (config_.shards == 0) {
    throw std::invalid_argument("ShardRouter: need at least one shard");
  }
  if (!(config_.tile_m > 0.0)) {
    throw std::invalid_argument("ShardRouter: tile size must be positive");
  }
  const auto& index = oracle.index();
  const BoundingBox& bounds = index.bounds();
  grid_origin_ = tile_of({bounds.min_east, bounds.min_north}, config_.tile_m);
  const TileId far = tile_of({bounds.max_east, bounds.max_north}, config_.tile_m);
  grid_cols_ = grid_extent(grid_origin_.tx, far.tx);
  grid_rows_ = grid_extent(grid_origin_.ty, far.ty);
  const auto& params = oracle.config().confidence;
  halo_m_ = params.reference_radius_m + params.rpd.counting_radius_m;

  // Slice the global reference set.  A point belongs to shard s when s owns
  // any tile whose covering square around the point reaches — i.e. every
  // tile within the halo of the point — so every radius query a shard can
  // issue for a point it owns (refs within r, then RPD neighbours within R)
  // is answered entirely from its own slice.  Ascending index iteration
  // keeps each slice a stable-order subsequence of the global set, which the
  // bitwise-equivalence contract requires (see the header).
  std::vector<wifi::PointArrays> slices(config_.shards);
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const Enu& pos = index.pos(i);
    const TileId lo = tile_of({pos.east - halo_m_, pos.north - halo_m_}, config_.tile_m);
    const TileId hi = tile_of({pos.east + halo_m_, pos.north + halo_m_}, config_.tile_m);
    owners.clear();
    for (std::int64_t ty = lo.ty; ty <= hi.ty; ++ty) {
      for (std::int64_t tx = lo.tx; tx <= hi.tx; ++tx) {
        const std::size_t owner = owner_of({tx, ty});
        if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
          owners.push_back(owner);
        }
      }
    }
    const wifi::ReferencePoint point = index.point(i);
    for (const std::size_t owner : owners) slices[owner].append(point);
  }

  shards_.reserve(config_.shards);
  remote_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<ShardService>(
        s, std::move(slices[s]), oracle.config(), oracle.classifier(),
        oracle.trained_points(), index.bounds()));
  }
}

std::size_t ShardRouter::owner_of(const TileId& tile) const {
  const std::uint64_t col = clamp_offset(tile.tx, grid_origin_.tx, grid_cols_);
  const std::uint64_t row = clamp_offset(tile.ty, grid_origin_.ty, grid_rows_);
  // key < cols * rows < 2^64, so key * shards fits in 128 bits.
  const unsigned __int128 key = row * grid_cols_ + col;
  return static_cast<std::size_t>(key * config_.shards /
                                  (grid_cols_ * grid_rows_));
}

std::vector<TrajectorySegment> ShardRouter::split(
    const wifi::ScannedUpload& upload) const {
  std::vector<TrajectorySegment> segments;
  for (std::size_t i = 0; i < upload.positions.size(); ++i) {
    const std::size_t owner =
        owner_of(tile_of(upload.positions[i], config_.tile_m));
    if (segments.empty() || segments.back().shard != owner) {
      segments.push_back({i, i + 1, owner});
    } else {
      segments.back().end = i + 1;
    }
  }
  return segments;
}

void ShardRouter::set_remote_evaluator(
    std::size_t shard, std::shared_ptr<SegmentEvaluator> evaluator) {
  remote_.at(shard) = std::move(evaluator);
}

VerdictResponse ShardRouter::verify(const wifi::ScannedUpload& upload,
                                    std::uint64_t request_id) {
  VerdictResponse response;
  response.request_id = request_id;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t start_us = steady_clock().now_us();
  try {
    // Uploads cross the trust boundary here: a NaN/Inf or out-of-envelope
    // coordinate must never reach tile_of's float-to-integer conversion.
    if (auto valid = wifi::validate_upload(upload); !valid) {
      throw std::invalid_argument(valid.error());
    }
    const auto segments = split(upload);
    segments_.fetch_add(segments.size(), std::memory_order_relaxed);

    const std::size_t n = upload.positions.size();
    std::vector<double> features(2 * top_k_ * n, 0.0);
    std::vector<double> scores(n, 0.0);
    // Segments owned by a shard with a remote evaluator go over the wire; a
    // remote failure (post retry/hedge) degrades to the resident slice — same
    // bits, so the verdict stays oracle-equal, and the degradation is counted.
    // Slots are disjoint per segment.
    bool degraded = false;
    for (const auto& seg : segments) {
      double* seg_features = features.data() + 2 * top_k_ * seg.begin;
      double* seg_scores = scores.data() + seg.begin;
      if (remote_[seg.shard]) {
        remote_segments_.fetch_add(1, std::memory_order_relaxed);
        try {
          remote_[seg.shard]->evaluate(upload, seg.begin, seg.end, seg_features,
                                       seg_scores);
          continue;
        } catch (const std::exception&) {
          degraded = true;  // resident slice answers instead
        }
      }
      shards_[seg.shard]->evaluate_segment(upload, seg.begin, seg.end,
                                           seg_features, seg_scores);
    }
    if (degraded) degraded_.fetch_add(1, std::memory_order_relaxed);

    // The classifier tail runs once over the merged vector — every shard
    // carries an identical classifier copy, so shard 0 speaks for all.  The
    // snapshot keeps shard 0's epoch alive through the classify call even if
    // it flips to a new epoch mid-request.
    const auto head = shards_[0]->detector_snapshot();
    response.report =
        head->classify_features(std::move(features), std::move(scores));
    response.outcome = Outcome::kOk;
  } catch (const std::exception& e) {
    response.outcome = Outcome::kError;
    response.error = e.what();
    errors_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.add_us(steady_clock().now_us() - start_us);
  return response;
}

ShardRouterCounters ShardRouter::counters() const {
  ShardRouterCounters out;
  out.requests = requests_.load();
  out.segments = segments_.load();
  out.errors = errors_.load();
  out.degraded_shard_verdicts = degraded_.load();
  out.remote_segments = remote_segments_.load();
  out.per_shard_net.reserve(remote_.size());
  for (const auto& evaluator : remote_) {
    out.per_shard_net.push_back(evaluator ? evaluator->stats()
                                          : NetClientStats{});
  }
  out.latency_count = latency_.count();
  out.latency_p50_us = latency_.p50_us();
  out.latency_p99_us = latency_.p99_us();
  return out;
}

}  // namespace trajkit::serve
