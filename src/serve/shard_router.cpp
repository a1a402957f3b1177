#include "serve/shard_router.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "wifi/validate.hpp"

namespace trajkit::serve {
namespace {

/// SplitMix64 finalizer: the ring's stationary 64-bit mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// ConsistentHashRing

ConsistentHashRing::ConsistentHashRing(std::size_t shards, std::size_t vnodes,
                                       std::uint64_t seed)
    : shards_(shards), seed_(seed) {
  if (shards == 0) {
    throw std::invalid_argument("ConsistentHashRing: need at least one shard");
  }
  if (vnodes == 0) {
    throw std::invalid_argument("ConsistentHashRing: need at least one vnode");
  }
  ring_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      // Position depends only on (seed, s, v): adding shard N+1 later leaves
      // every existing vnode in place — the stability property.
      const std::uint64_t position =
          mix64(mix64(seed ^ (0x5ca1ab1eull + s)) ^ v);
      ring_.emplace_back(position, static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t ConsistentHashRing::owner_of(const TileId& tile) const {
  const std::uint64_t h = mix64(seed_ ^ mix64(tile.key()));
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, std::uint32_t{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

// ---------------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(const wifi::RssiDetector& oracle, ShardRouterConfig config)
    : config_(config),
      ring_(config.shards, config.vnodes, config.ring_seed),
      top_k_(oracle.config().confidence.top_k) {
  if (!(config_.tile_m > 0.0)) {
    throw std::invalid_argument("ShardRouter: tile size must be positive");
  }
  const auto& params = oracle.config().confidence;
  halo_m_ = params.reference_radius_m + params.rpd.counting_radius_m;

  // Slice the global reference set.  A point belongs to shard s when s owns
  // any tile whose covering square around the point reaches — i.e. every
  // tile within the halo of the point — so every radius query a shard can
  // issue for a point it owns (refs within r, then RPD neighbours within R)
  // is answered entirely from its own slice.  Ascending index iteration
  // keeps each slice a stable-order subsequence of the global set, which the
  // bitwise-equivalence contract requires (see the header).
  const auto& index = oracle.index();
  std::vector<std::vector<wifi::ReferencePoint>> slices(config_.shards);
  std::vector<std::size_t> owners;
  for (std::size_t i = 0; i < index.size(); ++i) {
    const auto point = index.point(i);
    const TileId lo = tile_of(
        {point.pos.east - halo_m_, point.pos.north - halo_m_}, config_.tile_m);
    const TileId hi = tile_of(
        {point.pos.east + halo_m_, point.pos.north + halo_m_}, config_.tile_m);
    owners.clear();
    for (std::int64_t ty = lo.ty; ty <= hi.ty; ++ty) {
      for (std::int64_t tx = lo.tx; tx <= hi.tx; ++tx) {
        const std::size_t owner = ring_.owner_of({tx, ty});
        if (std::find(owners.begin(), owners.end(), owner) == owners.end()) {
          owners.push_back(owner);
        }
      }
    }
    for (const std::size_t owner : owners) slices[owner].push_back(point);
  }

  shards_.reserve(config_.shards);
  remote_.resize(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<ShardService>(
        s, std::move(slices[s]), oracle.config(), oracle.classifier(),
        oracle.trained_points(), index.bounds()));
  }
}

std::vector<TrajectorySegment> ShardRouter::split(
    const wifi::ScannedUpload& upload) const {
  std::vector<TrajectorySegment> segments;
  for (std::size_t i = 0; i < upload.positions.size(); ++i) {
    const std::size_t owner =
        ring_.owner_of(tile_of(upload.positions[i], config_.tile_m));
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
    if (!segments.empty()) {
      crossings_.fetch_add(segments.size() - 1, std::memory_order_relaxed);
    }

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
  out.boundary_crossings = crossings_.load();
  out.errors = errors_.load();
  out.degraded_shard_verdicts = degraded_.load();
  out.remote_segments = remote_segments_.load();
  out.per_shard_segments.reserve(shards_.size());
  for (const auto& shard : shards_) {
    out.per_shard_segments.push_back(shard->segments_evaluated());
  }
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
