// Geo-sharded trajectory verification: consistent hashing over map tiles,
// segment fan-out, bitwise-oracle merge.
//
// The single-process serving layer (serve/service) tops out at one machine's
// reference index; the ROADMAP north-star is city scale.  This router
// partitions the crowdsourced reference world by map tile (geo/TileId):
// every tile hashes onto a vnode ring (ConsistentHashRing), each shard owns
// the reference points of its tiles *plus a halo*, and an incoming
// trajectory is split at shard boundaries into contiguous segments that fan
// out to the owning ShardServices on the calling thread (concurrency comes
// from caller threads and the deterministic pool underneath), or over the
// wire to a remote shard (set_remote_evaluator).  Uploads are validated
// (wifi::validate_upload) before any tile arithmetic sees a coordinate.
//
// The equivalence contract — the whole point of the design — is that the
// merged verdict is *bitwise identical* to the unsharded oracle's:
//
//   * Eq. 7 confidences accumulate over the reference points that
//     ReferenceIndex::within() returns, in grid order (cells row-major over
//     the index bounds, insertion order within a cell).  Each shard indexes
//     its slice under the oracle's global grid geometry (index().bounds())
//     and slices preserve global point order, so a slice query visits the
//     same references in the same order — same floats, bit for bit.
//   * A slice query must also *find* the same references.  A segment point
//     needs every reference within r (reference_radius_m), and each such
//     reference's RPD statistics count neighbours within R
//     (counting_radius_m); so a shard's slice includes every point within
//     r + R (the halo) of any tile it owns.  Over-inclusion is harmless —
//     queries are distance-filtered — so the halo uses the covering square.
//   * Per-point features land in disjoint slots of one merged Eq. 8 vector
//     (2 * top_k doubles per point, point order), and the classifier tail
//     (RssiDetector::classify_features) runs once on the merged vector —
//     the identical input the oracle's analyze() builds.
//
// tests/shard_test.cpp holds the property suite: random and adversarially
// boundary-pinned trajectories across shard counts {1, 2, 4, 8} and thread
// counts {1, 4}, canonical verdict payloads compared byte-for-byte against
// the single-shard oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/counters.hpp"
#include "geo/geo.hpp"
#include "serve/service.hpp"
#include "serve/shard_service.hpp"

namespace trajkit::serve {

/// How the router evaluates one segment on a shard that is not (only) local:
/// serve/net_shard's RemoteSegmentClient implements this over a transport
/// with deadlines, bounded retry and hedged fan-out.  evaluate() must either
/// fill the slots bitwise-identically to the local path or throw — the
/// router then falls back to its resident slice and counts the verdict
/// degraded (degraded by *transport*, not by content: the fallback is the
/// same bitwise-correct evaluation, just served locally).
class SegmentEvaluator {
 public:
  struct Stats {
    std::uint64_t rpcs = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t hedges = 0;
  };

  virtual ~SegmentEvaluator() = default;
  virtual void evaluate(const wifi::ScannedUpload& upload, std::size_t begin,
                        std::size_t end, double* features, double* scores) = 0;
  virtual Stats stats() const { return {}; }
};

/// Consistent hashing of tiles onto shards: each shard contributes `vnodes`
/// points to a ring keyed by a 64-bit mix, and a tile belongs to the first
/// ring point at or after its own hash.  Vnode positions depend only on
/// (seed, shard, vnode) — growing the fleet from N to N+1 shards adds the
/// new shard's points without moving any existing ones, so only the tiles
/// captured by the new points change owner (~1/(N+1) of the world), which
/// tests/shard_test.cpp asserts.
class ConsistentHashRing {
 public:
  ConsistentHashRing(std::size_t shards, std::size_t vnodes = 64,
                     std::uint64_t seed = 0x7a11d5u);

  std::size_t shards() const { return shards_; }
  std::size_t owner_of(const TileId& tile) const;

 private:
  std::size_t shards_;
  std::uint64_t seed_;
  /// (ring position, shard), sorted; ties broken by shard id.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

struct ShardRouterConfig {
  std::size_t shards = 4;
  /// Geo-cell edge in metres — the granularity ownership moves at.  City
  /// deployments want tiles big enough that a pedestrian stays put for a few
  /// points and small enough to spread hot areas over shards.
  double tile_m = 8.0;
  std::size_t vnodes = 64;
  std::uint64_t ring_seed = 0x7a11d5u;
  ShardedRpdLruCache::Config cache;  ///< inert seam kept for servebench
};

/// One contiguous run of trajectory points owned by a single shard.
struct TrajectorySegment {
  std::size_t begin = 0;  ///< first point index
  std::size_t end = 0;    ///< one past the last point index
  std::size_t shard = 0;
};

struct ShardRouterCounters {
  std::uint64_t requests = 0;
  std::uint64_t segments = 0;
  std::uint64_t boundary_crossings = 0;  ///< segments - requests, summed
  std::uint64_t errors = 0;
  /// Verdicts that completed only because a remote segment evaluation failed
  /// (after retries/hedging) and the router fell back to its resident slice.
  /// The verdict itself is still bitwise-correct — this counts transport
  /// degradation, the chaos-run observability satellite.
  std::uint64_t degraded_shard_verdicts = 0;
  std::uint64_t remote_segments = 0;  ///< segments answered by a remote shard
  std::vector<std::uint64_t> per_shard_segments;
  /// Per-shard transport counters (rpcs/retries/timeouts/hedges) from the
  /// attached SegmentEvaluators; zeros for shards without one.
  std::vector<SegmentEvaluator::Stats> per_shard_net;
  /// verify() end-to-end latency (sampled on every request).
  std::uint64_t latency_count = 0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
};

class ShardRouter {
 public:
  /// Partition the oracle's reference world into shard slices (global grid
  /// geometry, halo included) and copy its classifier/config into every
  /// shard.  The oracle itself is not retained, and no thread is spawned —
  /// fork-based harnesses stay safe.
  explicit ShardRouter(const wifi::RssiDetector& oracle,
                       ShardRouterConfig config = {});
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Split an upload at shard-ownership boundaries: contiguous, non-empty
  /// segments covering [0, n) in point order (empty for an empty upload).
  std::vector<TrajectorySegment> split(const wifi::ScannedUpload& upload) const;

  /// Verify one upload through the sharded plane.  Payloads match the
  /// single-shard oracle bit for bit on the kOk path; a malformed upload
  /// (wifi::validate_upload) and evaluation failures come back kError (the
  /// router has no degraded mode — chaos machinery lives in VerifierService).
  /// Safe to call from concurrent threads.
  VerdictResponse verify(const wifi::ScannedUpload& upload,
                         std::uint64_t request_id = 0);

  /// Route shard `i`'s segments through a remote evaluator (net_shard's
  /// RemoteSegmentClient).  The resident slice stays as the bitwise fallback:
  /// a remote failure degrades to local evaluation instead of failing the
  /// verdict.  Not thread-safe against in-flight verify() calls — wire the
  /// topology up before serving.
  void set_remote_evaluator(std::size_t shard,
                            std::shared_ptr<SegmentEvaluator> evaluator);

  std::size_t shards() const { return shards_.size(); }
  const ShardService& shard(std::size_t i) const { return *shards_[i]; }
  const ConsistentHashRing& ring() const { return ring_; }
  const ShardRouterConfig& config() const { return config_; }
  /// Halo width the slices were built with (r + R in metres).
  double halo_m() const { return halo_m_; }

  ShardRouterCounters counters() const;

 private:
  ShardRouterConfig config_;
  ConsistentHashRing ring_;
  double halo_m_ = 0.0;
  std::size_t top_k_ = 0;
  std::vector<std::unique_ptr<ShardService>> shards_;
  std::vector<std::shared_ptr<SegmentEvaluator>> remote_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> segments_{0};
  std::atomic<std::uint64_t> crossings_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> degraded_{0};
  std::atomic<std::uint64_t> remote_segments_{0};
  LatencyHistogram latency_;
};

}  // namespace trajkit::serve
