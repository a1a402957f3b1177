// Geo-sharded verification: shard-vs-oracle bitwise equivalence, router
// split/merge properties, contiguous tile-range ownership, replication and
// leader-kill failover.
//
// The contract under test (serve/shard_router.hpp): a trajectory split at
// shard boundaries, fanned out to per-shard slice detectors and merged again
// produces the *bit-identical* verdict payload of the unsharded oracle, for
// any shard count, any thread count, and any boundary-crossing pattern — and
// the replication layer never loses an acknowledged upload, even when the
// leader is killed at every journal-shipping fault point.
//
// Fork discipline (tests/support/crash.hpp): failover children are I/O-only
// — worlds and models are built in the parent, children open stores and
// ingest, and no child creates a thread (neither ShardService nor ShardRouter
// ever spawns one).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/durable/crc32.hpp"
#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "serve/service.hpp"
#include "serve/shard_router.hpp"
#include "serve/shard_service.hpp"
#include "support/crash.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/validate.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

Enu random_area_pos(Rng& rng, const ts::LinearWorldConfig& cfg) {
  const double lo = cfg.margin_m;
  const double hi = cfg.area_m - cfg.margin_m;
  return {rng.uniform(lo, hi), rng.uniform(lo, hi)};
}

/// A genuine upload over caller-chosen positions (scan = the analytic field
/// heard where the point claims to be).
wifi::ScannedUpload upload_at(const std::vector<Enu>& positions) {
  wifi::ScannedUpload u;
  for (const Enu& p : positions) {
    u.positions.push_back(p);
    u.scans.push_back({{1, ts::LinearFieldWorld::field_rssi(p)}});
  }
  return u;
}

/// Build an upload that crosses shard-ownership boundaries exactly
/// `crossings` times under `router`: the first `crossings` steps move to a
/// position owned by a different shard, the rest stay inside the previous
/// point's tile.  Rejection-sampled but fully deterministic for a fixed rng.
wifi::ScannedUpload crossing_upload(const serve::ShardRouter& router,
                                    const ts::LinearWorldConfig& cfg,
                                    std::size_t crossings, Rng& rng) {
  const double tile = router.config().tile_m;
  std::vector<Enu> positions;
  positions.push_back(random_area_pos(rng, cfg));
  auto owner = [&](const Enu& p) {
    return router.owner_of(tile_of(p, tile));
  };
  while (positions.size() < cfg.upload_points) {
    const Enu prev = positions.back();
    if (positions.size() <= crossings) {
      // Need an ownership change: sample until the owner differs.
      const std::size_t before = positions.size();
      for (int tries = 0; tries < 500; ++tries) {
        const Enu p = random_area_pos(rng, cfg);
        if (owner(p) != owner(prev)) {
          positions.push_back(p);
          break;
        }
      }
      if (positions.size() == before) {
        ADD_FAILURE() << "no ownership boundary reachable from ("
                      << prev.east << ", " << prev.north << ")";
        positions.push_back(random_area_pos(rng, cfg));  // terminate the loop
      }
    } else {
      // Stay put: jitter within the previous point's own tile.
      const TileId t = tile_of(prev, tile);
      const double lo_e = std::max(cfg.margin_m, double(t.tx) * tile);
      const double hi_e = std::min(cfg.area_m - cfg.margin_m,
                                   double(t.tx + 1) * tile - 1e-6);
      const double lo_n = std::max(cfg.margin_m, double(t.ty) * tile);
      const double hi_n = std::min(cfg.area_m - cfg.margin_m,
                                   double(t.ty + 1) * tile - 1e-6);
      positions.push_back({rng.uniform(lo_e, hi_e), rng.uniform(lo_n, hi_n)});
    }
  }
  return upload_at(positions);
}

// ---------------------------------------------------------------------------
// Shard-vs-oracle bitwise equivalence

TEST(ShardEquivalence, BitwiseEqualAcrossShardAndThreadCounts) {
  // 10-point uploads so crafted trajectories can cross up to 8 boundaries
  // (9 segments); train pairs stay at the fixture default.
  ts::LinearWorldConfig cfg;
  cfg.upload_points = 10;
  ts::LinearFieldWorld w(cfg);

  // The oracle payloads: analyze() is thread-count invariant (PR 1), so one
  // capture serves every (shards, threads) combination.
  std::vector<wifi::ScannedUpload> uploads;
  Rng rng(2026);
  for (int i = 0; i < 20; ++i) uploads.push_back(w.upload(i % 2 == 0, rng));
  std::vector<std::string> oracle;
  for (const auto& u : uploads) {
    oracle.push_back(w.detector().analyze(u).canonical_string());
  }

  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    for (const std::size_t threads : {1u, 4u}) {
      set_global_threads(threads);
      serve::ShardRouterConfig rc;
      rc.shards = shards;
      rc.tile_m = 8.0;
      serve::ShardRouter router(w.detector(), rc);

      for (std::size_t i = 0; i < uploads.size(); ++i) {
        const auto response = router.verify(uploads[i], i);
        ASSERT_EQ(response.outcome, serve::Outcome::kOk)
            << "shards=" << shards << " threads=" << threads << ": "
            << response.error;
        EXPECT_EQ(response.report.canonical_string(), oracle[i])
            << "shards=" << shards << " threads=" << threads << " upload=" << i;
      }

      // Adversarial boundary coverage: trajectories crossing exactly
      // 1..8 shard boundaries (shard count permitting) stay bit-equal too.
      if (shards > 1) {
        Rng crossing_rng(31 * shards + threads);
        for (std::size_t crossings = 1; crossings <= 8; ++crossings) {
          const auto u = crossing_upload(router, cfg, crossings, crossing_rng);
          ASSERT_EQ(u.positions.size(), cfg.upload_points);
          ASSERT_EQ(router.split(u).size(), crossings + 1)
              << "shards=" << shards << " crossings=" << crossings;
          const auto response = router.verify(u);
          ASSERT_EQ(response.outcome, serve::Outcome::kOk) << response.error;
          EXPECT_EQ(response.report.canonical_string(),
                    w.detector().analyze(u).canonical_string())
              << "shards=" << shards << " threads=" << threads
              << " crossings=" << crossings;
        }
      }
    }
  }
  set_global_threads(1);
}

TEST(ShardEquivalence, MatchesSingleVerifierServiceOracle) {
  ts::LinearFieldWorld w;
  // Capture through the single-shard serving path: the full VerdictResponse
  // canonical payload (id + outcome + report) must match the router's.
  std::vector<wifi::ScannedUpload> probes = w.probe_mix(6);

  serve::VerifierServiceConfig sc;
  sc.auto_start = false;
  serve::VerifierService service(w.detector(), sc);

  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(w.detector(), rc);

  for (const auto& probe : probes) {
    const auto want = service.verify_now(probe);
    ASSERT_EQ(want.outcome, serve::Outcome::kOk);
    const auto got = router.verify(probe, want.request_id);
    EXPECT_EQ(got.canonical_string(), want.canonical_string());
  }
}

TEST(ShardEquivalence, ShardSlicesCoverHaloAndPreserveGlobalOrder) {
  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(w.detector(), rc);
  EXPECT_DOUBLE_EQ(router.halo_m(),
                   w.detector().config().confidence.reference_radius_m +
                       w.detector().config().confidence.rpd.counting_radius_m);

  const auto& index = w.detector().index();
  for (std::size_t s = 0; s < router.shards(); ++s) {
    const auto& slice = router.shard(s).detector().index();
    // Slice grid geometry is the oracle's.
    EXPECT_EQ(slice.bounds().min_east, index.bounds().min_east);
    EXPECT_EQ(slice.bounds().max_north, index.bounds().max_north);
    // Slices are stable-order subsequences of the global set.
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < slice.size(); ++i) {
      while (cursor < index.size() &&
             !(index.pos(cursor) == slice.pos(i) &&
               index.point(cursor).scan == slice.point(i).scan)) {
        ++cursor;
      }
      ASSERT_LT(cursor, index.size())
          << "shard " << s << " slice entry " << i
          << " is not in global order";
      ++cursor;
    }
    // Every point a shard owns carries its full halo: all global points
    // within halo_m of an owned point's position are in the slice.
    for (std::size_t i = 0; i < slice.size(); ++i) {
      const std::size_t owner =
          router.owner_of(tile_of(slice.pos(i), router.config().tile_m));
      if (owner != s) continue;  // halo entry, not owned
      const auto wanted = index.within(slice.pos(i), router.halo_m());
      const auto have = slice.within(slice.pos(i), router.halo_m());
      EXPECT_EQ(have.size(), wanted.size())
          << "shard " << s << " misses halo neighbours of owned point " << i;
    }
  }
}

TEST(ShardEquivalence, SliceImagesEqualVectorSlicesAndArePinned) {
  // The router appends each point straight into its owners' arrays.  Every
  // slice detector's image must equal an assembly over the same slice cut
  // as a vector of points (the owner rule restated: a point goes to every
  // shard owning a tile within the halo of it), and the golden pins those
  // bytes to the ones the vector-sliced router built.
  ts::LinearFieldWorld w;
  const auto& oracle = w.detector();
  const auto& index = oracle.index();
  std::string pinned;
  for (const std::size_t shards : {2u, 4u}) {
    serve::ShardRouterConfig rc;
    rc.shards = shards;
    serve::ShardRouter router(oracle, rc);
    const double tile = router.config().tile_m;
    const double halo = router.halo_m();
    std::vector<std::vector<wifi::ReferencePoint>> slices(shards);
    for (std::size_t i = 0; i < index.size(); ++i) {
      const Enu& p = index.pos(i);
      const TileId lo = tile_of({p.east - halo, p.north - halo}, tile);
      const TileId hi = tile_of({p.east + halo, p.north + halo}, tile);
      std::vector<bool> owns(shards, false);
      for (std::int64_t ty = lo.ty; ty <= hi.ty; ++ty) {
        for (std::int64_t tx = lo.tx; tx <= hi.tx; ++tx) owns[router.owner_of({tx, ty})] = true;
      }
      for (std::size_t s = 0; s < shards; ++s) {
        if (owns[s]) slices[s].push_back(index.point(i));
      }
    }
    for (std::size_t s = 0; s < shards; ++s) {
      const std::string image = router.shard(s).detector().image();
      const auto sliced =
          wifi::RssiDetector::assemble(slices[s], oracle.config(), oracle.classifier(),
                                       oracle.trained_points(), index.bounds());
      EXPECT_EQ(image, sliced->image()) << shards << " shards, shard " << s;
      char line[64];
      std::snprintf(line, sizeof line, "shards=%zu shard=%zu points=%zu crc32=%08x\n",
                    shards, s, slices[s].size(), durable::crc32(image));
      pinned += line;
    }
  }
  EXPECT_TRUE(ts::matches_golden("shard_slice_images.txt", pinned));
}

// ---------------------------------------------------------------------------
// Router split/merge unit tests

TEST(ShardRouterSplit, TrajectoryInsideOneTileIsOneSegment) {
  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 8;
  serve::ShardRouter router(w.detector(), rc);

  // All points inside tile (0, 0) — ownership cannot change.
  const auto u = upload_at({{3.0, 3.0}, {4.5, 5.0}, {7.9, 7.9}, {2.1, 6.0}});
  const auto segments = router.split(u);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].begin, 0u);
  EXPECT_EQ(segments[0].end, u.positions.size());
  EXPECT_EQ(segments[0].shard, router.owner_of(tile_of({3.0, 3.0}, 8.0)));
}

TEST(ShardRouterSplit, BoundaryPinnedPointBelongsToItsFloorTile) {
  // A point exactly on a tile edge floors into the east/north tile, so the
  // split is deterministic, not round-off luck.
  EXPECT_EQ(tile_of({8.0, 0.0}, 8.0), (TileId{1, 0}));
  EXPECT_EQ(tile_of({7.999999, 0.0}, 8.0), (TileId{0, 0}));
  EXPECT_EQ(tile_of({0.0, 16.0}, 8.0), (TileId{0, 2}));
  EXPECT_EQ(tile_of({-0.5, 8.0}, 8.0), (TileId{-1, 1}));

  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(w.detector(), rc);
  // Pin the points on the first tile edge inside the world whose west and
  // east tiles have different owners, so the split must cut there.
  TileId west{0, 0};
  while (router.owner_of(west) == router.owner_of({west.tx + 1, west.ty}) &&
         west.ty < 3) {
    if (++west.tx == 3) west = {0, west.ty + 1};
  }
  const TileId east{west.tx + 1, west.ty};
  ASSERT_NE(router.owner_of(west), router.owner_of(east));
  const double edge = 8.0 * double(east.tx);
  const double north = 8.0 * double(west.ty) + 5.0;
  const auto u = upload_at({{edge - 0.1, north}, {edge, north}, {edge + 0.1, north}});
  const auto segments = router.split(u);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].end, 1u) << "the pinned point belongs east";
  EXPECT_EQ(segments[0].shard, router.owner_of(west));
  EXPECT_EQ(segments[1].begin, 1u);
  EXPECT_EQ(segments[1].shard, router.owner_of(east));
}

TEST(ShardRouterSplit, AlternatingOwnersYieldSinglePointSegments) {
  ts::LinearWorldConfig cfg;
  cfg.upload_points = 10;
  ts::LinearFieldWorld w(cfg);
  serve::ShardRouterConfig rc;
  rc.shards = 8;
  serve::ShardRouter router(w.detector(), rc);

  // Every step changes owner => every segment is a single point.
  Rng rng(7);
  const auto u = crossing_upload(router, cfg, cfg.upload_points - 1, rng);
  const auto segments = router.split(u);
  ASSERT_EQ(segments.size(), u.positions.size());
  for (const auto& seg : segments) EXPECT_EQ(seg.end - seg.begin, 1u);
}

TEST(ShardRouterSplit, SplitNeverProducesEmptyOrOverlappingSegments) {
  ts::LinearWorldConfig cfg;
  ts::LinearFieldWorld w(cfg);
  serve::ShardRouterConfig rc;
  rc.shards = 8;
  rc.tile_m = 4.0;  // small tiles: many crossings
  serve::ShardRouter router(w.detector(), rc);

  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const auto walk = ts::random_walk_enu(rng, 12, 9.0, {15.0, 15.0});
    const auto u = upload_at(walk);
    const auto segments = router.split(u);
    std::size_t expect_begin = 0;
    for (std::size_t i = 0; i < segments.size(); ++i) {
      EXPECT_EQ(segments[i].begin, expect_begin) << "gap or overlap";
      EXPECT_LT(segments[i].begin, segments[i].end) << "empty segment";
      EXPECT_LT(segments[i].shard, router.shards());
      if (i > 0) {
        EXPECT_NE(segments[i].shard, segments[i - 1].shard)
            << "adjacent segments with one owner must have been merged";
      }
      expect_begin = segments[i].end;
    }
    EXPECT_EQ(expect_begin, u.positions.size()) << "segments must cover [0, n)";
  }

  wifi::ScannedUpload empty;
  EXPECT_TRUE(router.split(empty).empty());
}

TEST(ShardRouterValidation, MalformedUploadsAnswerErrorBeforeSplit) {
  // A NaN, Inf or out-of-envelope coordinate must be refused before split()
  // hands it to tile_of's float-to-integer conversion (undefined behaviour
  // the UBSan leg would flag), and a positions/scans length mismatch before
  // any segment indexes past the scans.
  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(w.detector(), rc);
  const auto good = w.upload(true);
  ASSERT_EQ(router.verify(good, 1).outcome, serve::Outcome::kOk);

  std::vector<wifi::ScannedUpload> bad;
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(), 1e300}) {
    auto u = good;
    u.positions[1].east = v;
    bad.push_back(u);
    u = good;
    u.positions.back().north = v;
    bad.push_back(u);
  }
  auto mismatch = good;
  mismatch.scans.pop_back();
  bad.push_back(mismatch);

  for (std::size_t i = 0; i < bad.size(); ++i) {
    const auto response = router.verify(bad[i], 100 + i);
    EXPECT_EQ(response.outcome, serve::Outcome::kError) << "case " << i;
    EXPECT_EQ(response.error.rfind("upload: ", 0), 0u)
        << "case " << i << ": " << response.error;
  }
  const auto counters = router.counters();
  EXPECT_EQ(counters.errors, bad.size());
  EXPECT_EQ(counters.segments, router.split(good).size())
      << "a refused upload must not reach the shards";
  // The router keeps serving well-formed uploads afterwards.
  EXPECT_EQ(router.verify(good, 2).outcome, serve::Outcome::kOk);
}

// ---------------------------------------------------------------------------
// Contiguous tile-range ownership

/// The tile grid a router over `w` fixes: the tiles covering the oracle's
/// index bounds, south-west and north-east corners.
std::pair<TileId, TileId> ownership_grid(ts::LinearFieldWorld& w, double tile_m) {
  const BoundingBox& b = w.detector().index().bounds();
  return {tile_of({b.min_east, b.min_north}, tile_m),
          tile_of({b.max_east, b.max_north}, tile_m)};
}

TEST(ShardOwnership, EveryTileInsideOnTheEdgeAndFarOutsideHasAnOwner) {
  ts::LinearFieldWorld w;
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::size_t shards : {1u, 3u, 4u, 8u}) {
    serve::ShardRouterConfig rc;
    rc.shards = shards;
    serve::ShardRouter router(w.detector(), rc);
    const auto [lo, hi] = ownership_grid(w, rc.tile_m);
    for (std::int64_t ty = lo.ty - 3; ty <= hi.ty + 3; ++ty) {
      for (std::int64_t tx = lo.tx - 3; tx <= hi.tx + 3; ++tx) {
        EXPECT_LT(router.owner_of({tx, ty}), shards) << tx << "," << ty;
      }
    }
    // Far-away tiles clamp to the grid's edge tiles, with no overflow.
    for (std::int64_t ty = lo.ty; ty <= hi.ty; ++ty) {
      EXPECT_EQ(router.owner_of({kMin, ty}), router.owner_of({lo.tx, ty}));
      EXPECT_EQ(router.owner_of({kMax, ty}), router.owner_of({hi.tx, ty}));
    }
    for (std::int64_t tx = lo.tx; tx <= hi.tx; ++tx) {
      EXPECT_EQ(router.owner_of({tx, kMin}), router.owner_of({tx, lo.ty}));
      EXPECT_EQ(router.owner_of({tx, kMax}), router.owner_of({tx, hi.ty}));
    }
    EXPECT_EQ(router.owner_of({kMin, kMin}), 0u);
    EXPECT_EQ(router.owner_of({kMax, kMax}), shards - 1);
    EXPECT_LT(router.owner_of({kMin, kMax}), shards);
    EXPECT_LT(router.owner_of({kMax, kMin}), shards);
  }
  // A tiny tile saturates instead of overflowing the tile index.
  EXPECT_EQ(tile_of({wifi::kMaxEnuAbsM, -wifi::kMaxEnuAbsM}, 1e-300),
            (TileId{kMax, kMin}));
}

TEST(ShardOwnership, EachShardOwnsOneContiguousRowMajorBand) {
  ts::LinearFieldWorld w;
  for (const double tile_m : {4.0, 8.0, 16.0, 100.0}) {
    const auto [lo, hi] = ownership_grid(w, tile_m);
    const std::size_t tiles =
        std::size_t(hi.tx - lo.tx + 1) * std::size_t(hi.ty - lo.ty + 1);
    for (const std::size_t shards : {1u, 2u, 3u, 4u, 8u}) {
      serve::ShardRouterConfig rc;
      rc.shards = shards;
      rc.tile_m = tile_m;
      serve::ShardRouter router(w.detector(), rc);
      // Row-major order over the grid: owners never decrease, so each
      // shard's tiles are one contiguous range.
      std::vector<std::size_t> owned(shards, 0);
      std::size_t previous = 0;
      for (std::int64_t ty = lo.ty; ty <= hi.ty; ++ty) {
        for (std::int64_t tx = lo.tx; tx <= hi.tx; ++tx) {
          const std::size_t owner = router.owner_of({tx, ty});
          ASSERT_LT(owner, shards);
          EXPECT_GE(owner, previous)
              << "tile_m=" << tile_m << " shards=" << shards << " tile " << tx
              << "," << ty << " breaks its shard's band";
          previous = owner;
          ++owned[owner];
        }
      }
      if (tiles >= shards) {
        for (std::size_t s = 0; s < shards; ++s) {
          EXPECT_GT(owned[s], 0u) << "tile_m=" << tile_m << " shards=" << shards
                                  << ": shard " << s << " owns no tile";
        }
      }
    }
  }
}

TEST(ShardOwnership, RefusesZeroShardsAndNonPositiveTiles) {
  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 0;
  EXPECT_THROW(serve::ShardRouter(w.detector(), rc), std::invalid_argument);
  for (const double tile_m :
       {0.0, -8.0, std::numeric_limits<double>::quiet_NaN()}) {
    rc.shards = 4;
    rc.tile_m = tile_m;
    EXPECT_THROW(serve::ShardRouter(w.detector(), rc), std::invalid_argument)
        << "tile_m=" << tile_m;
  }
}

TEST(ShardOwnership, SlicesDuplicateAtMostAHaloStripPerBoundary) {
  // A point lands in one extra slice per band boundary its halo square
  // straddles.  Band b starts at grid tile (col c, row r); its boundary is
  // the row edge y_r (east of c), the step at x_c, and the row edge y_{r+1}
  // (west of c).  A square straddles it only if the point lies within the
  // halo of one of those edges, so the summed slice size is at most the
  // index plus, per interior boundary, the points in that 2 * halo strip.
  ts::LinearFieldWorld w;
  serve::ShardRouterConfig rc;
  rc.shards = 4;
  serve::ShardRouter router(w.detector(), rc);
  const auto& index = w.detector().index();
  const double tile = rc.tile_m;
  const double halo = router.halo_m() + 1e-9;
  const auto [lo, hi] = ownership_grid(w, tile);

  // Band b starts at row-major key ceil(b * tiles / shards).
  const std::int64_t cols = hi.tx - lo.tx + 1;
  const std::int64_t tiles = cols * (hi.ty - lo.ty + 1);
  const std::int64_t shards = std::int64_t(rc.shards);
  std::size_t bound = index.size();
  for (std::int64_t b = 1; b < shards; ++b) {
    const std::int64_t key = (b * tiles + shards - 1) / shards;
    const std::int64_t tx = lo.tx + key % cols;
    const std::int64_t ty = lo.ty + key / cols;
    ASSERT_EQ(router.owner_of({tx, ty}), std::size_t(b));
    const double y_r = tile * double(ty);
    const double y_next = y_r + tile;
    const double x_c = tile * double(tx);
    const bool step = tx > lo.tx;
    for (std::size_t i = 0; i < index.size(); ++i) {
      const Enu& p = index.pos(i);
      const bool on_edge =
          std::abs(p.north - y_r) <= halo ||
          (step && std::abs(p.north - y_next) <= halo) ||
          (step && std::abs(p.east - x_c) <= halo && p.north >= y_r - halo &&
           p.north <= y_next + halo);
      bound += on_edge;
    }
  }

  std::size_t held = 0;
  for (std::size_t s = 0; s < router.shards(); ++s) {
    held += router.shard(s).detector().index().size();
  }
  EXPECT_GE(held, index.size());
  EXPECT_LE(held, bound) << "index " << index.size() << " points";
}

// ---------------------------------------------------------------------------
// Replication: leader -> follower shipping, cold start, promotion

wifi::ReferencePoint ingest_point(int i) {
  return {{double(i % 28) + 1.0, double((i * 7) % 28) + 1.0},
          {{1, -45 - (i % 40)}},
          static_cast<std::uint32_t>(i / 10)};
}

TEST(ShardReplication, AckImpliesFollowerDurability) {
  const std::string leader_dir = "shard_test_leader";
  const std::string follower_dir = "shard_test_follower";
  remove_store(leader_dir);
  remove_store(follower_dir);

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  auto follower = serve::ShardReplica::open(follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  leader.value()->attach_follower(follower.value().get());

  for (int i = 0; i < 20; ++i) {
    auto seq = leader.value()->ingest(ingest_point(i));
    ASSERT_TRUE(seq.has_value()) << seq.error();
    EXPECT_EQ(seq.value(), static_cast<std::uint64_t>(i));
    // The ack contract: by the time ingest returns, the follower holds it.
    EXPECT_EQ(follower.value()->next_seq(), seq.value() + 1);
  }
  EXPECT_EQ(leader.value()->acked_frames(), 20u);

  const auto& lp = leader.value()->store()->points();
  const auto& fp = follower.value()->store().points();
  ASSERT_EQ(lp.size(), fp.size());
  for (std::size_t i = 0; i < lp.size(); ++i) {
    EXPECT_EQ(wifi::CrowdStore::encode_point(lp[i]),
              wifi::CrowdStore::encode_point(fp[i]));
  }

  remove_store(leader_dir);
  remove_store(follower_dir);
}

TEST(ShardReplication, ApplyFrameSkipsStaleAndRefusesGaps) {
  const std::string dir = "shard_test_replica_seq";
  remove_store(dir);
  auto replica = serve::ShardReplica::open(dir);
  ASSERT_TRUE(replica.has_value()) << replica.error();

  const std::string frame0 = wifi::CrowdStore::encode_point(ingest_point(0));
  const std::string frame1 = wifi::CrowdStore::encode_point(ingest_point(1));

  using Status = net::FrameResponse::Status;
  EXPECT_EQ(replica.value()->apply_frame(0, frame0).status, Status::kApplied);
  // Redelivery of an applied frame is an idempotent no-op, not an error.
  EXPECT_EQ(replica.value()->apply_frame(0, frame0).status, Status::kStale);
  EXPECT_EQ(replica.value()->store().points().size(), 1u);
  // A gap means lost frames: refuse loudly instead of diverging.
  const net::FrameResponse gap = replica.value()->apply_frame(5, frame1);
  EXPECT_EQ(gap.status, Status::kGap);
  EXPECT_EQ(gap.value, 1u);
  EXPECT_EQ(replica.value()->apply_frame(1, frame1).status, Status::kApplied);
  EXPECT_EQ(replica.value()->next_seq(), 2u);

  remove_store(dir);
}

TEST(ShardReplication, PointPayloadsEncodePointNeverWritesAreRefused) {
  // decode_point accepts only the bytes encode_point writes.  Each payload
  // below parses under a lenient reader but re-encodes to other bytes, so a
  // follower that took it would journal what its leader never wrote.  Both
  // doors refuse it: apply_frame answers kError and journals nothing, and a
  // journal that holds it does not replay.
  const std::string good =
      wifi::CrowdStore::encode_point({{1.5, 2.0}, {{3, -60}, {9, -71}}, 4u});
  ASSERT_EQ(good, "1.5 2 4 2 3 -60 9 -71");
  const std::string dir = "shard_test_strict_decode";
  using Status = net::FrameResponse::Status;
  const auto journal_holding = [&](const std::string& payload) {
    remove_store(dir);
    ASSERT_TRUE(wifi::CrowdStore::open(dir).has_value());
    auto journal = durable::Journal::open(wifi::CrowdStore::journal_path(dir),
                                          wifi::CrowdStore::journal_tag());
    ASSERT_TRUE(journal.has_value()) << journal.error();
    ASSERT_TRUE(journal.value()->append(payload, 7).has_value());
  };
  for (const std::string& lax :
       {good + " junk", good + " 7 8", std::string("1.5 2 4 2 -5 -60 9 -71"),
        std::string("1.5 2 4 2 +3 -60 9 -71"), "  " + good,
        std::string("1.0 2 4 2 3 -60 9 -71")}) {
    SCOPED_TRACE(lax);
    EXPECT_FALSE(wifi::CrowdStore::decode_point(lax).has_value());
    remove_store(dir);
    {
      auto replica = serve::ShardReplica::open(dir);
      ASSERT_TRUE(replica.has_value()) << replica.error();
      EXPECT_EQ(replica.value()->apply_frame(0, lax, 7).status, Status::kError);
      EXPECT_EQ(replica.value()->next_seq(), 0u);
      EXPECT_EQ(replica.value()->store().arrays().size(), 0u);
    }
    journal_holding(lax);
    EXPECT_FALSE(wifi::CrowdStore::open(dir).has_value());
  }
  // The canonical bytes pass both doors.
  remove_store(dir);
  {
    auto replica = serve::ShardReplica::open(dir);
    ASSERT_TRUE(replica.has_value()) << replica.error();
    EXPECT_EQ(replica.value()->apply_frame(0, good, 7).status, Status::kApplied);
  }
  journal_holding(good);
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(wifi::CrowdStore::encode_point(store.value()->point(0)), good);
  remove_store(dir);
}

TEST(ShardReplication, FollowerColdStartsFromSnapshotPlusJournalTail) {
  const std::string leader_dir = "shard_test_cold_leader";
  const std::string follower_dir = "shard_test_cold_follower";
  remove_store(leader_dir);
  remove_store(follower_dir);

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  // 30 points folded into a snapshot, 10 more sitting in the journal tail:
  // the bootstrap must read both.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(leader.value()->ingest(ingest_point(i)).has_value());
  }
  ASSERT_TRUE(leader.value()->compact().has_value());
  for (int i = 30; i < 40; ++i) {
    ASSERT_TRUE(leader.value()->ingest(ingest_point(i)).has_value());
  }

  auto follower =
      serve::ShardReplica::bootstrap(leader_dir, follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  ASSERT_EQ(follower.value()->store().points().size(), 40u);
  EXPECT_EQ(follower.value()->next_seq(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(wifi::CrowdStore::encode_point(follower.value()->store().point(i)),
              wifi::CrowdStore::encode_point(leader.value()->store()->point(i)));
  }

  // The bootstrapped follower joins live replication seamlessly.
  leader.value()->attach_follower(follower.value().get());
  ASSERT_TRUE(leader.value()->ingest(ingest_point(40)).has_value());
  EXPECT_EQ(follower.value()->store().points().size(), 41u);

  remove_store(leader_dir);
  remove_store(follower_dir);
}

// ---------------------------------------------------------------------------
// Failover: kill the leader at every shipping fault point

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Seqs acknowledged by the child, one per complete line of the ack log (a
/// torn final line — the write the crash interrupted — is ignored, exactly
/// like a torn journal tail).
std::vector<std::uint64_t> read_acked(const std::string& path) {
  std::vector<std::uint64_t> acked;
  const auto image = ts::snapshot_file(path);
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = image.bytes.find('\n', start);
    if (nl == std::string::npos) break;  // a torn trailing write is ignored
    acked.push_back(std::stoull(image.bytes.substr(start, nl - start)));
    start = nl + 1;
  }
  return acked;
}

TEST(ShardFailover, LeaderKillAtEveryShippingFaultPointLosesNoAckedUpload) {
  const std::string leader_dir = "shard_test_failover_leader";
  const std::string follower_dir = "shard_test_failover_follower";
  const std::string takeover_dir = "shard_test_failover_takeover";
  const std::string model_path = "shard_test_failover_model.tmp";
  const std::string ack_path = "shard_test_failover_acks.tmp";

  // Parent-side world (forking after thread-free setup only): the reference
  // set the child will stream through the leader, plus the trained model the
  // promoted follower serves with.
  ts::LinearFieldWorld w;
  w.detector().save_file(model_path);
  const auto& index = w.detector().index();

  // The full shipping matrix: the leader's own WAL append (torn frame /
  // complete-but-unsynced frame), the frame in flight to the follower, and
  // the applied-but-unacknowledged gap.
  const std::vector<const char*> points = {
      durable::kFaultAppendPartial, durable::kFaultAppendSync,
      serve::kFaultShipFrame, serve::kFaultShipApplied};

  for (const char* point : points) {
    remove_store(leader_dir);
    remove_store(follower_dir);
    remove_store(takeover_dir);
    std::remove(ack_path.c_str());

    const auto child = ts::run_in_child([&] {
      auto leader = serve::ShardService::open_leader(
          0, leader_dir, /*sync_each_append=*/false);
      if (!leader.has_value()) ::_exit(71);
      auto follower =
          serve::ShardReplica::open(follower_dir, /*sync_each_append=*/false);
      if (!follower.has_value()) ::_exit(71);
      leader.value()->attach_follower(follower.value().get());

      const int ack_fd =
          ::open(ack_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (ack_fd < 0) ::_exit(71);

      // Phase 1 — clean ingestion of the whole reference set; each returned
      // seq is recorded as acknowledged only after ingest() returned it.
      for (std::size_t i = 0; i < index.size(); ++i) {
        auto seq = leader.value()->ingest(index.point(i));
        if (!seq.has_value()) ::_exit(72);
        const std::string line = std::to_string(seq.value()) + "\n";
        if (::write(ack_fd, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size())) {
          ::_exit(73);
        }
      }

      // Phase 2 — arm the kill and keep ingesting: the first operation to
      // consult `point` takes the process down mid-flight.
      FaultScope scope(1);
      scope.arm(point, {0.0, 1, FaultAction::kCrash});
      for (int j = 0; j < 3; ++j) {
        auto seq = leader.value()->ingest(
            {{25.0 + j, 3.0}, {{7, -60 - j}}, 4242u});
        if (seq.has_value()) {
          const std::string line = std::to_string(seq.value()) + "\n";
          (void)!::write(ack_fd, line.data(), line.size());
        }
      }
      ::_exit(0);
    });
    ASSERT_TRUE(child.crashed_at_point())
        << point << ": child " << child.describe();

    // Every acknowledged seq is exactly the clean prefix: the armed ingest
    // crashed before its acknowledgement could be recorded.
    const auto acked = read_acked(ack_path);
    ASSERT_EQ(acked.size(), index.size()) << point;
    for (std::size_t i = 0; i < acked.size(); ++i) {
      ASSERT_EQ(acked[i], i) << point;
    }

    // Promote the follower: its recovered store must hold every acknowledged
    // upload (kFaultShipApplied legitimately leaves one unacked extra — the
    // at-least-once tail the seq discipline absorbs on redelivery).
    auto promoted = wifi::CrowdStore::open(follower_dir);
    ASSERT_TRUE(promoted.has_value()) << point << ": " << promoted.error();
    const auto& recovered = promoted.value()->points();
    ASSERT_GE(recovered.size(), index.size()) << point;
    const bool applied_unacked =
        std::string_view(point) == serve::kFaultShipApplied;
    EXPECT_EQ(recovered.size(), index.size() + (applied_unacked ? 1 : 0))
        << point;
    for (std::size_t i = 0; i < index.size(); ++i) {
      ASSERT_EQ(wifi::CrowdStore::encode_point(recovered[i]),
                wifi::CrowdStore::encode_point(index.point(i)))
          << point << ": acknowledged upload " << i << " lost or mutated";
    }
    promoted.value().reset();

    // A replacement follower can also cold-start straight off the dead
    // leader's directory (snapshot + journal tail): it must hold at least
    // the acknowledged prefix too (the leader's own WAL may durably hold
    // one extra in-flight frame, depending on where the kill landed).
    auto takeover = serve::ShardReplica::bootstrap(leader_dir, takeover_dir);
    ASSERT_TRUE(takeover.has_value()) << point << ": " << takeover.error();
    ASSERT_GE(takeover.value()->store().points().size(), index.size()) << point;
    for (std::size_t i = 0; i < index.size(); ++i) {
      ASSERT_EQ(
          wifi::CrowdStore::encode_point(takeover.value()->store().point(i)),
          wifi::CrowdStore::encode_point(index.point(i)))
          << point;
    }

    // Golden reproduction: when the follower holds exactly the acknowledged
    // set, a service promoted from it serves the committed golden verdicts
    // bit for bit (the same goldens golden_test pins for the oracle).
    if (!applied_unacked) {
      serve::VerifierServiceConfig config;
      config.auto_start = false;
      auto service = serve::VerifierService::try_create_from_store(
          follower_dir, model_path, config);
      ASSERT_TRUE(service.has_value()) << point << ": " << service.error();
      ASSERT_TRUE(service.value()->has_detector()) << point;

      ts::LinearFieldWorld draws;
      std::string out;
      std::uint64_t checksum = 1469598103934665603ull;
      for (const auto& upload : draws.probe_mix(6)) {
        const auto response = service.value()->verify_now(upload);
        ASSERT_EQ(response.outcome, serve::Outcome::kOk) << point;
        const std::string payload = response.report.canonical_string();
        checksum ^= fnv1a(payload);
        out += payload;
        out += '\n';
      }
      out += "fnv1a_xor=" + hex64(checksum) + '\n';
      EXPECT_TRUE(ts::matches_golden("verdict_checksums.txt", out)) << point;
    } else {
      // The extra unacked point shifts the reference set, so goldens do not
      // apply; the promoted service must still serve healthy verdicts.
      serve::VerifierServiceConfig config;
      config.auto_start = false;
      auto service = serve::VerifierService::try_create_from_store(
          follower_dir, model_path, config);
      ASSERT_TRUE(service.has_value()) << point << ": " << service.error();
      ts::LinearFieldWorld draws;
      const auto response = service.value()->verify_now(draws.upload(true));
      EXPECT_EQ(response.outcome, serve::Outcome::kOk) << point;
    }
  }

  remove_store(leader_dir);
  remove_store(follower_dir);
  remove_store(takeover_dir);
  std::remove(model_path.c_str());
  std::remove(ack_path.c_str());
}

// ---------------------------------------------------------------------------
// Concurrent router fan-out (the TSan target): many client threads hammer
// one router, whose synchronous per-client fan-out and pool share each
// shard's epoch holder and detector snapshot.

void hammer_router(serve::ShardRouter& router,
                   const std::vector<wifi::ScannedUpload>& pool,
                   const std::vector<std::string>& oracle) {
  constexpr int kClients = 4;
  constexpr int kIters = 10;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kIters; ++i) {
        const std::size_t idx = (c * kIters + i) % pool.size();
        const auto response = router.verify(pool[idx], idx);
        if (response.outcome != serve::Outcome::kOk ||
            response.report.canonical_string() != oracle[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ShardRouterTsan, ConcurrentFanOutMatchesOracle) {
  ts::LinearFieldWorld w;
  std::vector<wifi::ScannedUpload> pool = w.probe_mix(8);
  std::vector<std::string> oracle;
  for (const auto& u : pool) {
    oracle.push_back(w.detector().analyze(u).canonical_string());
  }

  set_global_threads(4);
  {
    serve::ShardRouterConfig rc;
    rc.shards = 4;
    serve::ShardRouter router(w.detector(), rc);
    hammer_router(router, pool, oracle);

    const auto counters = router.counters();
    EXPECT_EQ(counters.requests, 40u);
    EXPECT_EQ(counters.errors, 0u);
    EXPECT_GE(counters.segments, counters.requests);
  }
  set_global_threads(1);
}

}  // namespace
}  // namespace trajkit
