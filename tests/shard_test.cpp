// Geo-sharded verification: shard-vs-oracle bitwise equivalence, router
// split/merge properties, consistent-hash stability, replication and
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
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

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
    return router.ring().owner_of(tile_of(p, tile));
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
             !(index[cursor].pos == slice[i].pos &&
               index[cursor].scan == slice[i].scan)) {
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
      const std::size_t owner = router.ring().owner_of(
          tile_of(slice[i].pos, router.config().tile_m));
      if (owner != s) continue;  // halo entry, not owned
      const auto wanted = index.within(slice[i].pos, router.halo_m());
      const auto have = slice.within(slice[i].pos, router.halo_m());
      EXPECT_EQ(have.size(), wanted.size())
          << "shard " << s << " misses halo neighbours of owned point " << i;
    }
  }
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
  EXPECT_EQ(segments[0].shard, router.ring().owner_of(tile_of({3.0, 3.0}, 8.0)));
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
  const auto u = upload_at({{7.9, 5.0}, {8.0, 5.0}, {8.1, 5.0}});
  const auto segments = router.split(u);
  const std::size_t west = router.ring().owner_of({0, 0});
  const std::size_t east = router.ring().owner_of({1, 0});
  if (west == east) {
    ASSERT_EQ(segments.size(), 1u);
  } else {
    ASSERT_EQ(segments.size(), 2u);
    EXPECT_EQ(segments[0].end, 1u) << "the pinned point belongs east";
    EXPECT_EQ(segments[0].shard, west);
    EXPECT_EQ(segments[1].begin, 1u);
    EXPECT_EQ(segments[1].shard, east);
  }
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
// Consistent-hash ring

TEST(ConsistentHashRing, DeterministicAndBalanced) {
  const serve::ConsistentHashRing a(8, 64, 42);
  const serve::ConsistentHashRing b(8, 64, 42);
  std::vector<std::size_t> owned(8, 0);
  for (std::int64_t ty = 0; ty < 40; ++ty) {
    for (std::int64_t tx = 0; tx < 40; ++tx) {
      const std::size_t o = a.owner_of({tx, ty});
      EXPECT_EQ(o, b.owner_of({tx, ty}));
      ASSERT_LT(o, 8u);
      ++owned[o];
    }
  }
  // 1600 tiles over 8 shards: perfectly even would be 200 each; vnode
  // placement is hash-random, so only assert no shard is starved or hogging.
  for (std::size_t s = 0; s < owned.size(); ++s) {
    EXPECT_GT(owned[s], 40u) << "shard " << s << " starved";
    EXPECT_LT(owned[s], 800u) << "shard " << s << " owns half the world";
  }
}

TEST(ConsistentHashRing, GrowingTheFleetOnlyMovesTilesToTheNewShard) {
  for (const std::size_t n : {1u, 2u, 4u, 7u}) {
    const serve::ConsistentHashRing before(n, 64, 7);
    const serve::ConsistentHashRing after(n + 1, 64, 7);
    std::size_t moved = 0;
    std::size_t tiles = 0;
    for (std::int64_t ty = -20; ty < 20; ++ty) {
      for (std::int64_t tx = -20; tx < 20; ++tx) {
        const std::size_t o1 = before.owner_of({tx, ty});
        const std::size_t o2 = after.owner_of({tx, ty});
        ++tiles;
        if (o1 != o2) {
          ++moved;
          EXPECT_EQ(o2, n) << "a tile may only move to the new shard";
        }
      }
    }
    // Expected churn is ~tiles/(n+1); allow a generous factor for vnode
    // placement variance but reject full reshuffles.
    EXPECT_LT(moved, tiles * 2 / (n + 1) + tiles / 10)
        << "n=" << n << ": consistent hashing must not reshuffle the world";
    EXPECT_GT(moved, 0u) << "n=" << n << ": the new shard must own something";
  }
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

  EXPECT_TRUE(replica.value()->apply_frame(0, frame0).value());
  // Redelivery of an applied frame is an idempotent no-op, not an error.
  EXPECT_FALSE(replica.value()->apply_frame(0, frame0).value());
  EXPECT_EQ(replica.value()->store().points().size(), 1u);
  // A gap means lost frames: refuse loudly instead of diverging.
  auto gap = replica.value()->apply_frame(5, frame1);
  ASSERT_FALSE(gap.has_value());
  EXPECT_NE(gap.error().find("gap"), std::string::npos);
  EXPECT_TRUE(replica.value()->apply_frame(1, frame1).value());
  EXPECT_EQ(replica.value()->next_seq(), 2u);

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
    EXPECT_EQ(wifi::CrowdStore::encode_point(follower.value()->store().points()[i]),
              wifi::CrowdStore::encode_point(leader.value()->store()->points()[i]));
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
        auto seq = leader.value()->ingest(index[i]);
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
                wifi::CrowdStore::encode_point(index[i]))
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
          wifi::CrowdStore::encode_point(takeover.value()->store().points()[i]),
          wifi::CrowdStore::encode_point(index[i]))
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
