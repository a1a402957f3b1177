// Online-model hot-swap: incremental crowd statistics, the versioned artifact
// store, and zero-downtime epoch publication.
//
// The contract under test (serve/epoched_detector.hpp, which both serve/
// service.hpp publish_epoch and serve/shard_service.hpp refresh_from_store
// build and flip through; common/durable/artifact_store.hpp):
//
//   * appending crowd points and republishing through the epoch holder
//     (assembly under the serving index's pinned bounds) yields verdicts
//     bitwise-identical to a stop-the-world rebuild — for random append
//     orders and thread counts;
//   * an epoch publish drops no in-flight request: holders of the old
//     detector snapshot finish on their epoch while the flip happens;
//   * a crash anywhere between the artifact commit and the CURRENT flip
//     recovers to the old epoch, and the next publish lands strictly above
//     every orphan (fork harness, tests/support/crash.hpp);
//   * followers learn epochs from the same WAL shipping that carries the
//     points, and a store-backed shard adopts them via refresh_from_store;
//   * the epoch holder refuses a shrinking point set on every publish path,
//     and a snapshot pins its epoch's detector across flips.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/durable/artifact_store.hpp"
#include "common/durable/durable_file.hpp"
#include "common/durable/journal.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "gbt/booster.hpp"
#include "serve/epoched_detector.hpp"
#include "serve/service.hpp"
#include "serve/shard_service.hpp"
#include "support/crash.hpp"
#include "support/fixtures.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;
using Kind = wifi::ControlFrame::Kind;

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

void remove_artifacts(const std::string& dir, const std::string& kind) {
  for (std::uint64_t epoch = 1; epoch <= 32; ++epoch) {
    std::remove((dir + "/" + kind + "." + std::to_string(epoch)).c_str());
    std::remove(
        (dir + "/" + kind + "." + std::to_string(epoch) + ".tmp").c_str());
  }
  std::remove((dir + "/CURRENT").c_str());
  std::remove((dir + "/CURRENT.tmp").c_str());
  ::rmdir(dir.c_str());
}

/// The reference set a detector was assembled over, in index order — the
/// ingestion order a crowd store must replay to rebuild the same index.
std::vector<wifi::ReferencePoint> index_points(const wifi::RssiDetector& d) {
  std::vector<wifi::ReferencePoint> points;
  points.reserve(d.index().size());
  for (std::size_t i = 0; i < d.index().size(); ++i) points.push_back(d.index().point(i));
  return points;
}

/// Fresh crowd points inside the world's area (analytic field scans, so the
/// detector keeps seeing self-consistent data).
std::vector<wifi::ReferencePoint> tail_points(const ts::LinearWorldConfig& cfg,
                                              std::size_t n, Rng& rng,
                                              std::uint32_t traj_base) {
  std::vector<wifi::ReferencePoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    const Enu p{rng.uniform(cfg.margin_m, cfg.area_m - cfg.margin_m),
                rng.uniform(cfg.margin_m, cfg.area_m - cfg.margin_m)};
    points.push_back({p,
                      {{1, ts::LinearFieldWorld::field_rssi(p)}},
                      traj_base + static_cast<std::uint32_t>(i / 5)});
  }
  return points;
}

std::vector<serve::VerificationRequest> as_requests(
    const std::vector<wifi::ScannedUpload>& uploads) {
  std::vector<serve::VerificationRequest> requests;
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    requests.push_back({i + 1, uploads[i], 0});
  }
  return requests;
}

/// The stop-the-world oracle: rebuild from scratch over the store's full
/// point set under the same pinned grid bounds.
std::unique_ptr<wifi::RssiDetector> oracle_rebuild(
    const wifi::CrowdStore& store, const wifi::RssiDetector& like,
    const BoundingBox& bounds) {
  return wifi::RssiDetector::assemble(store.points(), like.config(),
                                      like.classifier(), like.trained_points(),
                                      bounds);
}

// ---------------------------------------------------------------------------
// Epoch markers on the WAL

TEST(Hotswap, EpochMarkerCodecRoundTripsAndRejectsMalformed) {
  using wifi::CrowdStore;
  EXPECT_EQ(CrowdStore::encode_control({Kind::kEpoch, 12}), "#epoch 12");
  auto parsed = CrowdStore::parse_control("#epoch 12");
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_EQ(parsed.value().kind, Kind::kEpoch);
  EXPECT_EQ(parsed.value().value, 12u);
  EXPECT_TRUE(CrowdStore::parse_control("#epoch 1").has_value());
  // "#epoch" is not a prefix of another kind's frame.
  EXPECT_EQ(CrowdStore::parse_control("#motion_epoch 1").value().kind,
            Kind::kMotionEpoch);

  // Every accepted payload re-encodes to the same bytes — what lets a
  // follower re-journal exactly what its leader shipped.
  for (const Kind kind :
       {Kind::kEpoch, Kind::kMotionEpoch, Kind::kQuarantine, Kind::kClear}) {
    for (const std::uint64_t value :
         {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{1} << 40,
          std::numeric_limits<std::uint64_t>::max()}) {
      const std::string bytes = CrowdStore::encode_control({kind, value});
      auto back = CrowdStore::parse_control(bytes);
      ASSERT_TRUE(back.has_value()) << bytes;
      EXPECT_EQ(back.value().kind, kind);
      EXPECT_EQ(back.value().value, value);
      EXPECT_EQ(CrowdStore::encode_control(back.value()), bytes);
    }
  }

  for (const char* bad :
       {"", "#epoch ", "#epoch x", "#epoch 1x", "#epochs 3", "1 2 0 1 1 -50",
        "#epoch +1", "#epoch -1", "#epoch  1",
        // Leading zeros would re-encode to other bytes.
        "#epoch 01", "#epoch 00", "#clear 007",
        // Oversized digit strings are rejected rather than overflowed.
        "#epoch 18446744073709551616", "#epoch 123456789012345678901"}) {
    EXPECT_FALSE(CrowdStore::parse_control(bad).has_value()) << bad;
  }
}

TEST(Hotswap, StoreRecoversObservedEpochFromJournalAndSnapshot) {
  const std::string dir = "hotswap_test_epoch_store";
  remove_store(dir);

  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(
        store.value()->append({{5.0, 5.0}, {{1, -45}}, 0}).has_value());
    ASSERT_TRUE(store.value()->append_control({Kind::kEpoch, 3}).has_value());
    // Markers are monotone: a stale/lower epoch never lowers the observation.
    ASSERT_TRUE(store.value()->append_control({Kind::kEpoch, 2}).has_value());
    EXPECT_EQ(store.value()->observed_epoch(), 3u);
  }
  {
    // Journal replay path: the markers are control frames on the WAL.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->observed_epoch(), 3u);
    EXPECT_EQ(store.value()->points().size(), 1u);
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  {
    // Snapshot path: compaction folded the epoch into the v2 meta record.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->observed_epoch(), 3u);
    EXPECT_EQ(store.value()->open_stats().replayed_records, 0u);
  }

  // An unknown control frame is a hard replay error, not silent data loss:
  // '#' payloads are reserved, and a store must not guess at their meaning.
  {
    auto journal = durable::Journal::open(wifi::CrowdStore::journal_path(dir),
                                          wifi::CrowdStore::journal_tag());
    ASSERT_TRUE(journal.has_value()) << journal.error();
    ASSERT_TRUE(journal.value()->append("#bogus 1").has_value());
  }
  auto reopened = wifi::CrowdStore::open(dir);
  ASSERT_FALSE(reopened.has_value());
  EXPECT_NE(reopened.error().find("unknown control frame"), std::string::npos)
      << reopened.error();
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// Provenance refolded on reopen

TEST(Hotswap, ReopenRefoldsProvenanceAndAppendsExtendIt) {
  const std::string dir = "hotswap_test_provenance_store";
  remove_store(dir);
  Rng rng(41);
  const ts::LinearWorldConfig cfg;
  const auto points = tail_points(cfg, 60, rng, 100);
  const auto uploader = [](std::size_t i) {
    return static_cast<wifi::UploaderId>(1 + i % 5);
  };

  wifi::ProvenanceGrid live;
  std::string reputation;
  {
    // 40 points and a quarantine in the snapshot, 20 points and the clear in
    // the journal tail.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (i == 40) {
        ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 2}).has_value());
        ASSERT_TRUE(store.value()->compact().has_value());
      }
      ASSERT_TRUE(store.value()->append(points[i], uploader(i)).has_value());
    }
    ASSERT_TRUE(store.value()->append_control({Kind::kClear, 2}).has_value());
    live = store.value()->provenance();
    reputation = store.value()->reputation().serialize();
    EXPECT_EQ(live.point_count(), points.size());
    EXPECT_TRUE(ts::fold_provenance(*store.value()) == live);
  }
  {
    // Snapshot + tail: the grid is refolded from the snapshot's points, and
    // appends keep extending it incrementally.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->open_stats().snapshot_points, 40u);
    EXPECT_TRUE(store.value()->provenance() == live);
    EXPECT_EQ(store.value()->provenance().checksum(), live.checksum());
    EXPECT_EQ(store.value()->reputation().serialize(), reputation);

    ASSERT_TRUE(store.value()->append(points.front(), 3).has_value());
    live.add(points.front(), 3);
    EXPECT_TRUE(store.value()->provenance() == live);
    reputation = store.value()->reputation().serialize();
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  {
    // Snapshot alone: the same grid, the same book.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->open_stats().replayed_records, 0u);
    EXPECT_TRUE(store.value()->provenance() == live);
    EXPECT_TRUE(ts::fold_provenance(*store.value()) == live);
    EXPECT_EQ(store.value()->reputation().serialize(), reputation);
  }
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// Versioned artifact store

TEST(Artifact, PublishReadRoundTripWithMonotoneEpochs) {
  const std::string dir = "hotswap_test_artifacts_basic";
  remove_artifacts(dir, "blob");

  auto store = durable::ArtifactStore::open_dir(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->current_epoch("blob"), 0u);

  for (std::uint64_t i = 1; i <= 3; ++i) {
    auto epoch =
        store.value()->publish_payload("blob", "payload " + std::to_string(i));
    ASSERT_TRUE(epoch.has_value()) << epoch.error();
    EXPECT_EQ(epoch.value(), i);
    EXPECT_EQ(store.value()->current_epoch("blob"), i);
  }
  // Every epoch stays readable after later publishes — in-flight work can
  // finish on the epoch it started on.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    auto payload = store.value()->read_payload("blob", i);
    ASSERT_TRUE(payload.has_value()) << payload.error();
    EXPECT_EQ(payload.value(), "payload " + std::to_string(i));
  }
  auto live = store.value()->read_payload("blob", durable::ArtifactStore::kCurrentEpoch);
  ASSERT_TRUE(live.has_value()) << live.error();
  EXPECT_EQ(live.value(), "payload 3");

  // The CURRENT pointer is durable: a fresh open resumes at the live epoch.
  auto reopened = durable::ArtifactStore::open_dir(dir);
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  EXPECT_EQ(reopened.value()->current_epoch("blob"), 3u);

  // Orphan files (the crash-between-stages residue) are never overwritten:
  // the next publish probes past every epoch on disk.
  { std::ofstream orphan(dir + "/blob.7"); orphan << "orphan"; }
  auto epoch = reopened.value()->publish_payload("blob", "after orphan");
  ASSERT_TRUE(epoch.has_value()) << epoch.error();
  EXPECT_EQ(epoch.value(), 8u);
  EXPECT_EQ(reopened.value()->current_epoch("blob"), 8u);

  // Kinds are path components and validated as such.
  EXPECT_FALSE(reopened.value()->publish_payload("Bad Kind!", "x").has_value());
  EXPECT_FALSE(reopened.value()->publish_payload("", "x").has_value());
  remove_artifacts(dir, "blob");
}

TEST(Artifact, StaleArtifactTmpFilesReclaimedOnOpen) {
  const std::string dir = "hotswap_test_artifacts_tmp";
  remove_artifacts(dir, "blob");

  {
    auto store = durable::ArtifactStore::open_dir(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(store.value()->publish_payload("blob", "payload 1").has_value());
  }

  // A crash inside the stage-1 DurableWriter commit strands the artifact's
  // temp file (name known only to the crashed process), plus possibly a
  // CURRENT flip temp.  Neighbours that merely *look* temp-ish must survive:
  // they are not artifact publishes and not ours to delete.
  const auto touch = [&](const std::string& name) {
    std::ofstream out(dir + "/" + name);
    out << "stale";
  };
  touch("blob.2.tmp");     // crashed publish — must be reclaimed
  touch("CURRENT.tmp");    // crashed flip — must be reclaimed (old behavior)
  touch("blob.x.tmp");     // non-numeric epoch: not an artifact temp
  touch("Blob.3.tmp");     // invalid kind (uppercase): not an artifact temp
  touch("notes.txt.tmp");  // unrelated user file

  auto reopened = durable::ArtifactStore::open_dir(dir);
  ASSERT_TRUE(reopened.has_value()) << reopened.error();

  struct stat st {};
  EXPECT_NE(::stat((dir + "/blob.2.tmp").c_str(), &st), 0);
  EXPECT_NE(::stat((dir + "/CURRENT.tmp").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/blob.x.tmp").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/Blob.3.tmp").c_str(), &st), 0);
  EXPECT_EQ(::stat((dir + "/notes.txt.tmp").c_str(), &st), 0);

  // A reclaimed temp is not an orphan *artifact*: the next publish proceeds
  // from CURRENT, not from the crashed epoch number.
  EXPECT_EQ(reopened.value()->current_epoch("blob"), 1u);
  auto epoch = reopened.value()->publish_payload("blob", "payload 2");
  ASSERT_TRUE(epoch.has_value()) << epoch.error();
  EXPECT_EQ(epoch.value(), 2u);

  std::remove((dir + "/blob.x.tmp").c_str());
  std::remove((dir + "/Blob.3.tmp").c_str());
  std::remove((dir + "/notes.txt.tmp").c_str());
  remove_artifacts(dir, "blob");
}

TEST(Artifact, TypedCodecRoundTripsDetectorAndClassifier) {
  const std::string dir = "hotswap_test_artifacts_typed";
  remove_artifacts(dir, "detector");
  remove_artifacts(dir, "gbt");
  ts::LinearFieldWorld w;

  auto store = durable::ArtifactStore::open_dir(dir);
  ASSERT_TRUE(store.has_value()) << store.error();

  // Payloads are the models' own images: the detector's binary image ...
  auto epoch = store.value()->publish_payload("detector", w.detector().image());
  ASSERT_TRUE(epoch.has_value()) << epoch.error();
  auto payload = store.value()->read_payload("detector", durable::ArtifactStore::kCurrentEpoch);
  ASSERT_TRUE(payload.has_value()) << payload.error();
  auto loaded = wifi::RssiDetector::decode(payload.value());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();

  Rng rng(7001);
  for (int trial = 0; trial < 6; ++trial) {
    const auto upload = w.upload(trial % 2 == 0, rng);
    const auto expect = w.detector().analyze(upload);
    const auto got = loaded.value()->analyze(upload);
    EXPECT_EQ(got.verdict, expect.verdict) << "trial " << trial;
    EXPECT_EQ(got.features, expect.features) << "trial " << trial;
    EXPECT_EQ(got.point_scores, expect.point_scores) << "trial " << trial;
  }

  // ... and the classifier's text, a second kind under the same CURRENT.
  std::ostringstream text;
  w.detector().classifier().save(text);
  auto gbt_epoch = store.value()->publish_payload("gbt", text.str());
  ASSERT_TRUE(gbt_epoch.has_value()) << gbt_epoch.error();
  auto reopened = durable::ArtifactStore::open_dir(dir);
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  EXPECT_EQ(reopened.value()->current(),
            (std::map<std::string, std::uint64_t>{{"detector", epoch.value()},
                                                  {"gbt", gbt_epoch.value()}}));
  auto gbt_text = reopened.value()->read_payload("gbt", gbt_epoch.value());
  ASSERT_TRUE(gbt_text.has_value()) << gbt_text.error();
  std::istringstream is(gbt_text.value());
  auto gbt = gbt::GbtClassifier::try_load(is);
  ASSERT_TRUE(gbt.has_value()) << gbt.error();
  std::ostringstream again;
  gbt.value().save(again);
  EXPECT_EQ(again.str(), text.str());
  auto detector_again = reopened.value()->read_payload("detector", epoch.value());
  ASSERT_TRUE(detector_again.has_value()) << detector_again.error();
  EXPECT_EQ(detector_again.value(), payload.value());

  // Missing kinds and epochs fail through Expected, never throw.
  EXPECT_FALSE(store.value()
                   ->read_payload("missing", durable::ArtifactStore::kCurrentEpoch)
                   .has_value());
  EXPECT_FALSE(store.value()->read_payload("detector", 99).has_value());
  remove_artifacts(dir, "detector");
  remove_artifacts(dir, "gbt");
}

// ---------------------------------------------------------------------------
// publish_epoch: incremental refresh == stop-the-world oracle

TEST(Hotswap, PublishEpochMatchesOracleRebuildBitForBit) {
  const std::string store_dir = "hotswap_test_publish_store";
  const std::string artifact_dir = "hotswap_test_publish_artifacts";
  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");

  ts::LinearFieldWorld w;
  const auto initial = index_points(w.detector());
  auto store = wifi::CrowdStore::open(store_dir, /*sync_each_append=*/false);
  ASSERT_TRUE(store.has_value()) << store.error();
  for (const auto& p : initial) ASSERT_TRUE(store.value()->append(p).has_value());

  serve::VerifierServiceConfig config;
  config.auto_start = false;
  auto service = std::make_unique<serve::VerifierService>(
      wifi::RssiDetector::assemble(initial, w.detector().config(),
                                   w.detector().classifier(),
                                   w.detector().trained_points()),
      config);
  const BoundingBox bounds = service->detector().index().bounds();
  EXPECT_EQ(service->epoch(), 0u);
  EXPECT_EQ(service->published_points(), initial.size());

  auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
  ASSERT_TRUE(artifacts.has_value()) << artifacts.error();

  const auto probes = w.probe_mix(10);
  const auto requests = as_requests(probes);
  // Serve on epoch 0 first, so each comparison below follows a flip under a
  // service that has already answered traffic.
  service->verify_batch(requests);

  Rng rng(91);
  for (std::uint64_t round = 1; round <= 2; ++round) {
    for (const auto& p : tail_points(w.config(), 25, rng, 1000 * round)) {
      ASSERT_TRUE(store.value()->append(p).has_value());
    }
    auto epoch = service->publish_epoch(*store.value(), artifacts.value().get());
    ASSERT_TRUE(epoch.has_value()) << epoch.error();
    EXPECT_EQ(epoch.value(), round);
    EXPECT_EQ(service->epoch(), round);
    EXPECT_EQ(service->published_points(), store.value()->points().size());
    EXPECT_EQ(artifacts.value()->current_epoch("detector"), round);
    EXPECT_EQ(store.value()->observed_epoch(), round);

    // Checksum equality at the epoch boundary: the published epoch must be
    // indistinguishable from a rebuild over the full store.
    const auto oracle = oracle_rebuild(*store.value(), service->detector(), bounds);
    const auto responses = service->verify_batch(requests);
    ASSERT_EQ(responses.size(), probes.size());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto expect = oracle->analyze(probes[i]);
      ASSERT_EQ(responses[i].outcome, serve::Outcome::kOk);
      EXPECT_EQ(responses[i].report.verdict, expect.verdict) << "probe " << i;
      EXPECT_EQ(responses[i].report.features, expect.features) << "probe " << i;
      EXPECT_EQ(responses[i].report.point_scores, expect.point_scores)
          << "probe " << i;
      EXPECT_EQ(responses[i].report.p_real, expect.p_real) << "probe " << i;
    }
  }

  // Cold restart from the artifact store serves the last published epoch.
  auto restarted = serve::VerifierService::try_create_from_artifacts(
      artifact_dir, config);
  ASSERT_TRUE(restarted.has_value()) << restarted.error();
  EXPECT_EQ(restarted.value()->epoch(), 2u);
  const auto expect = service->verify_now(probes[0]);
  const auto got = restarted.value()->verify_now(probes[0]);
  EXPECT_EQ(got.report.features, expect.report.features);
  EXPECT_EQ(got.report.verdict, expect.report.verdict);

  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");
}

TEST(Hotswap, EpochImagesEqualFromScratchAssemblyAcrossFilteredPublishes) {
  // An unfiltered publish copies the store's arrays and adds only the grid;
  // a quarantine-filtered one keys the trusted points afresh.  Through an
  // unfiltered, a filtered and another unfiltered publish, each epoch's
  // detector image must equal an assembly over the same points built from
  // scratch as a vector.
  const std::string store_dir = "hotswap_test_filtered_images";
  remove_store(store_dir);
  ts::LinearFieldWorld w;
  const auto initial = index_points(w.detector());
  auto store = wifi::CrowdStore::open(store_dir, /*sync_each_append=*/false);
  ASSERT_TRUE(store.has_value()) << store.error();
  for (const auto& p : initial) ASSERT_TRUE(store.value()->append(p).has_value());
  serve::VerifierServiceConfig config;
  config.auto_start = false;
  serve::VerifierService service(
      wifi::RssiDetector::assemble(initial, w.detector().config(),
                                   w.detector().classifier(),
                                   w.detector().trained_points()),
      config);
  const BoundingBox bounds = service.detector().index().bounds();
  const auto from_scratch = [&](const std::vector<wifi::ReferencePoint>& points) {
    return wifi::RssiDetector::assemble(points, w.detector().config(),
                                        w.detector().classifier(),
                                        w.detector().trained_points(), bounds)
        ->image();
  };
  constexpr wifi::UploaderId kSuspect = 5;
  Rng rng(17);
  for (const bool filtered : {false, true, false}) {
    SCOPED_TRACE(filtered ? "filtered" : "unfiltered");
    std::size_t k = 0;
    for (const auto& p : tail_points(w.config(), 20, rng, 2000)) {
      ASSERT_TRUE(store.value()->append(p, k++ % 2 ? kSuspect : 6).has_value());
    }
    if (filtered) {
      ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, kSuspect}).has_value());
    }
    auto epoch = service.publish_epoch(*store.value(), nullptr, filtered);
    ASSERT_TRUE(epoch.has_value()) << epoch.error();
    std::vector<wifi::ReferencePoint> points;
    for (std::size_t h = 0; h < store.value()->arrays().size(); ++h) {
      if (!filtered || store.value()->uploaders()[h] != kSuspect) {
        points.push_back(store.value()->point(h));
      }
    }
    EXPECT_EQ(service.published_points(), points.size());
    EXPECT_EQ(service.detector().image(), from_scratch(points));
  }
  remove_store(store_dir);
}

TEST(Hotswap, IncrementalRefreshMatchesRebuildAcrossOrdersAndThreads) {
  // Property: for random append orders of the same tail and thread counts
  // {1, 4}, N appends + an invalidation-scoped publish produce verdicts
  // bitwise-identical to a from-scratch rebuild over the same point order.
  ts::LinearWorldConfig small;
  small.history_points = 240;
  small.train_pairs = 16;
  small.trees = 8;
  ts::LinearFieldWorld w(small);
  const auto initial = index_points(w.detector());
  const auto probes = w.probe_mix(6);
  const auto requests = as_requests(probes);
  Rng rng(173);
  const auto tail = tail_points(small, 30, rng, 5000);

  const std::string store_dir = "hotswap_test_property_store";
  for (const std::uint64_t order_seed : {11ull, 23ull}) {
    auto shuffled = tail;
    Rng order_rng(order_seed);
    order_rng.shuffle(shuffled);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE("order " + std::to_string(order_seed) + " threads " +
                   std::to_string(threads));
      set_global_threads(threads);
      remove_store(store_dir);
      auto store = wifi::CrowdStore::open(store_dir, false);
      ASSERT_TRUE(store.has_value()) << store.error();
      for (const auto& p : initial) {
        ASSERT_TRUE(store.value()->append(p).has_value());
      }

      serve::VerifierServiceConfig config;
      config.auto_start = false;
      serve::VerifierService service(
          wifi::RssiDetector::assemble(initial, w.detector().config(),
                                       w.detector().classifier(),
                                       w.detector().trained_points()),
          config);
      const BoundingBox bounds = service.detector().index().bounds();
      service.verify_batch(requests);  // answer on epoch 0 before the flip

      for (const auto& p : shuffled) {
        ASSERT_TRUE(store.value()->append(p).has_value());
      }
      auto epoch = service.publish_epoch(*store.value());
      ASSERT_TRUE(epoch.has_value()) << epoch.error();

      const auto oracle = oracle_rebuild(*store.value(), service.detector(), bounds);
      const auto responses = service.verify_batch(requests);
      for (std::size_t i = 0; i < probes.size(); ++i) {
        const auto expect = oracle->analyze(probes[i]);
        ASSERT_EQ(responses[i].outcome, serve::Outcome::kOk);
        EXPECT_EQ(responses[i].report.features, expect.features) << "probe " << i;
        EXPECT_EQ(responses[i].report.point_scores, expect.point_scores)
            << "probe " << i;
        EXPECT_EQ(responses[i].report.verdict, expect.verdict) << "probe " << i;
      }
    }
  }
  set_global_threads(0);
  remove_store(store_dir);
}

// ---------------------------------------------------------------------------
// Zero-downtime: concurrent swaps drop nothing

TEST(Hotswap, ConcurrentPublishDropsNoInFlightRequests) {
  const std::string store_dir = "hotswap_test_concurrent_store";
  const std::string artifact_dir = "hotswap_test_concurrent_artifacts";
  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");

  ts::LinearWorldConfig small;
  small.history_points = 240;
  small.train_pairs = 16;
  small.trees = 8;
  ts::LinearFieldWorld w(small);
  const auto initial = index_points(w.detector());
  auto store = wifi::CrowdStore::open(store_dir, false);
  ASSERT_TRUE(store.has_value()) << store.error();
  for (const auto& p : initial) ASSERT_TRUE(store.value()->append(p).has_value());

  serve::VerifierServiceConfig config;
  config.max_queue = 4096;
  serve::VerifierService service(
      wifi::RssiDetector::assemble(initial, w.detector().config(),
                                   w.detector().classifier(),
                                   w.detector().trained_points()),
      config);
  auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
  ASSERT_TRUE(artifacts.has_value()) << artifacts.error();

  const auto probes = w.probe_mix(8);
  constexpr std::size_t kRequests = 120;
  std::vector<std::future<serve::VerdictResponse>> futures;
  futures.reserve(kRequests);

  // Publish three epochs, each committed to the artifact store first, while
  // the submission stream and a verify_now client are in flight; every
  // request must come back kOk — served by whichever epoch it snapshotted.
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    Rng rng(311);
    for (int round = 0; round < 3; ++round) {
      for (const auto& p : tail_points(small, 10, rng, 9000 + 100 * round)) {
        auto seq = store.value()->append(p);
        if (!seq) { ADD_FAILURE() << seq.error(); return; }
      }
      auto epoch = service.publish_epoch(*store.value(), artifacts.value().get());
      if (!epoch) { ADD_FAILURE() << epoch.error(); return; }
    }
  });
  std::size_t now_requests = 0;
  std::thread now_client([&] {
    do {
      const auto response =
          service.verify_now(probes[now_requests % probes.size()]);
      EXPECT_EQ(response.outcome, serve::Outcome::kOk)
          << "verify_now " << now_requests << ": "
          << serve::outcome_name(response.outcome) << " " << response.error;
      ++now_requests;
    } while (publishing.load());
  });
  for (std::size_t i = 0; i < kRequests; ++i) {
    futures.push_back(service.submit({i + 1, probes[i % probes.size()], 0}));
  }
  publisher.join();
  publishing.store(false);
  now_client.join();

  std::size_t ok = 0;
  for (auto& f : futures) {
    const auto response = f.get();
    EXPECT_EQ(response.outcome, serve::Outcome::kOk)
        << serve::outcome_name(response.outcome) << " " << response.error;
    ok += response.outcome == serve::Outcome::kOk;
  }
  EXPECT_EQ(ok, kRequests);
  EXPECT_EQ(service.epoch(), 3u);
  service.stop();
  const auto counters = service.counters();
  EXPECT_EQ(counters.received, kRequests + now_requests);
  EXPECT_EQ(counters.completed, kRequests + now_requests);
  EXPECT_EQ(counters.rejected, 0u);
  EXPECT_EQ(counters.errors, 0u);
  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");
}

// ---------------------------------------------------------------------------
// Crash walk of the publish path

TEST(Hotswap, PublishCrashBeforeCurrentFlipRecoversOldEpoch) {
  const std::string store_dir = "hotswap_test_crash_store";
  const std::string artifact_dir = "hotswap_test_crash_artifacts";
  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");

  ts::LinearWorldConfig small;
  small.history_points = 200;
  small.train_pairs = 12;
  small.trees = 8;
  ts::LinearFieldWorld w(small);
  const auto initial = index_points(w.detector());
  auto store = wifi::CrowdStore::open(store_dir, false);
  ASSERT_TRUE(store.has_value()) << store.error();
  for (const auto& p : initial) ASSERT_TRUE(store.value()->append(p).has_value());

  serve::VerifierServiceConfig config;
  config.auto_start = false;  // children must stay single-threaded
  serve::VerifierService service(
      wifi::RssiDetector::assemble(initial, w.detector().config(),
                                   w.detector().classifier(),
                                   w.detector().trained_points()),
      config);
  auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
  ASSERT_TRUE(artifacts.has_value()) << artifacts.error();

  // Epoch 1 is the committed old world every crash must fall back to.
  auto first = service.publish_epoch(*store.value(), artifacts.value().get());
  ASSERT_TRUE(first.has_value()) << first.error();
  ASSERT_EQ(first.value(), 1u);
  const std::string current_path =
      durable::ArtifactStore::current_path(artifact_dir);
  const ts::FileImage committed = ts::snapshot_file(current_path);
  ASSERT_TRUE(committed.exists);

  Rng rng(59);
  for (const auto& p : tail_points(small, 15, rng, 7000)) {
    ASSERT_TRUE(store.value()->append(p).has_value());
  }

  // Crash matrix: every atomic-write step of the artifact commit, plus the
  // explicit gap between the commit and the CURRENT flip.  In every case the
  // flip never happened, so CURRENT must be byte-identical to the old image
  // and a restart serves epoch 1.
  std::vector<std::string> points(std::begin(durable::kAtomicWritePoints),
                                  std::end(durable::kAtomicWritePoints));
  points.push_back(durable::kFaultPublishCurrent);
  for (const auto& point : points) {
    SCOPED_TRACE(point);
    const auto child = ts::crash_child_at(point, [&] {
      auto epoch = service.publish_epoch(*store.value(), artifacts.value().get());
      if (epoch.has_value()) _exit(70);  // the crash point must fire first
    });
    ASSERT_TRUE(child.crashed_at_point()) << child.describe();
    EXPECT_EQ(ts::snapshot_file(current_path), committed);

    auto survivor = serve::VerifierService::try_create_from_artifacts(
        artifact_dir, config);
    ASSERT_TRUE(survivor.has_value()) << survivor.error();
    EXPECT_EQ(survivor.value()->epoch(), 1u);
  }
  // The kFaultPublishCurrent child committed its artifact before dying: the
  // orphan is on disk even though CURRENT never learned about it.
  EXPECT_TRUE(ts::snapshot_file(artifacts.value()->artifact_path("detector", 2))
                  .exists);

  // Recovery publish: the next epoch lands strictly above every orphan, and
  // the restarted service serves it.
  auto recovered = service.publish_epoch(*store.value(), artifacts.value().get());
  ASSERT_TRUE(recovered.has_value()) << recovered.error();
  EXPECT_GT(recovered.value(), 2u);
  auto restarted = serve::VerifierService::try_create_from_artifacts(
      artifact_dir, config);
  ASSERT_TRUE(restarted.has_value()) << restarted.error();
  EXPECT_EQ(restarted.value()->epoch(), recovered.value());

  remove_store(store_dir);
  remove_artifacts(artifact_dir, "detector");
}

// ---------------------------------------------------------------------------
// Follower epoch adoption over WAL shipping

TEST(Hotswap, FollowerAdoptsEpochFromWalShippingAndRefreshes) {
  const std::string leader_dir = "hotswap_test_ship_leader";
  const std::string follower_dir = "hotswap_test_ship_follower";
  remove_store(leader_dir);
  remove_store(follower_dir);

  ts::LinearWorldConfig small;
  small.history_points = 200;
  small.train_pairs = 12;
  small.trees = 8;
  ts::LinearFieldWorld w(small);

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  auto follower = serve::ShardReplica::open(follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  leader.value()->attach_follower(follower.value().get());

  Rng rng(83);
  for (const auto& p : tail_points(small, 30, rng, 0)) {
    ASSERT_TRUE(leader.value()->ingest(p).has_value());
  }

  // The marker rides the same acknowledged shipping path as the points: by
  // the time ship_control returns, the follower has durably observed it.
  auto seq = leader.value()->ship_control({Kind::kEpoch, 3});
  ASSERT_TRUE(seq.has_value()) << seq.error();
  EXPECT_EQ(leader.value()->store()->observed_epoch(), 3u);
  EXPECT_EQ(follower.value()->store().observed_epoch(), 3u);
  EXPECT_EQ(follower.value()->store().points().size(), 30u);

  // Promotion shape: arm verification on the store-backed shard and adopt the
  // store's observed epoch.
  const BoundingBox bounds =
      wifi::ReferenceIndex::natural_bounds(leader.value()->store()->points());
  auto armed = leader.value()->arm_verification(
      w.detector().config(), w.detector().classifier(),
      w.detector().trained_points(), bounds);
  ASSERT_TRUE(armed.has_value()) << armed.error();
  EXPECT_EQ(leader.value()->epoch(), 3u);

  // More crowd data, a new epoch marker, then refresh: the shard rebuilds its
  // slice through the hot-swap path and serves the marker's epoch.
  for (const auto& p : tail_points(small, 12, rng, 500)) {
    ASSERT_TRUE(leader.value()->ingest(p).has_value());
  }
  ASSERT_TRUE(leader.value()->ship_control({Kind::kEpoch, 4}).has_value());
  EXPECT_EQ(follower.value()->store().observed_epoch(), 4u);
  auto refreshed = leader.value()->refresh_from_store();
  ASSERT_TRUE(refreshed.has_value()) << refreshed.error();
  EXPECT_EQ(refreshed.value(), 4u);
  EXPECT_EQ(leader.value()->epoch(), 4u);

  // The refreshed shard answers segment features bitwise-equal to an oracle
  // assembled from scratch over the store under the same pinned bounds.
  const auto oracle = wifi::RssiDetector::assemble(
      leader.value()->store()->points(), w.detector().config(),
      w.detector().classifier(), w.detector().trained_points(), bounds);
  wifi::ScannedUpload upload;
  for (const Enu& p : {Enu{5.0, 5.0}, Enu{10.0, 8.0}, Enu{15.0, 12.0},
                       Enu{20.0, 16.0}}) {
    upload.positions.push_back(p);
    upload.scans.push_back({{1, ts::LinearFieldWorld::field_rssi(p)}});
  }
  std::vector<double> expect_features;
  std::vector<double> expect_scores;
  oracle->segment_features(upload, expect_features, expect_scores);
  const std::size_t top_k = w.detector().config().confidence.top_k;
  std::vector<double> features(2 * top_k * upload.positions.size(), 0.0);
  std::vector<double> scores(upload.positions.size(), 0.0);
  leader.value()->evaluate_segment(upload, 0, upload.positions.size(),
                                   features.data(), scores.data());
  EXPECT_EQ(features, expect_features);
  EXPECT_EQ(scores, expect_scores);

  remove_store(leader_dir);
  remove_store(follower_dir);
}

// ---------------------------------------------------------------------------
// The epoch holder both publish paths share

TEST(EpochedDetector, BothPublishPathsRefuseAShrinkingPointSet) {
  const std::string store_dir = "hotswap_test_shrink_store";
  remove_store(store_dir);
  ts::LinearFieldWorld w;
  const auto initial = index_points(w.detector());
  constexpr const char* kShrank = "point set shrank below the serving epoch";

  // Service path: a store holding fewer points than the serving epoch (a
  // restored-from-backup store, say) must not become the next epoch — and
  // nothing may leak out first: no artifact, no "#epoch" marker, no flip.
  {
    auto store = wifi::CrowdStore::open(store_dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (std::size_t i = 0; i < initial.size() / 2; ++i) {
      ASSERT_TRUE(store.value()->append(initial[i]).has_value());
    }
    serve::VerifierServiceConfig config;
    config.auto_start = false;
    serve::VerifierService service(w.detector(), config);
    const auto before = service.detector_snapshot();
    auto published = service.publish_epoch(*store.value());
    ASSERT_FALSE(published.has_value());
    EXPECT_EQ(published.error(), std::string("publish_epoch: ") + kShrank +
                                     " (epochs are append-only)");
    EXPECT_EQ(service.epoch(), 0u);
    EXPECT_EQ(service.detector_snapshot(), before);
    EXPECT_EQ(service.published_points(), initial.size());
    EXPECT_EQ(store.value()->observed_epoch(), 0u);
  }
  remove_store(store_dir);

  // Shard path: ShardService::refresh_from_store is this same build_next
  // over the store's points (a shard store only grows, so drive the holder
  // directly), refused by the same single check.
  serve::EpochedDetector holder;
  holder.install({wifi::RssiDetector::assemble(initial, w.detector().config(),
                                               w.detector().classifier(),
                                               w.detector().trained_points())},
                 7);
  auto shorter = holder.build_next(
      std::vector<wifi::ReferencePoint>(initial.begin(), initial.end() - 1));
  ASSERT_FALSE(shorter.has_value());
  EXPECT_EQ(shorter.error().rfind(kShrank, 0), 0u) << shorter.error();
  EXPECT_EQ(holder.epoch(), 7u);
  EXPECT_EQ(holder.published_points(), initial.size());

  // An equal-size set is a legal (no-op) epoch; a filtered build may shrink.
  ASSERT_TRUE(holder.build_next(initial).has_value());
  ASSERT_TRUE(holder
                  .build_next(std::vector<wifi::ReferencePoint>(
                                  initial.begin(), initial.end() - 1),
                              /*filtered=*/true)
                  .has_value());
}

TEST(EpochedDetector, SnapshotBeforeFlipKeepsItsEpochDetectorAlive) {
  ts::LinearFieldWorld w;
  const auto initial = index_points(w.detector());
  serve::EpochedDetector holder;
  holder.install({wifi::RssiDetector::assemble(initial, w.detector().config(),
                                               w.detector().classifier(),
                                               w.detector().trained_points())},
                 0);
  const auto probes = w.probe_mix(4);

  auto snapshot = holder.detector();
  std::vector<std::string> before;
  for (const auto& p : probes) before.push_back(snapshot->analyze(p).canonical_string());
  const std::weak_ptr<const wifi::RssiDetector> old_detector = snapshot;

  Rng rng(17);
  auto grown = initial;
  for (const auto& p : tail_points(w.config(), 20, rng, 900)) grown.push_back(p);
  auto next = holder.build_next(grown);
  ASSERT_TRUE(next.has_value()) << next.error();
  holder.install(std::move(next).value(), 1);

  // New readers see epoch 1; the pre-flip snapshot still owns epoch 0 and
  // its index.
  EXPECT_EQ(holder.epoch(), 1u);
  EXPECT_EQ(holder.published_points(), grown.size());
  EXPECT_NE(holder.detector(), snapshot);
  EXPECT_EQ(snapshot->index().size(), initial.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(snapshot->analyze(probes[i]).canonical_string(), before[i]) << i;
  }

  // Letting go of the last snapshot retires the epoch.
  snapshot.reset();
  EXPECT_TRUE(old_detector.expired());
}

TEST(EpochedDetector, ConcurrentReadersSeeWholeEpochsAcrossFlips) {
  // Readers snapshot once per verdict while the main thread builds and flips
  // three epochs: every verdict must equal the stop-the-world oracle of the
  // epoch its snapshot names — never a torn mix of two epochs.
  ts::LinearFieldWorld w;
  auto points = index_points(w.detector());
  serve::EpochedDetector holder;
  holder.install({wifi::RssiDetector::assemble(points, w.detector().config(),
                                               w.detector().classifier(),
                                               w.detector().trained_points())},
                 0);
  const BoundingBox bounds = holder.detector()->index().bounds();
  const auto probe = w.upload(true);

  Rng rng(29);
  std::map<std::size_t, std::string> expect;  // index size -> oracle verdict
  std::vector<std::vector<wifi::ReferencePoint>> epochs;
  expect[points.size()] = holder.detector()->analyze(probe).canonical_string();
  for (std::uint32_t e = 1; e <= 3; ++e) {
    for (const auto& p : tail_points(w.config(), 15, rng, 2000 * e)) points.push_back(p);
    epochs.push_back(points);
    expect[points.size()] =
        wifi::RssiDetector::assemble(points, w.detector().config(),
                                     w.detector().classifier(),
                                     w.detector().trained_points(), bounds)
            ->analyze(probe)
            .canonical_string();
  }

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> verdicts{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const auto snap = holder.detector();
        const auto it = expect.find(snap->index().size());
        if (it == expect.end() ||
            snap->analyze(probe).canonical_string() != it->second) {
          mismatches.fetch_add(1);
        }
        verdicts.fetch_add(1);
      }
    });
  }
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    auto next = holder.build_next(epochs[e]);
    if (!next) {
      ADD_FAILURE() << next.error();
      break;
    }
    holder.install(std::move(next).value(), e + 1);
  }
  while (verdicts.load() < 8) std::this_thread::yield();
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(holder.epoch(), 3u);
  EXPECT_EQ(holder.detector()->analyze(probe).canonical_string(),
            expect[points.size()]);
}

}  // namespace
}  // namespace trajkit
