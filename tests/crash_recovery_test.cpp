// Kill-at-fault-point crash recovery: the durability contract proven with
// real process deaths.
//
// Every test forks a child (tests/support/crash.hpp) that arms one named
// fault point with FaultAction::kCrash and runs a persistence operation; the
// child _exit()s at that exact step, taking its stack and buffers with it.
// The parent then examines the surviving on-disk state:
//
//   * atomic model saves leave exactly the pre-image (crash at or before the
//     rename) or exactly the post-image (crash after) — never a hybrid;
//   * a journal append crash leaves a torn tail that the next open truncates
//     back to an exact record prefix;
//   * a compaction crash at any step loses nothing and duplicates nothing;
//   * a VerifierService cold-started from the crashed-and-recovered store
//     reproduces the committed golden Eq. 8 features and verdict checksums
//     bit for bit.
//
// Children are I/O-only: every world/model is built in the parent before the
// fork, and no child creates threads.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable/durable_file.hpp"
#include "common/durable/journal.hpp"
#include "nn/classifier.hpp"
#include "serve/service.hpp"
#include "support/crash.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"
#include "wifi/features.hpp"

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

// ---------------------------------------------------------------------------
// Atomic save crash matrix
//
// For every fault point on the atomic write path, crash a child mid-save of
// a *new* artifact over a committed *old* one and assert the survivor is
// byte-exactly one of the two images — and still loads.

struct SaveCrashCase {
  std::string path;
  std::function<void()> save_old;   ///< commit the pre-image (runs in parent)
  std::function<void()> save_new;   ///< the operation the child crashes in
  std::function<bool()> loads;      ///< post-crash load succeeds
};

void run_save_crash_matrix(const SaveCrashCase& c) {
  c.save_old();
  const ts::FileImage pre = ts::snapshot_file(c.path);
  ASSERT_TRUE(pre.exists);
  c.save_new();
  const ts::FileImage post = ts::snapshot_file(c.path);
  ASSERT_NE(pre.bytes, post.bytes) << "pre/post images must differ to be told apart";

  for (const char* point : durable::kAtomicWritePoints) {
    c.save_old();  // restore the pre-image committed state
    const auto child = ts::crash_child_at(point, c.save_new);
    ASSERT_TRUE(child.crashed_at_point())
        << point << ": child " << child.describe();
    const ts::FileImage image = ts::snapshot_file(c.path);
    ASSERT_TRUE(image.exists) << point;
    if (std::string_view(point) == durable::kFaultDirSync) {
      // The rename already landed; only the directory fsync was lost.
      EXPECT_EQ(image.bytes, post.bytes) << point << ": expected the post-image";
    } else {
      EXPECT_EQ(image.bytes, pre.bytes) << point << ": expected the pre-image";
    }
    EXPECT_TRUE(c.loads()) << point << ": surviving image must load";
  }
  std::remove(c.path.c_str());
  std::remove((c.path + ".tmp").c_str());
}

TEST(CrashRecovery, DetectorSaveCrashLeavesPreOrPostImage) {
  // Two worlds with different seeds: distinguishable images, both loadable.
  ts::LinearFieldWorld old_world;
  ts::LinearWorldConfig new_cfg;
  new_cfg.seed = 11;
  ts::LinearFieldWorld new_world(new_cfg);
  const std::string path = "crash_test_detector.tmp";
  run_save_crash_matrix({
      path,
      [&] { old_world.detector().save_file(path); },
      [&] { new_world.detector().save_file(path); },
      [&] { return wifi::RssiDetector::try_load_file(path).has_value(); },
  });
}

TEST(CrashRecovery, LstmSaveCrashLeavesPreOrPostImage) {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 6;
  const nn::LstmClassifier old_model(cfg, 1);
  const nn::LstmClassifier new_model(cfg, 2);
  const std::string path = "crash_test_lstm.tmp";
  run_save_crash_matrix({
      path,
      [&] { old_model.save_file(path); },
      [&] { new_model.save_file(path); },
      [&] { return nn::LstmClassifier::try_load_file(path).has_value(); },
  });
}

// ---------------------------------------------------------------------------
// Journal append crash matrix

TEST(CrashRecovery, JournalAppendCrashRecoversAnExactPrefix) {
  const std::string path = "crash_test_journal.tmp";
  const std::vector<std::string> committed = {"committed zero", "committed one"};

  struct AppendCase {
    const char* point;
    std::size_t expect_records;  ///< intact records after recovery
  };
  // A crash mid-frame tears the tail (the new record is lost, truncated off);
  // a crash after the frame but before fsync leaves a complete record — the
  // process page cache survives _exit, so recovery sees the post-image.
  const AppendCase cases[] = {
      {durable::kFaultAppendPartial, committed.size()},
      {durable::kFaultAppendSync, committed.size() + 1},
  };

  for (const auto& c : cases) {
    std::remove(path.c_str());
    {
      auto journal = durable::Journal::open(path, "crash_journal");
      ASSERT_TRUE(journal.has_value()) << journal.error();
      for (const auto& payload : committed) {
        ASSERT_TRUE(journal.value()->append(payload).has_value());
      }
    }
    const std::size_t committed_size = ts::snapshot_file(path).bytes.size();

    const auto child = ts::crash_child_at(c.point, [&] {
      auto journal = durable::Journal::open(path, "crash_journal");
      if (!journal.has_value()) ::_exit(71);
      (void)journal.value()->append("crashing append");
    });
    ASSERT_TRUE(child.crashed_at_point())
        << c.point << ": child " << child.describe();

    auto journal = durable::Journal::open(path, "crash_journal");
    ASSERT_TRUE(journal.has_value()) << c.point << ": " << journal.error();
    const auto& rec = journal.value()->recovery();
    ASSERT_EQ(rec.records.size(), c.expect_records) << c.point;
    for (std::size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(rec.records[i].payload, committed[i]) << c.point;
    }
    if (c.expect_records > committed.size()) {
      EXPECT_EQ(rec.records.back().payload, "crashing append") << c.point;
      EXPECT_EQ(rec.truncated_bytes, 0u) << c.point;
    } else {
      EXPECT_GT(rec.truncated_bytes, 0u)
          << c.point << ": a torn tail must have been cut";
    }
    // Recovery physically truncated the tear: the file is frame-aligned again
    // and appending continues from the recovered seq.
    journal.value().reset();
    EXPECT_GE(ts::snapshot_file(path).bytes.size(), committed_size) << c.point;
    auto reopened = durable::Journal::open(path, "crash_journal");
    ASSERT_TRUE(reopened.has_value());
    EXPECT_EQ(reopened.value()->recovery().truncated_bytes, 0u) << c.point;
    EXPECT_EQ(reopened.value()->append("after crash").value(),
              static_cast<std::uint64_t>(c.expect_records))
        << c.point;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Compaction crash matrix

TEST(CrashRecovery, CompactionCrashLosesAndDuplicatesNothing) {
  const std::string dir = "crash_test_store";
  std::vector<wifi::ReferencePoint> expected;
  for (int i = 0; i < 5; ++i) {
    expected.push_back(
        {{double(i), 2.0 * i}, {{std::uint64_t(i + 1), -45 - i}}, 9u});
  }

  // Every step compaction can die at: the five atomic-write points of the
  // snapshot commit, the gap between the two stages, and the journal reset.
  std::vector<const char*> points(std::begin(durable::kAtomicWritePoints),
                                  std::end(durable::kAtomicWritePoints));
  points.push_back(wifi::kFaultStoreCompact);
  points.push_back(durable::kFaultJournalReset);

  for (const char* point : points) {
    remove_store(dir);
    {
      auto store = wifi::CrowdStore::open(dir);
      ASSERT_TRUE(store.has_value()) << store.error();
      for (const auto& p : expected) {
        ASSERT_TRUE(store.value()->append(p).has_value());
      }
    }

    const auto child = ts::crash_child_at(point, [&] {
      auto store = wifi::CrowdStore::open(dir);
      if (!store.has_value()) ::_exit(71);
      (void)store.value()->compact();
    });
    ASSERT_TRUE(child.crashed_at_point())
        << point << ": child " << child.describe();

    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << point << ": " << store.error();
    ASSERT_EQ(store.value()->points().size(), expected.size()) << point;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const wifi::ReferencePoint got = store.value()->point(i);
      EXPECT_EQ(got.pos.east, expected[i].pos.east) << point;
      EXPECT_EQ(got.pos.north, expected[i].pos.north) << point;
      EXPECT_EQ(got.scan, expected[i].scan) << point;
      EXPECT_EQ(got.traj_id, expected[i].traj_id) << point;
    }
    // The store stays fully operational: re-compaction and appends succeed.
    ASSERT_TRUE(store.value()->compact().has_value()) << point;
    auto seq = store.value()->append(expected[0]);
    ASSERT_TRUE(seq.has_value()) << point << ": " << seq.error();
    EXPECT_EQ(store.value()->points().size(), expected.size() + 1) << point;
  }
  remove_store(dir);
}

TEST(CrashRecovery, PoisonQuarantineStateSurvivesEveryCompactionCrash) {
  // The adversarial-layer state (per-uploader provenance, reputation scores,
  // quarantine verdicts) rides the same snapshot + journal machinery as the
  // points — so a crash at any compaction step must leave a store that still
  // knows exactly who is quarantined, with the scores bitwise intact.
  const std::string dir = "crash_test_poison_store";

  std::vector<const char*> points(std::begin(durable::kAtomicWritePoints),
                                  std::end(durable::kAtomicWritePoints));
  points.push_back(wifi::kFaultStoreCompact);
  points.push_back(durable::kFaultJournalReset);

  for (const char* point : points) {
    remove_store(dir);
    std::string reputation;
    std::uint64_t provenance_fnv = 0;
    std::size_t trusted = 0;
    {
      auto store = wifi::CrowdStore::open(dir);
      ASSERT_TRUE(store.has_value()) << store.error();
      // Three uploaders agree about one cell; a review quarantines one of
      // them, and a fourth is cleared after a (mistaken) quarantine — both
      // marker kinds sit in the journal when the compaction crash hits.
      for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(store.value()
                        ->append({{1.0 + 0.1 * i, 1.0}, {{5, -50}}, 1u},
                                 static_cast<wifi::UploaderId>(1 + i % 3))
                        .has_value());
      }
      ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 2}).has_value());
      ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 9}).has_value());
      ASSERT_TRUE(store.value()->append_control({Kind::kClear, 9}).has_value());
      reputation = store.value()->reputation().serialize();
      provenance_fnv = store.value()->provenance().checksum();
      trusted = store.value()->trusted_points().size();
      ASSERT_LT(trusted, store.value()->points().size());
    }

    const auto child = ts::crash_child_at(point, [&] {
      auto store = wifi::CrowdStore::open(dir);
      if (!store.has_value()) ::_exit(71);
      (void)store.value()->compact();
    });
    ASSERT_TRUE(child.crashed_at_point())
        << point << ": child " << child.describe();

    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << point << ": " << store.error();
    EXPECT_EQ(store.value()->reputation().serialize(), reputation) << point;
    EXPECT_EQ(store.value()->provenance().checksum(), provenance_fnv) << point;
    EXPECT_TRUE(store.value()->reputation().is_quarantined(2)) << point;
    EXPECT_FALSE(store.value()->reputation().is_quarantined(9)) << point;
    EXPECT_EQ(store.value()->trusted_points().size(), trusted) << point;
    // Still operational: the review can proceed after the crash.
    ASSERT_TRUE(store.value()->compact().has_value()) << point;
    ASSERT_TRUE(store.value()->append_control({Kind::kClear, 2}).has_value()) << point;
    EXPECT_EQ(store.value()->trusted_points().size(),
              store.value()->points().size())
        << point;
  }
  remove_store(dir);
}

TEST(CrashRecovery, PoisonQuarantineMarkerAppendCrashIsAtomic) {
  // A crash inside the journal append of a "#quarantine" control frame
  // leaves either a store that never heard of the review (torn frame,
  // truncated) or one that fully applied it on replay — never a half state.
  const std::string dir = "crash_test_poison_marker";

  struct MarkerCase {
    const char* point;
    bool expect_applied;  ///< marker survives (page cache outlives _exit)
  };
  const MarkerCase cases[] = {
      {durable::kFaultAppendPartial, false},
      {durable::kFaultAppendSync, true},
  };

  for (const auto& c : cases) {
    remove_store(dir);
    {
      auto store = wifi::CrowdStore::open(dir);
      ASSERT_TRUE(store.has_value()) << store.error();
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(store.value()
                        ->append({{1.0 + 0.1 * i, 1.0}, {{5, -50}}, 1u},
                                 static_cast<wifi::UploaderId>(1 + i))
                        .has_value());
      }
    }

    const auto child = ts::crash_child_at(c.point, [&] {
      auto store = wifi::CrowdStore::open(dir);
      if (!store.has_value()) ::_exit(71);
      (void)store.value()->append_control({Kind::kQuarantine, 3});
    });
    ASSERT_TRUE(child.crashed_at_point())
        << c.point << ": child " << child.describe();

    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << c.point << ": " << store.error();
    EXPECT_EQ(store.value()->points().size(), 4u) << c.point;
    EXPECT_EQ(store.value()->reputation().is_quarantined(3), c.expect_applied)
        << c.point;
    EXPECT_EQ(store.value()->trusted_points().size(), c.expect_applied ? 3u : 4u)
        << c.point;
    // Either way the review path still works from here.
    ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 3}).has_value())
        << c.point;
    EXPECT_TRUE(store.value()->reputation().is_quarantined(3)) << c.point;
  }
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// End to end: cold start from a crashed store reproduces the goldens

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

TEST(CrashRecovery, RecoveredServiceServesGoldenVerdicts) {
  const std::string dir = "crash_test_golden_store";
  const std::string model_path = "crash_test_golden_model.tmp";
  remove_store(dir);

  // The provider's state, persisted the deployment way: the trained model
  // file plus a crowd store holding the reference set, point by point.
  ts::LinearFieldWorld w;
  w.detector().save_file(model_path);
  {
    auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    const auto& index = w.detector().index();
    for (std::size_t i = 0; i < index.size(); ++i) {
      ASSERT_TRUE(store.value()->append(index.point(i)).has_value()) << i;
    }
  }

  // Crash the store twice: once mid-snapshot-commit (old snapshot survives,
  // journal intact) and once between the compact stages (new snapshot
  // committed, journal stale).  Recovery must shrug off both.
  for (const char* point : {durable::kFaultRename, wifi::kFaultStoreCompact}) {
    const auto child = ts::crash_child_at(point, [&] {
      auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
      if (!store.has_value()) ::_exit(71);
      (void)store.value()->compact();
    });
    ASSERT_TRUE(child.crashed_at_point())
        << point << ": child " << child.describe();
  }

  serve::VerifierServiceConfig config;
  config.auto_start = false;
  auto service =
      serve::VerifierService::try_create_from_store(dir, model_path, config);
  ASSERT_TRUE(service.has_value()) << service.error();
  ASSERT_TRUE(service.value()->has_detector());

  // Golden 1 — the Eq. 8 feature vectors, with golden_test's exact draw
  // order: a fresh world's first real and first forged upload.
  {
    ts::LinearFieldWorld draws;
    std::string out;
    for (const bool real : {true, false}) {
      const auto upload = draws.upload(real);
      std::vector<double> features;
      std::vector<double> point_scores;
      service.value()->detector().segment_features(upload, features, point_scores);
      out += real ? "real" : "fake";
      out += '\n';
      for (const double v : features) {
        out += ts::canonical_double(v);
        out += '\n';
      }
    }
    EXPECT_TRUE(ts::matches_golden("eq8_features.txt", out));
  }

  // Golden 2 — the canonical verdict payloads and their checksum, served
  // through the recovered service's synchronous path.
  {
    ts::LinearFieldWorld draws;
    std::string out;
    std::uint64_t checksum = 1469598103934665603ull;
    for (const auto& upload : draws.probe_mix(6)) {
      const auto response = service.value()->verify_now(upload);
      ASSERT_EQ(response.outcome, serve::Outcome::kOk);
      const std::string payload = response.report.canonical_string();
      checksum ^= fnv1a(payload);
      out += payload;
      out += '\n';
    }
    out += "fnv1a_xor=" + hex64(checksum) + '\n';
    EXPECT_TRUE(ts::matches_golden("verdict_checksums.txt", out));
  }

  remove_store(dir);
  std::remove(model_path.c_str());
}

TEST(CrashRecovery, AppendCrashStillColdStartsTheService) {
  const std::string dir = "crash_test_append_store";
  const std::string model_path = "crash_test_append_model.tmp";
  remove_store(dir);

  ts::LinearFieldWorld w;
  w.detector().save_file(model_path);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          store.value()->append({{double(i), 0.0}, {{1, -50}}, 2u}).has_value());
    }
  }
  // Die mid-append: the torn record must vanish, the three committed ones
  // must serve.
  const auto child = ts::crash_child_at(durable::kFaultAppendPartial, [&] {
    auto store = wifi::CrowdStore::open(dir);
    if (!store.has_value()) ::_exit(71);
    (void)store.value()->append({{99.0, 99.0}, {{1, -50}}, 2u});
  });
  ASSERT_TRUE(child.crashed_at_point()) << child.describe();

  serve::VerifierServiceConfig config;
  config.auto_start = false;
  auto service =
      serve::VerifierService::try_create_from_store(dir, model_path, config);
  ASSERT_TRUE(service.has_value()) << service.error();
  ASSERT_TRUE(service.value()->has_detector());
  EXPECT_EQ(service.value()->detector().index().size(), 3u);

  remove_store(dir);
  std::remove(model_path.c_str());
}

TEST(CrashRecovery, UnloadableModelDegradedStartsFromStore) {
  const std::string dir = "crash_test_degraded_store";
  remove_store(dir);
  { ASSERT_TRUE(wifi::CrowdStore::open(dir).has_value()); }

  serve::VerifierServiceConfig config;
  config.auto_start = false;
  config.fallback.allow_degraded_start = true;
  auto service = serve::VerifierService::try_create_from_store(
      dir, "crash_test_no_such_model.tmp", config);
  ASSERT_TRUE(service.has_value()) << service.error();
  EXPECT_FALSE(service.value()->has_detector());

  wifi::ScannedUpload upload;
  upload.positions = {{0.0, 0.0}, {1.0, 0.0}};
  upload.scans = {{{1, -50}}, {{1, -51}}};
  const auto response = service.value()->verify_now(upload);
  EXPECT_EQ(response.outcome, serve::Outcome::kDegraded);
  remove_store(dir);
}

}  // namespace
}  // namespace trajkit
