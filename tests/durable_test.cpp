// Durability layer tests: CRC-32, atomic writes, the framed container, the
// write-ahead journal, the crowd store, validated loaders and a deterministic
// corruption fuzz over every persisted format.
//
// The corruption contract under test: *any* single-byte corruption or
// truncation of a committed artifact is a clean Expected error (or, for the
// journal's append region, a deterministic torn-tail truncation back to an
// exact record prefix) — never garbage accepted, never UB.  The fuzz offsets
// come from counter-based RNG substreams, so a failure names a reproducible
// byte.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable/artifact_store.hpp"
#include "common/durable/crc32.hpp"
#include "common/durable/durable_file.hpp"
#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "gbt/booster.hpp"
#include "nn/classifier.hpp"
#include "nn/quant_classifier.hpp"
#include "support/crash.hpp"
#include "support/fixtures.hpp"
#include "traj/io.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"
#include "wifi/validate.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;
using durable::DurableWriter;

std::string slurp(const std::string& path) { return ts::snapshot_file(path).bytes; }

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(os.is_open()) << path;
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void remove_tree(const std::string& dir) {
  std::remove((dir + "/crowd.snapshot").c_str());
  std::remove((dir + "/crowd.journal").c_str());
  ::rmdir(dir.c_str());
}

// ---------------------------------------------------------------------------
// CRC-32

TEST(Crc32, MatchesIeeeKnownAnswer) {
  // The canonical CRC-32 check value (IEEE 802.3, poly 0xEDB88320).
  EXPECT_EQ(durable::crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(durable::crc32(std::string_view("")), 0u);
}

TEST(Crc32, ChainsAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = durable::crc32(data.data(), data.size());
  for (const std::size_t split : {std::size_t{0}, std::size_t{1}, data.size() / 2,
                                  data.size()}) {
    const std::uint32_t head = durable::crc32(data.data(), split);
    const std::uint32_t chained =
        durable::crc32(data.data() + split, data.size() - split, head);
    EXPECT_EQ(chained, whole) << "split at " << split;
  }
}

// ---------------------------------------------------------------------------
// Atomic replace

TEST(AtomicWrite, WritesAndReplaces) {
  const std::string path = "durable_test_atomic.tmp";
  ASSERT_TRUE(durable::write_file_atomic(path, "first").has_value());
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(durable::write_file_atomic(path, "second, longer content").has_value());
  EXPECT_EQ(slurp(path), "second, longer content");
  std::remove(path.c_str());
}

TEST(AtomicWrite, InjectedFailureLeavesPreviousFileAndNoTemp) {
  const std::string path = "durable_test_atomic_fault.tmp";
  ASSERT_TRUE(durable::write_file_atomic(path, "survivor").has_value());
  for (const char* point : durable::kAtomicWritePoints) {
    if (std::string_view(point) == durable::kFaultDirSync) continue;  // post-commit
    FaultScope faults(3);
    faults.arm(point, {.fail_first = 1});
    const auto written = durable::write_file_atomic(path, "clobber");
    EXPECT_FALSE(written.has_value()) << point;
    EXPECT_EQ(slurp(path), "survivor") << point;
    EXPECT_EQ(ts::snapshot_file(path + ".tmp").exists, false) << point;
  }
  // kFaultDirSync fails *after* the rename: the new content is in place.
  {
    FaultScope faults(3);
    faults.arm(durable::kFaultDirSync, {.fail_first = 1});
    EXPECT_FALSE(durable::write_file_atomic(path, "landed").has_value());
    EXPECT_EQ(slurp(path), "landed");
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Framed container

TEST(DurableContainer, RoundTripsRecords) {
  DurableWriter writer("unit_tag", 7);
  writer.add_record("alpha");
  writer.add_record("");  // empty record is legal
  writer.add_record(std::string(1000, 'z'));
  const std::string bytes = writer.bytes();

  const auto parsed = durable::parse_durable(bytes, "unit_tag", 7);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  ASSERT_EQ(parsed.value().size(), 3u);
  EXPECT_EQ(parsed.value()[0], "alpha");
  EXPECT_EQ(parsed.value()[1], "");
  EXPECT_EQ(parsed.value()[2], std::string(1000, 'z'));

  // Any other version is refused, older or newer.
  for (const std::uint32_t version : {6u, 8u}) {
    const auto skewed = durable::parse_durable(bytes, "unit_tag", version);
    ASSERT_FALSE(skewed.has_value()) << version;
    EXPECT_NE(skewed.error().find("unsupported version 7 (expected " +
                                  std::to_string(version) + ")"),
              std::string::npos)
        << skewed.error();
  }
}

TEST(DurableContainer, RejectsTagMismatch) {
  DurableWriter writer("right_tag", 1);
  writer.add_record("payload");
  const auto parsed = durable::parse_durable(writer.bytes(), "wrong_tag", 1);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().find("tag"), std::string::npos) << parsed.error();
}

TEST(DurableContainer, EveryTruncationIsRejected) {
  DurableWriter writer("trunc_tag", 1);
  writer.add_record("some payload worth checking");
  writer.add_record("and another");
  const std::string bytes = writer.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto parsed =
        durable::parse_durable(std::string_view(bytes).substr(0, len), "trunc_tag", 1);
    EXPECT_FALSE(parsed.has_value()) << "prefix of " << len << " bytes accepted";
  }
  EXPECT_TRUE(durable::parse_durable(bytes, "trunc_tag", 1).has_value());
}

TEST(DurableContainer, EverySingleByteFlipIsRejected) {
  DurableWriter writer("flip_tag", 2);
  writer.add_record("payload one");
  writer.add_record("payload two");
  const std::string bytes = writer.bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(static_cast<unsigned char>(mutated[i]) ^ mask);
      const auto parsed = durable::parse_durable(mutated, "flip_tag", 2);
      EXPECT_FALSE(parsed.has_value())
          << "flip mask 0x" << std::hex << int(mask) << " at byte " << std::dec << i
          << " accepted";
    }
  }
}

TEST(DurableContainer, TrailingGarbageIsRejected) {
  DurableWriter writer("tail_tag", 1);
  writer.add_record("payload");
  const auto parsed = durable::parse_durable(writer.bytes() + "extra", "tail_tag", 1);
  EXPECT_FALSE(parsed.has_value());
}

TEST(DurableContainer, RoundTripsBeyond16BitRecordCount) {
  // Regression: the parse-side record cap used to be 65,536 while writers
  // (the crowd snapshot holds up to 5M points) could legally commit far more
  // — the file wrote fine and could never be read back.
  constexpr std::size_t kCount = 70'000;
  DurableWriter writer("big_tag", 1);
  for (std::size_t i = 0; i < kCount; ++i) {
    writer.add_record(std::to_string(i));
  }
  const auto parsed = durable::parse_durable(writer.bytes(), "big_tag", 1);
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  ASSERT_EQ(parsed.value().size(), kCount);
  EXPECT_EQ(parsed.value()[0], "0");
  EXPECT_EQ(parsed.value()[kCount - 1], std::to_string(kCount - 1));
}

TEST(DurableContainer, RejectsImplausibleClaimedRecordCount) {
  DurableWriter writer("count_tag", 1);
  writer.add_record("only record");
  std::string bytes = writer.bytes();
  // magic(8) + tag_len(4) + tag + version(4), then the u32 record count.
  const std::size_t count_offset = 8 + 4 + std::strlen("count_tag") + 4;

  // More records than the remaining bytes could physically hold.
  std::uint32_t claimed = 1000;
  std::memcpy(&bytes[count_offset], &claimed, sizeof claimed);
  auto parsed = durable::parse_durable(bytes, "count_tag", 1);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().find("implausible"), std::string::npos) << parsed.error();

  // Past the global cap the writer enforces.
  claimed = static_cast<std::uint32_t>(durable::kMaxDurableRecords + 1);
  std::memcpy(&bytes[count_offset], &claimed, sizeof claimed);
  parsed = durable::parse_durable(bytes, "count_tag", 1);
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().find("implausible"), std::string::npos) << parsed.error();
}

// ---------------------------------------------------------------------------
// Journal

TEST(Journal, AppendsAndRecovers) {
  const std::string path = "durable_test_journal.tmp";
  std::remove(path.c_str());
  {
    auto journal = durable::Journal::open(path, "unit_journal", 5);
    ASSERT_TRUE(journal.has_value()) << journal.error();
    EXPECT_EQ(journal.value()->next_seq(), 5u);
    EXPECT_EQ(journal.value()->append("rec a").value(), 5u);
    EXPECT_EQ(journal.value()->append("rec b").value(), 6u);
    EXPECT_EQ(journal.value()->append("").value(), 7u);
  }
  auto reopened = durable::Journal::open(path, "unit_journal");
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  const auto& rec = reopened.value()->recovery();
  EXPECT_EQ(rec.truncated_bytes, 0u);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[0].seq, 5u);
  EXPECT_EQ(rec.records[0].payload, "rec a");
  EXPECT_EQ(rec.records[2].payload, "");
  EXPECT_EQ(reopened.value()->next_seq(), 8u);
  std::remove(path.c_str());
}

TEST(Journal, TornTailIsTruncatedToExactRecordPrefix) {
  const std::string path = "durable_test_journal_torn.tmp";
  std::remove(path.c_str());
  std::vector<std::string> payloads = {"first record", "second record",
                                       "third record"};
  {
    auto journal = durable::Journal::open(path, "torn_journal");
    ASSERT_TRUE(journal.has_value());
    for (const auto& p : payloads) ASSERT_TRUE(journal.value()->append(p));
  }
  const std::string intact = slurp(path);
  // Find where record 2 starts by re-measuring after two appends.
  std::remove(path.c_str());
  {
    auto journal = durable::Journal::open(path, "torn_journal");
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal.value()->append(payloads[0]));
    ASSERT_TRUE(journal.value()->append(payloads[1]));
  }
  const std::size_t two_records = slurp(path).size();

  // Every truncation length between "two records" and "three records" must
  // recover exactly the first two and cut the file back.
  for (std::size_t len = two_records; len < intact.size(); ++len) {
    write_raw(path, intact.substr(0, len));
    auto journal = durable::Journal::open(path, "torn_journal");
    ASSERT_TRUE(journal.has_value()) << "len " << len << ": " << journal.error();
    const auto& rec = journal.value()->recovery();
    ASSERT_EQ(rec.records.size(), 2u) << "len " << len;
    EXPECT_EQ(rec.records[0].payload, payloads[0]);
    EXPECT_EQ(rec.records[1].payload, payloads[1]);
    EXPECT_EQ(rec.truncated_bytes, len - two_records) << "len " << len;
    journal.value().reset();  // close before measuring
    EXPECT_EQ(slurp(path).size(), two_records) << "len " << len;
    // Recovery is stable: a second open finds a clean two-record journal.
    auto again = durable::Journal::open(path, "torn_journal");
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again.value()->recovery().records.size(), 2u);
    EXPECT_EQ(again.value()->recovery().truncated_bytes, 0u);
  }
  std::remove(path.c_str());
}

TEST(Journal, AppendContinuesAfterTornTailRecovery) {
  const std::string path = "durable_test_journal_cont.tmp";
  std::remove(path.c_str());
  {
    auto journal = durable::Journal::open(path, "cont_journal");
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal.value()->append("keep me"));
    ASSERT_TRUE(journal.value()->append("torn soon"));
  }
  const std::string intact = slurp(path);
  write_raw(path, intact.substr(0, intact.size() - 3));  // tear the tail
  {
    auto journal = durable::Journal::open(path, "cont_journal");
    ASSERT_TRUE(journal.has_value());
    ASSERT_EQ(journal.value()->recovery().records.size(), 1u);
    EXPECT_EQ(journal.value()->next_seq(), 1u);
    EXPECT_EQ(journal.value()->append("after recovery").value(), 1u);
  }
  auto journal = durable::Journal::open(path, "cont_journal");
  ASSERT_TRUE(journal.has_value());
  ASSERT_EQ(journal.value()->recovery().records.size(), 2u);
  EXPECT_EQ(journal.value()->recovery().records[1].payload, "after recovery");
  std::remove(path.c_str());
}

TEST(Journal, FailedAppendRollsBackAndAckedRecordsSurviveReopen) {
  // The WAL-contract regression: a failed append used to leave its torn
  // frame in the file while the journal stayed usable, so later acknowledged
  // appends landed *after* the tear — and the next open() truncated them all
  // away.  Now the failure rolls the file back, the retry is acknowledged at
  // a clean offset, and reopen recovers every acked record.
  const std::string path = "durable_test_journal_rollback.tmp";
  for (const char* point :
       {durable::kFaultAppendPartial, durable::kFaultAppendSync}) {
    std::remove(path.c_str());
    {
      auto journal = durable::Journal::open(path, "rollback_journal");
      ASSERT_TRUE(journal.has_value()) << journal.error();
      ASSERT_TRUE(journal.value()->append("committed").has_value());
      const std::size_t committed_size = slurp(path).size();

      FaultScope faults(7);
      faults.arm(point, {.fail_first = 1});
      EXPECT_FALSE(journal.value()->append("doomed").has_value()) << point;
      // No torn bytes linger: the file is back at its pre-append size.
      EXPECT_EQ(slurp(path).size(), committed_size) << point;
      // The journal stays usable and the retry takes the failed seq.
      auto seq = journal.value()->append("retried");
      ASSERT_TRUE(seq.has_value()) << point << ": " << seq.error();
      EXPECT_EQ(seq.value(), 1u) << point;
    }
    auto reopened = durable::Journal::open(path, "rollback_journal");
    ASSERT_TRUE(reopened.has_value()) << point << ": " << reopened.error();
    const auto& rec = reopened.value()->recovery();
    EXPECT_EQ(rec.truncated_bytes, 0u) << point;
    ASSERT_EQ(rec.records.size(), 2u) << point;
    EXPECT_EQ(rec.records[0].payload, "committed") << point;
    EXPECT_EQ(rec.records[1].payload, "retried") << point;
  }
  std::remove(path.c_str());
}

TEST(Journal, OpenRemovesStaleTempFile) {
  // A crash between open and rename inside an atomic journal create/reset
  // strands `<path>.tmp`; nothing else owns that name, so open() reclaims it.
  const std::string path = "durable_test_journal_stale.tmp";
  std::remove(path.c_str());
  { ASSERT_TRUE(durable::Journal::open(path, "stale_journal").has_value()); }
  write_raw(path + ".tmp", "stale bytes from a crashed atomic write");
  {
    auto journal = durable::Journal::open(path, "stale_journal");
    ASSERT_TRUE(journal.has_value()) << journal.error();
  }
  EXPECT_FALSE(ts::snapshot_file(path + ".tmp").exists);
  std::remove(path.c_str());
}

TEST(Journal, DamagedHeaderIsAnErrorNotARecovery) {
  const std::string path = "durable_test_journal_hdr.tmp";
  std::remove(path.c_str());
  {
    auto journal = durable::Journal::open(path, "hdr_journal");
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal.value()->append("record"));
  }
  std::string bytes = slurp(path);
  bytes[2] ^= 0x40;  // damage the magic
  write_raw(path, bytes);
  auto journal = durable::Journal::open(path, "hdr_journal");
  ASSERT_FALSE(journal.has_value());
  EXPECT_NE(journal.error().find("magic"), std::string::npos) << journal.error();
  std::remove(path.c_str());
}

TEST(Journal, TagMismatchIsAnError) {
  const std::string path = "durable_test_journal_tag.tmp";
  std::remove(path.c_str());
  ASSERT_TRUE(durable::Journal::open(path, "tag_a").has_value());
  auto journal = durable::Journal::open(path, "tag_b");
  ASSERT_FALSE(journal.has_value());
  EXPECT_NE(journal.error().find("tag"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Journal, PoisonProvenanceFramesRoundTripAndMixWithAnonymous) {
  // Every frame carries its uploader id, 0 for anonymous appends; stamped
  // and anonymous records interleave freely in one journal and recover with
  // their provenance intact.
  const std::string path = "durable_test_journal_prov.tmp";
  std::remove(path.c_str());
  const std::vector<std::pair<std::string, std::uint64_t>> frames = {
      {"stamped a", 11},
      {"anonymous b", 0},
      {"stamped c", ~0ull},
      {"", 42},  // empty payload still carries provenance
  };
  {
    auto journal = durable::Journal::open(path, "prov_journal");
    ASSERT_TRUE(journal.has_value()) << journal.error();
    for (const auto& [payload, uploader] : frames) {
      ASSERT_TRUE(journal.value()->append(payload, uploader).has_value());
    }
  }
  auto reopened = durable::Journal::open(path, "prov_journal");
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  const auto& rec = reopened.value()->recovery();
  EXPECT_EQ(rec.truncated_bytes, 0u);
  ASSERT_EQ(rec.records.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(rec.records[i].payload, frames[i].first) << i;
    EXPECT_EQ(rec.records[i].uploader, frames[i].second) << i;
  }
  // Appending continues across the recovered mix.
  EXPECT_EQ(reopened.value()->append("tail", 7).value(), frames.size());
  std::remove(path.c_str());
}

TEST(Journal, PoisonTornTailAfterProvenanceFrameTruncatesToExactPrefix) {
  // The torn-tail walk of TornTailIsTruncatedToExactRecordPrefix, with the
  // victim frame stamped with an uploader: every truncation inside it recovers
  // the committed prefix — payloads *and* uploader ids — and cuts the file.
  const std::string path = "durable_test_journal_prov_torn.tmp";
  std::remove(path.c_str());
  const std::vector<std::pair<std::string, std::uint64_t>> committed = {
      {"anon first", 0}, {"stamped second", 31}};
  {
    auto journal = durable::Journal::open(path, "prov_torn_journal");
    ASSERT_TRUE(journal.has_value());
    for (const auto& [payload, uploader] : committed) {
      ASSERT_TRUE(journal.value()->append(payload, uploader).has_value());
    }
  }
  const std::size_t two_records = slurp(path).size();
  {
    auto journal = durable::Journal::open(path, "prov_torn_journal");
    ASSERT_TRUE(journal.has_value());
    ASSERT_TRUE(journal.value()->append("doomed third", 77).has_value());
  }
  const std::string intact = slurp(path);
  ASSERT_GT(intact.size(), two_records);
  for (std::size_t len = two_records; len < intact.size(); ++len) {
    write_raw(path, intact.substr(0, len));
    auto journal = durable::Journal::open(path, "prov_torn_journal");
    ASSERT_TRUE(journal.has_value()) << "len " << len << ": " << journal.error();
    const auto& rec = journal.value()->recovery();
    ASSERT_EQ(rec.records.size(), committed.size()) << "len " << len;
    for (std::size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(rec.records[i].payload, committed[i].first) << "len " << len;
      EXPECT_EQ(rec.records[i].uploader, committed[i].second) << "len " << len;
    }
    EXPECT_EQ(rec.truncated_bytes, len - two_records) << "len " << len;
    journal.value().reset();
    EXPECT_EQ(slurp(path).size(), two_records) << "len " << len;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Model formats: durable round trip + validation

TEST(DurableModels, LstmSaveFileIsDurableAndRoundTrips) {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 6;
  cfg.batch_size = 4;
  const nn::LstmClassifier model(cfg, 11);
  const std::string path = "durable_test_lstm.tmp";
  model.save_file(path);

  auto loaded = nn::LstmClassifier::try_load_file(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  std::ostringstream a, b;
  model.save(a);
  loaded.value().save(b);
  EXPECT_EQ(a.str(), b.str());
  std::remove(path.c_str());
}

TEST(DurableModels, LstmRejectsImplausibleArchitecture) {
  std::istringstream is(
      "trajkit_lstm_classifier_v1\n2 999999999 1 0.001 5 16\n");
  auto loaded = nn::LstmClassifier::try_load(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("implausible"), std::string::npos);
}

TEST(DurableModels, LstmRejectsNonFiniteWeights) {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 4;
  const nn::LstmClassifier model(cfg, 1);
  std::ostringstream os;
  model.save(os);
  std::string text = os.str();
  // Replace the final weight token with "nan".
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.pop_back();
  }
  text = text.substr(0, text.find_last_of(" \n") + 1) + "nan\n";
  std::istringstream is(text);
  auto loaded = nn::LstmClassifier::try_load(is);
  // libstdc++ streams refuse to extract "nan" at all, so this trips either
  // the parse failure or the explicit finiteness check — both clean errors.
  ASSERT_FALSE(loaded.has_value());
}

gbt::GbtClassifier small_trained_gbt() {
  gbt::GbtConfig cfg;
  cfg.num_trees = 6;
  cfg.max_depth = 3;
  gbt::GbtClassifier model(cfg);
  Rng rng(9);
  std::vector<std::vector<double>> x;
  std::vector<int> y;
  for (int i = 0; i < 60; ++i) {
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-1.0, 1.0);
    x.push_back({a, b});
    y.push_back(a + 0.3 * b > 0.0 ? 1 : 0);
  }
  model.train(x, y);
  return model;
}

nn::QuantizedLstm small_quant_lstm() {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 5;
  const nn::LstmClassifier model(cfg, 2);
  Rng rng(91);
  std::vector<FeatureSequence> calibration;
  for (int i = 0; i < 4; ++i) {
    FeatureSequence x;
    x.dim = 2;
    x.steps = 6;
    for (std::size_t k = 0; k < x.steps * x.dim; ++k) {
      x.values.push_back(rng.uniform(-1.0, 1.0));
    }
    calibration.push_back(std::move(x));
  }
  return nn::QuantizedLstm::quantize(model, calibration, nn::QuantMode::kInt8);
}

TEST(DurableModels, GbtSaveFileIsDurableAndRoundTrips) {
  const auto model = small_trained_gbt();
  const std::string path = "durable_test_gbt.tmp";
  model.save_file(path);
  auto loaded = gbt::GbtClassifier::try_load_file(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  std::ostringstream a, b;
  model.save(a);
  loaded.value().save(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(model.predict_proba({0.4, -0.2}), loaded.value().predict_proba({0.4, -0.2}));
  std::remove(path.c_str());
}

TEST(DurableModels, GbtRejectsCyclicTreeTopology) {
  // Node 0 claims itself as its left child: without the monotone-child check
  // this is an infinite predict() loop.
  std::istringstream is(
      "trajkit_gbt_v1\n"
      "1 3 0.1 32 1 0 1 1 42\n"
      "0 1\n"
      "3\n"
      "0 0.5 0 0 2 0.1 0.2\n"
      "-1 0 0 -1 -1 0.3 0\n"
      "-1 0 0 -1 -1 0.4 0\n");
  auto loaded = gbt::GbtClassifier::try_load(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("child"), std::string::npos) << loaded.error();
}

TEST(DurableModels, GbtRejectsOutOfRangeChildIndex) {
  std::istringstream is(
      "trajkit_gbt_v1\n"
      "1 3 0.1 32 1 0 1 1 42\n"
      "0 1\n"
      "1\n"
      "0 0.5 0 7 8 0.1 0.2\n");
  auto loaded = gbt::GbtClassifier::try_load(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("child"), std::string::npos) << loaded.error();
}

TEST(DurableModels, DetectorSaveFileIsDurableAndServesIdentically) {
  ts::LinearFieldWorld w;
  const auto probes = w.probe_mix(4);
  const std::string path = "durable_test_detector.tmp";
  w.detector().save_file(path);
  auto loaded = wifi::RssiDetector::try_load_file(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  for (const auto& probe : probes) {
    EXPECT_EQ(w.detector().analyze(probe).canonical_string(),
              loaded.value()->analyze(probe).canonical_string());
  }
  std::remove(path.c_str());
}

TEST(DurableModels, DetectorRejectsOversizedScanHeader) {
  ts::LinearFieldWorld w;
  std::ostringstream os;
  w.detector().save(os);
  std::string text = os.str();
  // Rewrite the first reference point's scan length to an absurd value.
  std::istringstream scan_for(text);
  std::string line;
  std::getline(scan_for, line);  // magic
  std::getline(scan_for, line);  // config
  std::getline(scan_for, line);  // trained points
  std::getline(scan_for, line);  // ref count
  const auto point_start = static_cast<std::size_t>(scan_for.tellg());
  std::getline(scan_for, line);  // first reference point
  std::istringstream fields(line);
  std::string east, north, traj;
  fields >> east >> north >> traj;
  const std::string prefix = east + ' ' + north + ' ' + traj + ' ';
  text.replace(point_start, line.size(), prefix + "999999");
  std::istringstream is(text);
  auto loaded = wifi::RssiDetector::try_load(is);
  ASSERT_FALSE(loaded.has_value());
}

// ---------------------------------------------------------------------------
// Version skew: each container loads exactly the version it writes

/// Re-frame the durable container at `path` — same tag, same records, read
/// back under the version stamped in its header — as `version` (0: one past
/// the stamped version); `*skewed` receives the version written.
void reframe_durable(const std::string& path, std::uint32_t version,
                     std::uint32_t* skewed) {
  const std::string bytes = slurp(path);
  // magic(8) + u32 tag_len + tag + u32 version.
  std::uint32_t tag_len = 0;
  ASSERT_GE(bytes.size(), 12u) << path;
  std::memcpy(&tag_len, bytes.data() + 8, sizeof tag_len);
  ASSERT_GE(bytes.size(), 16u + tag_len) << path;
  const std::string tag = bytes.substr(12, tag_len);
  std::uint32_t written = 0;
  std::memcpy(&written, bytes.data() + 12 + tag_len, sizeof written);
  if (version == 0) version = written + 1;
  ASSERT_NE(written, version) << path;
  *skewed = version;
  const auto records = durable::parse_durable(bytes, tag, written);
  ASSERT_TRUE(records.has_value()) << path << ": " << records.error();
  DurableWriter writer(tag, version);
  for (const auto& record : records.value()) writer.add_record(record);
  write_raw(path, writer.bytes());
}

template <typename T>
std::string load_error(const Expected<T, std::string>& loaded) {
  return loaded.has_value() ? std::string() : loaded.error();
}

TEST(DurableVersionSkew, EveryContainerRefusesAnotherVersion) {
  const std::string store_dir = "durable_test_skew_store";
  const std::string artifact_dir = "durable_test_skew_artifacts";
  remove_tree(store_dir);
  {
    auto store = wifi::CrowdStore::open(store_dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(store.value()
                      ->append({{double(i), 1.0}, {{5, -50 - i}}, 1u}, 7 + i)
                      .has_value());
    }
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  std::uint64_t artifact_epoch = 0;
  {
    auto artifacts = durable::ArtifactStore::open_dir(artifact_dir);
    ASSERT_TRUE(artifacts.has_value()) << artifacts.error();
    auto published = artifacts.value()->publish_payload("motion", "payload bytes");
    ASSERT_TRUE(published.has_value()) << published.error();
    artifact_epoch = published.value();
  }
  nn::LstmClassifierConfig lstm_cfg;
  lstm_cfg.hidden_dim = 4;
  const nn::LstmClassifier lstm(lstm_cfg, 5);
  const auto quant = small_quant_lstm();
  const auto gbt_model = small_trained_gbt();
  ts::LinearFieldWorld w;
  const std::string lstm_path = "durable_test_skew_lstm.tmp";
  const std::string quant_path = "durable_test_skew_quant.tmp";
  const std::string gbt_path = "durable_test_skew_gbt.tmp";
  const std::string detector_path = "durable_test_skew_detector.tmp";
  lstm.save_file(lstm_path);
  quant.save_file(quant_path);
  gbt_model.save_file(gbt_path);
  w.detector().save_file(detector_path);

  struct SkewCase {
    const char* label;
    std::string path;               ///< the committed container
    std::uint32_t skewed_version;   ///< 0: one past the written version
    std::function<std::string()> load;  ///< "" on success, else the error
    /// Model files only: the bare stream payload, which must not load
    /// from a path either.
    std::function<void(std::ostream&)> save_bare;
  };
  const auto open_artifacts = [&] {
    return durable::ArtifactStore::open_dir(artifact_dir);
  };
  const std::vector<SkewCase> cases = {
      {"lstm", lstm_path, 0,
       [&] { return load_error(nn::LstmClassifier::try_load_file(lstm_path)); },
       [&](std::ostream& os) { lstm.save(os); }},
      {"quant lstm", quant_path, 0,
       [&] { return load_error(nn::QuantizedLstm::try_load_file(quant_path)); },
       [&](std::ostream& os) { quant.save(os); }},
      {"gbt", gbt_path, 0,
       [&] { return load_error(gbt::GbtClassifier::try_load_file(gbt_path)); },
       [&](std::ostream& os) { gbt_model.save(os); }},
      {"detector", detector_path, 0,
       [&] { return load_error(wifi::RssiDetector::try_load_file(detector_path)); },
       [&](std::ostream& os) { w.detector().save(os); }},
      // v3 is the newest retired snapshot layout: the nearest miss.
      {"crowd snapshot", wifi::CrowdStore::snapshot_path(store_dir), 3,
       [&] { return load_error(wifi::CrowdStore::open(store_dir)); },
       nullptr},
      {"artifact", artifact_dir + "/motion." + std::to_string(artifact_epoch), 0,
       [&] {
         auto store = open_artifacts();
         if (!store) return store.error();
         return load_error(store.value()->read_payload("motion", artifact_epoch));
       },
       nullptr},
      {"artifact CURRENT", durable::ArtifactStore::current_path(artifact_dir), 0,
       [&] { return load_error(open_artifacts()); }, nullptr},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    const std::string intact = slurp(c.path);
    ASSERT_EQ(c.load(), "");
    std::uint32_t skewed = 0;
    reframe_durable(c.path, c.skewed_version, &skewed);
    std::string error = c.load();
    EXPECT_NE(error.find("unsupported version " + std::to_string(skewed)),
              std::string::npos)
        << error;
    if (c.save_bare) {
      {
        std::ofstream os(c.path);
        c.save_bare(os);
      }
      error = c.load();
      EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    }
    write_raw(c.path, intact);
    EXPECT_EQ(c.load(), "");
  }

  for (const auto& c : cases) std::remove(c.path.c_str());
  remove_tree(store_dir);
  ::rmdir(artifact_dir.c_str());
}

TEST(DurableVersionSkew, OldJournalIsRefusedNeverTruncated) {
  // A provenance-free journal as the previous format wrote it: a "TKJRNL1"
  // header and one "TKJR" frame (u64 seq, u32 len, u32 crc32(payload)).
  const std::string dir = "durable_test_skew_journal";
  remove_tree(dir);
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  const auto put = [](std::string& out, auto v) {
    char buf[sizeof v];
    std::memcpy(buf, &v, sizeof v);
    out.append(buf, sizeof v);
  };
  const std::string tag = wifi::CrowdStore::journal_tag();
  const std::string payload = wifi::CrowdStore::encode_point({{1.0, 2.0}, {{5, -60}}, 1u});
  std::string bytes = "TKJRNL1\n";
  put(bytes, static_cast<std::uint32_t>(tag.size()));
  bytes += tag;
  put(bytes, std::uint64_t{0});
  bytes += "TKJR";
  put(bytes, std::uint64_t{0});
  put(bytes, static_cast<std::uint32_t>(payload.size()));
  put(bytes, durable::crc32(payload));
  bytes += payload;
  const std::string path = wifi::CrowdStore::journal_path(dir);
  write_raw(path, bytes);

  const auto expect_refused = [](const std::string& error) {
    EXPECT_NE(error.find("unsupported version 1 (expected 2)"), std::string::npos)
        << error;
  };
  expect_refused(load_error(durable::Journal::open(path, tag)));
  expect_refused(load_error(durable::Journal::read_records(path, tag)));
  expect_refused(load_error(wifi::CrowdStore::open(dir)));
  EXPECT_EQ(slurp(path), bytes);
  remove_tree(dir);
}

// ---------------------------------------------------------------------------
// Deterministic corruption fuzz over every durable-framed artifact

void fuzz_reject_all(const std::string& label, const std::string& intact,
                     const std::function<bool(const std::string&)>& accepts,
                     std::uint64_t seed, int trials) {
  ASSERT_TRUE(accepts(intact)) << label << ": intact bytes must load";
  for (int t = 0; t < trials; ++t) {
    Rng rng = Rng::substream(seed, static_cast<std::uint64_t>(t));
    std::string mutated = intact;
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    const auto mask = static_cast<unsigned char>(rng.uniform_int(1, 255));
    mutated[offset] =
        static_cast<char>(static_cast<unsigned char>(mutated[offset]) ^ mask);
    EXPECT_FALSE(accepts(mutated))
        << label << ": flip 0x" << std::hex << int(mask) << std::dec
        << " at byte " << offset << " (trial " << t << ") accepted";

    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    EXPECT_FALSE(accepts(intact.substr(0, cut)))
        << label << ": truncation to " << cut << " bytes (trial " << t
        << ") accepted";
  }
}

TEST(CorruptionFuzz, LstmModelFileRejectsEveryMutation) {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 5;
  const nn::LstmClassifier model(cfg, 2);
  const std::string path = "durable_test_fuzz_lstm.tmp";
  model.save_file(path);
  const std::string intact = slurp(path);
  fuzz_reject_all("lstm", intact,
                  [&](const std::string& bytes) {
                    write_raw(path, bytes);
                    return nn::LstmClassifier::try_load_file(path).has_value();
                  },
                  0xF17A, 48);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, QuantLstmFileRejectsEveryMutation) {
  // The quantized serving image ("quant_lstm" container): packed int8
  // weights, per-gate scales, activation scales.  Any flipped or missing
  // byte must fail the load — a silently-perturbed quant model would serve
  // wrong verdicts while claiming to have passed its gate.
  const auto quant = small_quant_lstm();
  const std::string path = "durable_test_fuzz_quant.tmp";
  quant.save_file(path);
  const std::string intact = slurp(path);
  fuzz_reject_all("quant lstm", intact,
                  [&](const std::string& bytes) {
                    write_raw(path, bytes);
                    return nn::QuantizedLstm::try_load_file(path).has_value();
                  },
                  0x9A47, 48);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, GbtModelFileRejectsEveryMutation) {
  const auto model = small_trained_gbt();
  const std::string path = "durable_test_fuzz_gbt.tmp";
  model.save_file(path);
  const std::string intact = slurp(path);
  fuzz_reject_all("gbt", intact,
                  [&](const std::string& bytes) {
                    write_raw(path, bytes);
                    return gbt::GbtClassifier::try_load_file(path).has_value();
                  },
                  0xF17B, 48);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, DetectorModelFileRejectsEveryMutation) {
  ts::LinearFieldWorld w;
  const std::string path = "durable_test_fuzz_detector.tmp";
  w.detector().save_file(path);
  const std::string intact = slurp(path);
  fuzz_reject_all("detector", intact,
                  [&](const std::string& bytes) {
                    write_raw(path, bytes);
                    return wifi::RssiDetector::try_load_file(path).has_value();
                  },
                  0xF17C, 32);
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, CrowdSnapshotRejectsEveryMutation) {
  const std::string dir = "durable_test_fuzz_store";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.value()
                      ->append({{double(i), double(i) / 2}, {{5, -50 - i}}, 1u})
                      .has_value());
    }
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  const std::string snap = wifi::CrowdStore::snapshot_path(dir);
  const std::string intact = slurp(snap);
  fuzz_reject_all("crowd snapshot", intact,
                  [&](const std::string& bytes) {
                    write_raw(snap, bytes);
                    return wifi::CrowdStore::open(dir).has_value();
                  },
                  0xF17D, 48);
  remove_tree(dir);
}

TEST(CorruptionFuzz, JournalMutationsRecoverAPrefixOrFailCleanly) {
  const std::string path = "durable_test_fuzz_journal.tmp";
  std::remove(path.c_str());
  std::vector<std::string> payloads;
  {
    auto journal = durable::Journal::open(path, "fuzz_journal");
    ASSERT_TRUE(journal.has_value());
    for (int i = 0; i < 6; ++i) {
      payloads.push_back("payload " + std::to_string(i));
      ASSERT_TRUE(journal.value()->append(payloads.back()).has_value());
    }
  }
  const std::string intact = slurp(path);
  for (int t = 0; t < 64; ++t) {
    Rng rng = Rng::substream(0xF17E, static_cast<std::uint64_t>(t));
    std::string mutated = intact;
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    const auto mask = static_cast<unsigned char>(rng.uniform_int(1, 255));
    mutated[offset] =
        static_cast<char>(static_cast<unsigned char>(mutated[offset]) ^ mask);
    write_raw(path, mutated);
    auto journal = durable::Journal::open(path, "fuzz_journal");
    if (!journal.has_value()) continue;  // header damage: clean error
    // Record-region damage: recovery must be an exact payload prefix.
    const auto& records = journal.value()->recovery().records;
    ASSERT_LE(records.size(), payloads.size()) << "trial " << t;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].payload, payloads[i])
          << "trial " << t << ": flip 0x" << std::hex << int(mask) << std::dec
          << " at byte " << offset << " produced a non-prefix recovery";
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, PoisonProvenanceJournalRecoversAPairPrefixOrFailsCleanly) {
  // The journal fuzz contract extended to uploader stamps: any single-byte
  // flip in a provenance-stamped journal either fails the open cleanly
  // (header damage) or recovers an exact prefix of the committed (payload, uploader)
  // pairs — a flipped uploader field must take its whole frame (and the
  // tail) with it, never survive as a different identity.
  const std::string path = "durable_test_fuzz_journal_prov.tmp";
  std::remove(path.c_str());
  std::vector<std::pair<std::string, std::uint64_t>> committed;
  {
    auto journal = durable::Journal::open(path, "fuzz_prov_journal");
    ASSERT_TRUE(journal.has_value());
    for (int i = 0; i < 6; ++i) {
      committed.emplace_back("payload " + std::to_string(i),
                             i % 2 ? 0 : 1000 + static_cast<std::uint64_t>(i));
      ASSERT_TRUE(journal.value()
                      ->append(committed.back().first, committed.back().second)
                      .has_value());
    }
  }
  const std::string intact = slurp(path);
  for (int t = 0; t < 64; ++t) {
    Rng rng = Rng::substream(0xF17F, static_cast<std::uint64_t>(t));
    std::string mutated = intact;
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    const auto mask = static_cast<unsigned char>(rng.uniform_int(1, 255));
    mutated[offset] =
        static_cast<char>(static_cast<unsigned char>(mutated[offset]) ^ mask);
    write_raw(path, mutated);
    auto journal = durable::Journal::open(path, "fuzz_prov_journal");
    if (!journal.has_value()) continue;  // header damage: clean error
    const auto& records = journal.value()->recovery().records;
    ASSERT_LE(records.size(), committed.size()) << "trial " << t;
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].payload, committed[i].first)
          << "trial " << t << ": flip 0x" << std::hex << int(mask) << std::dec
          << " at byte " << offset << " produced a non-prefix recovery";
      EXPECT_EQ(records[i].uploader, committed[i].second)
          << "trial " << t << ": flip 0x" << std::hex << int(mask) << std::dec
          << " at byte " << offset << " forged a provenance stamp";
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionFuzz, PoisonedCrowdSnapshotRejectsEveryMutation) {
  // The snapshot carries three trailing records after its points (cell stats,
  // provenance grid, reputation book).  Re-run the snapshot corruption fuzz
  // over a store whose snapshot actually exercises them: provenance-stamped
  // points and a quarantined uploader.
  const std::string dir = "durable_test_fuzz_poison_store";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store.value()
                      ->append({{double(i), double(i) / 2}, {{5, -50 - i}}, 1u},
                               static_cast<wifi::UploaderId>(1 + i % 3))
                      .has_value());
    }
    ASSERT_TRUE(store.value()->append_quarantine_marker(2).has_value());
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  const std::string snap = wifi::CrowdStore::snapshot_path(dir);
  const std::string intact = slurp(snap);
  fuzz_reject_all("poisoned crowd snapshot", intact,
                  [&](const std::string& bytes) {
                    write_raw(snap, bytes);
                    return wifi::CrowdStore::open(dir).has_value();
                  },
                  0xF180, 48);
  remove_tree(dir);
}

// ---------------------------------------------------------------------------
// Trajectory CSV hardening

TrajectoryList one_walk() {
  std::vector<TrajPoint> pts;
  for (int i = 0; i < 5; ++i) {
    pts.push_back({{40.0 + i * 1e-5, -75.0 + i * 1e-5}, double(i)});
  }
  TrajectoryList out;
  out.emplace_back(std::move(pts), Mode::kWalking);
  return out;
}

TEST(TrajCsv, AtomicWriteRoundTrips) {
  const std::string path = "durable_test_traj.csv.tmp";
  const auto trajs = one_walk();
  write_csv_file(path, trajs);
  auto loaded = try_read_csv_file(path);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].points().size(), 5u);
  std::remove(path.c_str());
}

TEST(TrajCsv, RejectsNonFiniteCoordinates) {
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,40.0,-75.0,0\n"
      "0,walking,nan,-75.0,1\n");
  auto loaded = try_read_csv(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("non-finite"), std::string::npos) << loaded.error();
}

TEST(TrajCsv, RejectsOutOfRangeCoordinates) {
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,91.0,-75.0,0\n");
  auto loaded = try_read_csv(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("out of range"), std::string::npos);
}

TEST(TrajCsv, RejectsNonMonotoneTimestamps) {
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,40.0,-75.0,0\n"
      "0,walking,40.1,-75.0,2\n"
      "0,walking,40.2,-75.0,1\n");
  auto loaded = try_read_csv(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("non-increasing"), std::string::npos);
}

TEST(TrajCsv, RejectsDuplicateTimestamps) {
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,40.0,-75.0,1\n"
      "0,walking,40.1,-75.0,1\n");
  auto loaded = try_read_csv(is);
  ASSERT_FALSE(loaded.has_value());
}

TEST(TrajCsv, RejectsHugeNumericCells) {
  // std::stod would throw out_of_range here; historically uncaught.
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,40.0,-75.0,1e100000\n");
  auto loaded = try_read_csv(is);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("non-numeric"), std::string::npos);
}

TEST(TrajCsv, SeparateTrajectoriesMayRestartTime) {
  std::istringstream is(
      "traj_id,mode,lat,lon,time_s\n"
      "0,walking,40.0,-75.0,5\n"
      "0,walking,40.1,-75.0,6\n"
      "1,cycling,41.0,-75.0,0\n"
      "1,cycling,41.1,-75.0,1\n");
  auto loaded = try_read_csv(is);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_EQ(loaded.value().size(), 2u);
}

// ---------------------------------------------------------------------------
// Upload / scan validation

TEST(Validate, AcceptsPlausibleScan) {
  EXPECT_TRUE(wifi::validate_scan({{1, -45}, {2, -85}}).has_value());
}

TEST(Validate, RejectsAbsurdRssi) {
  EXPECT_FALSE(wifi::validate_scan({{1, -500}}).has_value());
  EXPECT_FALSE(wifi::validate_scan({{1, 99}}).has_value());
  EXPECT_TRUE(wifi::validate_scan({{1, wifi::kMinValidRssiDbm}}).has_value());
  EXPECT_TRUE(wifi::validate_scan({{1, wifi::kMaxValidRssiDbm}}).has_value());
}

TEST(Validate, RejectsOversizedApList) {
  wifi::WifiScan huge;
  for (std::size_t i = 0; i <= wifi::kMaxScanAps; ++i) {
    huge.push_back({i, -60});
  }
  EXPECT_FALSE(wifi::validate_scan(huge).has_value());
}

TEST(Validate, RejectsNonFiniteUploadPositions) {
  wifi::ScannedUpload upload;
  upload.positions = {{0.0, 0.0}, {std::numeric_limits<double>::quiet_NaN(), 1.0}};
  upload.scans = {{{1, -50}}, {{1, -51}}};
  EXPECT_FALSE(wifi::validate_upload(upload).has_value());
  upload.positions[1] = {std::numeric_limits<double>::infinity(), 1.0};
  EXPECT_FALSE(wifi::validate_upload(upload).has_value());
  upload.positions[1] = {2.0, 1.0};
  EXPECT_TRUE(wifi::validate_upload(upload).has_value());
}

TEST(Validate, RejectsMisalignedAndEmptyUploads) {
  wifi::ScannedUpload upload;
  EXPECT_FALSE(wifi::validate_upload(upload).has_value());  // empty
  upload.positions = {{0.0, 0.0}};
  EXPECT_FALSE(wifi::validate_upload(upload).has_value());  // no scans
  upload.scans = {{{1, -50}}};
  EXPECT_TRUE(wifi::validate_upload(upload).has_value());
}

// ---------------------------------------------------------------------------
// Crowd store

wifi::ReferencePoint sample_point(int i) {
  return {{double(i), 0.5 * i}, {{std::uint64_t(i % 3 + 1), -40 - i}}, 7u};
}

TEST(CrowdStore, AppendsPersistAcrossReopen) {
  const std::string dir = "durable_test_store_reopen";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (int i = 0; i < 5; ++i) {
      auto seq = store.value()->append(sample_point(i));
      ASSERT_TRUE(seq.has_value()) << seq.error();
      EXPECT_EQ(seq.value(), std::uint64_t(i));
    }
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  ASSERT_EQ(store.value()->points().size(), 5u);
  EXPECT_EQ(store.value()->open_stats().replayed_records, 5u);
  EXPECT_EQ(store.value()->open_stats().snapshot_points, 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(store.value()->points()[i].pos.east, double(i));
    EXPECT_EQ(store.value()->points()[i].scan, sample_point(i).scan);
  }
  remove_tree(dir);
}

TEST(CrowdStore, CompactionFoldsJournalIntoSnapshot) {
  const std::string dir = "durable_test_store_compact";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(store.value()->append(sample_point(i)));
    ASSERT_TRUE(store.value()->compact().has_value());
    EXPECT_EQ(store.value()->journaled_since_snapshot(), 0u);
    // Post-compaction appends land in the (fresh) journal.
    ASSERT_TRUE(store.value()->append(sample_point(4)));
    EXPECT_EQ(store.value()->next_seq(), 5u);
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().snapshot_points, 4u);
  EXPECT_EQ(store.value()->open_stats().replayed_records, 1u);
  ASSERT_EQ(store.value()->points().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(store.value()->points()[i].pos.east, double(i));
  }
  remove_tree(dir);
}

TEST(CrowdStore, CompactionBeyond16BitPointCountSurvivesReopen) {
  // Regression for the bricked-store bug: with >65,535 points the snapshot
  // used to commit fine (and reset the journal, discarding the WAL copy)
  // but tripped the old parse-side record cap on every reopen.
  const std::string dir = "durable_test_store_big";
  remove_tree(dir);
  constexpr std::size_t kPoints = 66'000;  // past the old 65,536 cap
  {
    auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (std::size_t i = 0; i < kPoints; ++i) {
      const wifi::ReferencePoint p{
          {double(i % 1000), double(i / 1000)}, {{1, -50}}, 3u};
      ASSERT_TRUE(store.value()->append(p).has_value()) << "point " << i;
    }
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().snapshot_points, kPoints);
  ASSERT_EQ(store.value()->points().size(), kPoints);
  EXPECT_EQ(store.value()->points().back().pos.east, double((kPoints - 1) % 1000));
  EXPECT_EQ(store.value()->points().back().pos.north, double((kPoints - 1) / 1000));
  remove_tree(dir);
}

TEST(CrowdStore, OpenRemovesStaleSnapshotTemp) {
  const std::string dir = "durable_test_store_stale";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(store.value()->append(sample_point(0)).has_value());
  }
  const std::string stale = wifi::CrowdStore::snapshot_path(dir) + ".tmp";
  write_raw(stale, "stale bytes from a crashed snapshot commit");
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
  }
  EXPECT_FALSE(ts::snapshot_file(stale).exists);
  remove_tree(dir);
}

TEST(CrowdStore, FailureBetweenCompactStagesLosesAndDuplicatesNothing) {
  const std::string dir = "durable_test_store_between";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(store.value()->append(sample_point(i)));
    FaultScope faults(5);
    faults.arm(wifi::kFaultStoreCompact, {.fail_first = 1});
    // Snapshot commits, then the injected fault stops compact() before the
    // journal reset — exactly the state a crash there would leave.
    EXPECT_FALSE(store.value()->compact().has_value());
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().snapshot_points, 3u);
  EXPECT_EQ(store.value()->open_stats().skipped_stale, 3u)
      << "journal records covered by the snapshot must be skipped, not re-applied";
  EXPECT_EQ(store.value()->open_stats().replayed_records, 0u);
  ASSERT_EQ(store.value()->points().size(), 3u);
  // The interrupted compaction is simply re-runnable.
  ASSERT_TRUE(store.value()->compact().has_value());
  EXPECT_EQ(store.value()->next_seq(), 3u);
  ASSERT_TRUE(store.value()->append(sample_point(3)));
  EXPECT_EQ(store.value()->points().size(), 4u);
  remove_tree(dir);
}

TEST(CrowdStore, RejectsInvalidPoints) {
  const std::string dir = "durable_test_store_invalid";
  remove_tree(dir);
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value());
  wifi::ReferencePoint bad = sample_point(0);
  bad.scan[0].rssi_dbm = -999;
  EXPECT_FALSE(store.value()->append(bad).has_value());
  bad = sample_point(0);
  bad.pos.east = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(store.value()->append(bad).has_value());
  EXPECT_TRUE(store.value()->points().empty());
  EXPECT_EQ(store.value()->next_seq(), 0u);
  remove_tree(dir);
}

TEST(CrowdStore, PointCodecRoundTripsExactDoubles) {
  wifi::ReferencePoint p{{1.0 / 3.0, -2.0e-17}, {{123456789012345ull, -77}}, 42u};
  const auto decoded = wifi::CrowdStore::decode_point(wifi::CrowdStore::encode_point(p));
  ASSERT_TRUE(decoded.has_value()) << decoded.error();
  EXPECT_EQ(decoded.value().pos.east, p.pos.east);
  EXPECT_EQ(decoded.value().pos.north, p.pos.north);
  EXPECT_EQ(decoded.value().traj_id, p.traj_id);
  EXPECT_EQ(decoded.value().scan, p.scan);
}

}  // namespace
}  // namespace trajkit
