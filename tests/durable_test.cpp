// Durability layer tests: CRC-32, atomic writes, the framed container, the
// write-ahead journal, the crowd store, validated loaders and a deterministic
// corruption fuzz over every persisted format.
//
// The corruption contract under test: *any* single-byte corruption or
// truncation of a committed artifact is a clean Expected error (or, for the
// journal's append region, a deterministic torn-tail truncation back to an
// exact record prefix) — never garbage accepted, never UB.  The GBT text has
// no container of its own (it rides inside the detector image), so its leg
// fuzzes the bare text: refused, or loaded and re-saved stably.  The fuzz
// offsets come from counter-based RNG substreams, so a failure names a
// reproducible byte.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable/artifact_store.hpp"
#include "common/durable/bytes.hpp"
#include "common/durable/crc32.hpp"
#include "common/durable/durable_file.hpp"
#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "common/rng.hpp"
#include "gbt/booster.hpp"
#include "nn/classifier.hpp"
#include "support/crash.hpp"
#include "support/fixtures.hpp"
#include "traj/io.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/detector.hpp"
#include "wifi/validate.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;
using Kind = wifi::ControlFrame::Kind;
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

/// CRC-32 one bit at a time, straight from the polynomial: the reference the
/// table-driven implementation must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size,
                            std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..64 at each of the 8 alignments cover every split of the
  // 8-byte steps and the byte-wise tail.
  Rng rng(0xC3C);
  std::vector<unsigned char> buf(64 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  for (std::size_t align = 0; align < 8; ++align) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(durable::crc32(buf.data() + align, len),
                crc32_bitwise(buf.data() + align, len))
          << "alignment " << align << ", length " << len;
    }
  }
  // One random 1 MB buffer, whole and chained at an odd split.
  std::vector<unsigned char> big(std::size_t{1} << 20);
  for (auto& b : big) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  const std::uint32_t expect = crc32_bitwise(big.data(), big.size());
  EXPECT_EQ(durable::crc32(big.data(), big.size()), expect);
  const std::uint32_t head = durable::crc32(big.data(), 333'333);
  EXPECT_EQ(durable::crc32(big.data() + 333'333, big.size() - 333'333, head), expect);
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
  // (then the crowd snapshot, one record per point) could legally commit
  // far more — the file wrote fine and could never be read back.
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
  EXPECT_EQ(model.image(), loaded.value().image());
  std::remove(path.c_str());
}

/// Image offsets (nn/serialize.cpp): an 8-byte magic and six 8-byte config
/// fields, then each matrix's u64 rows and cols before its values.
constexpr std::size_t kLstmConfigEnd = 8 + 6 * 8;

template <typename T>
void patch_pod(std::string& bytes, std::size_t at, const T& v) {
  ASSERT_LE(at + sizeof v, bytes.size());
  std::memcpy(bytes.data() + at, &v, sizeof v);
}

nn::LstmClassifier small_lstm(std::size_t layers) {
  nn::LstmClassifierConfig cfg;
  cfg.hidden_dim = 3;
  cfg.num_layers = layers;
  cfg.batch_size = 4;
  return nn::LstmClassifier(cfg, 17);
}

TEST(DurableModels, LstmImageRoundTripsByteForByte) {
  for (const std::size_t layers : {1u, 2u}) {
    const std::string bytes = small_lstm(layers).image();
    auto loaded = nn::LstmClassifier::decode(bytes);
    ASSERT_TRUE(loaded.has_value()) << loaded.error();
    EXPECT_EQ(loaded.value().image(), bytes) << layers << " layers";
  }
}

TEST(DurableModels, LstmImageRefusesEveryTruncation) {
  const std::string bytes = small_lstm(2).image();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto loaded = nn::LstmClassifier::decode(std::string_view(bytes).substr(0, len));
    ASSERT_FALSE(loaded.has_value()) << "prefix of " << len << " bytes loaded";
    EXPECT_EQ(loaded.error().rfind("model load: ", 0), 0u) << loaded.error();
    if (len >= 8) {  // past the magic
      EXPECT_NE(loaded.error().find("truncated"), std::string::npos)
          << len << ": " << loaded.error();
    }
  }
}

TEST(DurableModels, LstmImageRefusesShapeTheConfigDoesNotImply) {
  const std::string intact = small_lstm(2).image();
  // Layer 0's weights are 12 x 5 (4H x (input + H)); claim 13 rows, then
  // 6 columns.
  for (const std::size_t at : {kLstmConfigEnd, kLstmConfigEnd + 8}) {
    std::string bytes = intact;
    std::uint64_t dim = 0;
    std::memcpy(&dim, bytes.data() + at, sizeof dim);
    patch_pod<std::uint64_t>(bytes, at, dim + 1);
    auto loaded = nn::LstmClassifier::decode(bytes);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_NE(loaded.error().find("shape mismatch in layer 0 weights"), std::string::npos)
        << loaded.error();
  }
  // The head bias, the last header: 1 x 1 claimed as 1 x 2.
  std::string bytes = intact;
  patch_pod<std::uint64_t>(bytes, bytes.size() - 16, 2);
  auto loaded = nn::LstmClassifier::decode(bytes);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("shape mismatch in head bias"), std::string::npos)
      << loaded.error();
}

TEST(DurableModels, LstmImageRefusesTrailingByte) {
  const std::string bytes = small_lstm(1).image() + '\0';
  auto loaded = nn::LstmClassifier::decode(bytes);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("1 trailing bytes"), std::string::npos) << loaded.error();
}

TEST(DurableModels, LstmRejectsImplausibleArchitecture) {
  const std::string magic = small_lstm(1).image().substr(0, 8);
  const auto header = [&](std::uint64_t input, std::uint64_t hidden, std::uint64_t layers,
                          double lr, double clip, std::uint64_t batch) {
    std::string out = magic;
    for (const std::uint64_t v : {input, hidden, layers}) durable::append_u64(out, v);
    durable::append_pod(out, lr);
    durable::append_pod(out, clip);
    durable::append_u64(out, batch);
    return out;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::string& bytes :
       {header(2, 999999999, 1, 0.001, 5, 16), header(0, 8, 1, 0.001, 5, 16),
        header(2, 8, 0, 0.001, 5, 16), header(2, 8, 1000, 0.001, 5, 16),
        header(2, 8, 1, 0.001, 5, 0), header(2, 8, 1, nan, 5, 16)}) {
    auto loaded = nn::LstmClassifier::decode(bytes);
    ASSERT_FALSE(loaded.has_value());
    EXPECT_NE(loaded.error().find("implausible"), std::string::npos) << loaded.error();
  }
}

TEST(DurableModels, LstmRejectsNonFiniteWeights) {
  const std::string intact = small_lstm(2).image();
  // The first weight of layer 0 and the head bias, the last value.
  for (const std::size_t at : {kLstmConfigEnd + 16, intact.size() - 8}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      std::string bytes = intact;
      patch_pod(bytes, at, bad);
      auto loaded = nn::LstmClassifier::decode(bytes);
      ASSERT_FALSE(loaded.has_value()) << "offset " << at;
      EXPECT_NE(loaded.error().find("non-finite weight in"), std::string::npos)
          << loaded.error();
    }
  }
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

// ---------------------------------------------------------------------------
// Detector model image (DESIGN.md, "Detector model image")

constexpr std::uint32_t kDetectorVersion = 2;
constexpr const char* kDetectorTag = "rssi_detector";

/// A detector model image built field by field from the documented layout,
/// independently of RssiDetector::save, so a test can hand-build what the
/// writer never produces.  `points` overrides the point count in the index
/// header (default: positions.size()).  The default is a top_k = 1 model
/// for 2-point uploads (Eq. 8 width 4) over one reference point.
struct DetectorImage {
  /// (AP id << 8) | (RSSI + 120).
  static std::uint32_t key(std::uint32_t ap, int rssi_dbm) {
    return ap << 8 | static_cast<std::uint32_t>(rssi_dbm + 120);
  }

  /// A one-split GBT whose root reads feature `split_feature`.
  static std::string stump_on(int split_feature) {
    return "trajkit_gbt_v1\n"
           "1 4 0.1 32 1 0 1 1 42\n"
           "0 1\n"
           "3\n" +
           std::to_string(split_feature) +
           " 0.5 0 1 2 0 1\n"
           "-1 0 0 -1 -1 0.25 0\n"
           "-1 0 0 -1 -1 -0.25 0\n";
  }

  double reference_radius_m = 2.5;
  std::uint64_t top_k = 1;
  std::uint8_t use_theta1 = 1;
  std::uint8_t use_theta2 = 1;
  double counting_radius_m = 3.0;
  std::int32_t rssi_tolerance_db = 0;
  double theta2_base = 0.9;
  double threshold = 0.5;
  std::uint64_t trained_points = 2;
  std::vector<std::uint64_t> macs = {17};
  std::vector<std::uint16_t> counts = {1};
  std::vector<std::uint32_t> keys = {key(0, -50)};
  std::vector<Enu> positions = {{0.0, 0.0}};
  std::vector<std::uint32_t> traj_ids = {0};
  std::optional<std::uint64_t> points;
  std::string classifier = stump_on(3);

  std::string bytes() const {
    std::string out = "TKRDET2\n";
    const auto put = [&out](const auto& v) {
      char buf[sizeof v];
      std::memcpy(buf, &v, sizeof v);
      out.append(buf, sizeof v);
    };
    const auto put_all = [&put](const auto& values) {
      for (const auto& v : values) put(v);
    };
    put(reference_radius_m);
    put(top_k);
    put(use_theta1);
    put(use_theta2);
    put(counting_radius_m);
    put(rssi_tolerance_db);
    put(theta2_base);
    put(threshold);
    put(trained_points);
    put(points.value_or(positions.size()));
    put(std::uint64_t{macs.size()});
    put(std::uint64_t{keys.size()});
    put_all(macs);
    put_all(counts);
    put_all(keys);
    for (const Enu& p : positions) {
      put(p.east);
      put(p.north);
    }
    put_all(traj_ids);
    put(std::uint64_t{classifier.size()});
    out += classifier;
    return out;
  }
};

/// Offset of the index image inside a model image: the magic, the config
/// and trained_points.
constexpr std::size_t kIndexImageAt = 8 + 8 + 8 + 1 + 1 + 8 + 4 + 8 + 8 + 8;

std::string detector_image_splitting_on(int split_feature) {
  DetectorImage image;
  image.classifier = DetectorImage::stump_on(split_feature);
  return image.bytes();
}

/// The bare-image decoder's verdict on `bytes`: "" when it loads.
std::string bare_load_error(const std::string& bytes) {
  const auto loaded = wifi::RssiDetector::decode(bytes);
  return loaded.has_value() ? std::string() : loaded.error();
}

/// The file loader's verdict on `bytes` framed as the one record of a
/// version-2 detector container, CRCs valid.  The file is named after the
/// running test: ctest runs the tests that call this in parallel, in one
/// directory.
std::string framed_load_error(const std::string& bytes) {
  const std::string path =
      std::string("durable_test_framed_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".tmp";
  DurableWriter writer(kDetectorTag, kDetectorVersion);
  writer.add_record(bytes);
  write_raw(path, writer.bytes());
  const auto loaded = wifi::RssiDetector::try_load_file(path);
  std::remove(path.c_str());
  return loaded.has_value() ? std::string() : loaded.error();
}

bool same_bits(const Enu& a, const Enu& b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(DurableModels, DetectorRejectsOversizedScanHeader) {
  ts::LinearFieldWorld w;
  std::string bytes = w.detector().image();
  // Rewrite the first reference point's observation count to an absurd
  // value: it follows the index header (points, MACs, keys) and the MAC
  // table.
  std::uint64_t macs = 0;
  std::memcpy(&macs, bytes.data() + kIndexImageAt + 8, sizeof macs);
  const std::size_t first_count = kIndexImageAt + 24 + 8 * macs;
  ASSERT_LT(first_count + 2, bytes.size());
  const std::uint16_t absurd = 0xffff;
  std::memcpy(bytes.data() + first_count, &absurd, sizeof absurd);
  auto loaded = wifi::RssiDetector::decode(bytes);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("point 0 holds 65535 observations"), std::string::npos)
      << loaded.error();
}

TEST(DurableModels, DetectorImageRoundTripsBitwise) {
  ts::LinearFieldWorld w;
  const wifi::RssiDetector& original = w.detector();
  const std::string bytes = original.image();
  auto loaded = wifi::RssiDetector::decode(bytes);
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  const wifi::ReferenceIndex& a = original.index();
  const wifi::ReferenceIndex& b = loaded.value()->index();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t h = 0; h < a.size(); ++h) {
    ASSERT_TRUE(same_bits(a.pos(h), b.pos(h))) << h;
    ASSERT_EQ(a.traj_id(h), b.traj_id(h)) << h;
    const wifi::ReferencePoint pa = a.point(h);
    const wifi::ReferencePoint pb = b.point(h);
    ASSERT_TRUE(same_bits(pa.pos, pb.pos)) << h;
    ASSERT_EQ(pa.traj_id, pb.traj_id) << h;
    ASSERT_EQ(pa.scan.size(), pb.scan.size()) << h;
    for (std::size_t o = 0; o < pa.scan.size(); ++o) {
      ASSERT_EQ(pa.scan[o].mac, pb.scan[o].mac) << h << "/" << o;
      ASSERT_EQ(pa.scan[o].rssi_dbm, pb.scan[o].rssi_dbm) << h << "/" << o;
    }
  }
  EXPECT_EQ(a.bounds().min_east, b.bounds().min_east);
  EXPECT_EQ(a.bounds().min_north, b.bounds().min_north);
  EXPECT_EQ(a.bounds().max_east, b.bounds().max_east);
  EXPECT_EQ(a.bounds().max_north, b.bounds().max_north);
  EXPECT_EQ(loaded.value()->trained_points(), original.trained_points());
  // phi and the verdict, through the whole report.
  for (const auto& probe : w.probe_mix(6)) {
    EXPECT_EQ(original.analyze(probe).canonical_string(),
              loaded.value()->analyze(probe).canonical_string());
  }
  // save -> load -> save gives the same bytes, bare and framed.
  EXPECT_EQ(loaded.value()->image(), bytes);
  const std::string path = "durable_test_detector_roundtrip.tmp";
  original.save_file(path);
  const std::string framed = slurp(path);
  auto from_file = wifi::RssiDetector::try_load_file(path);
  ASSERT_TRUE(from_file.has_value()) << from_file.error();
  from_file.value()->save_file(path);
  EXPECT_EQ(slurp(path), framed);
  std::remove(path.c_str());
}

TEST(DurableModels, HandBuiltDetectorImagesAreRefusedOneRuleEach) {
  // The base image loads both ways.  Each case breaks one rule the loader
  // holds and keeps every length consistent, so the refusal comes from that
  // rule and not from a truncation.  Framed, the CRCs are valid.
  ASSERT_EQ(bare_load_error(DetectorImage{}.bytes()), "");
  ASSERT_EQ(framed_load_error(DetectorImage{}.bytes()), "");
  struct Case {
    const char* label;
    std::function<void(DetectorImage&)> edit;
    const char* error;  ///< a substring of the refusal
  };
  const std::vector<Case> cases = {
      {"key past the MAC table",
       [](DetectorImage& d) { d.keys = {DetectorImage::key(1, -50)}; },
       "past the 1-entry MAC table"},
      {"AP id out of first-seen order",
       [](DetectorImage& d) {
         d.macs = {17, 18};
         d.counts = {2};
         d.keys = {DetectorImage::key(1, -50), DetectorImage::key(0, -50)};
       },
       "names AP 1 before AP 0"},
      {"duplicate MAC",
       [](DetectorImage& d) {
         d.macs = {17, 17};
         d.counts = {2};
         d.keys = {DetectorImage::key(0, -50), DetectorImage::key(1, -50)};
       },
       "MAC 17 listed twice"},
      {"MAC no key observes",
       [](DetectorImage& d) { d.macs = {17, 18}; },
       "MACs no key observes"},
      {"count above 512",
       [](DetectorImage& d) {
         d.counts = {513};
         d.keys.assign(513, DetectorImage::key(0, -50));
       },
       "holds 513 observations, above 512"},
      {"counts not the key count",
       [](DetectorImage& d) { d.keys.push_back(DetectorImage::key(0, -60)); },
       "counts sum to 1, not the 2 keys"},
      {"RSSI byte 151",
       [](DetectorImage& d) { d.keys = {151}; },
       "RSSI byte 151, above 150"},
      {"NaN position",
       [](DetectorImage& d) { d.positions = {{std::nan(""), 0.0}}; },
       "non-finite or out-of-envelope position"},
      {"out-of-envelope position",
       [](DetectorImage& d) { d.positions = {{0.0, 2.2e7}}; },
       "non-finite or out-of-envelope position"},
      {"point count the bytes cannot hold",
       [](DetectorImage& d) { d.points = 1'000'000; },
       "header claims 1000000 points"},
      {"non-boolean theta switch",
       [](DetectorImage& d) { d.use_theta2 = 2; },
       "implausible config"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    DetectorImage image;
    c.edit(image);
    const std::string bytes = image.bytes();
    const std::string bare = bare_load_error(bytes);
    EXPECT_NE(bare.find(c.error), std::string::npos) << bare;
    const std::string framed = framed_load_error(bytes);
    EXPECT_NE(framed.find(c.error), std::string::npos) << framed;
  }
  // Nothing may follow the classifier.
  const std::string trailing = DetectorImage{}.bytes() + "x";
  EXPECT_NE(bare_load_error(trailing).find("trailing bytes"), std::string::npos);
  EXPECT_NE(framed_load_error(trailing).find("trailing bytes"), std::string::npos);
}

TEST(DurableModels, DetectorImageRefusesGridBeyondCellCap) {
  // Two valid reference points 4e6 m apart: the grid over their bounding box
  // would hold 1e6 x 2 cells, past the cap for two points.
  DetectorImage image;
  image.counts = {1, 1};
  image.keys = {DetectorImage::key(0, -50), DetectorImage::key(0, -52)};
  image.positions = {{0.0, 0.0}, {4e3, 0.0}};
  image.traj_ids = {0, 1};
  ASSERT_EQ(bare_load_error(image.bytes()), "");
  image.positions[1].east = 4e6;
  const std::string bytes = image.bytes();
  for (const std::string& error : {bare_load_error(bytes), framed_load_error(bytes)}) {
    EXPECT_NE(error.find("exceeds the cap"), std::string::npos) << error;
  }
}

/// A small trained detector: 40 reference points, 3 trees.
std::unique_ptr<ts::LinearFieldWorld> small_detector_world() {
  ts::LinearWorldConfig cfg;
  cfg.history_points = 40;
  cfg.trees = 3;
  cfg.train_pairs = 8;
  return std::make_unique<ts::LinearFieldWorld>(cfg);
}

TEST(DurableModels, DetectorImageRefusesEveryTruncation) {
  const auto w = small_detector_world();
  const std::string bytes = w->detector().image();
  const std::string path = "durable_test_detector_truncated.tmp";
  w->detector().save_file(path);
  const std::string framed = slurp(path);
  ASSERT_EQ(bare_load_error(bytes), "");
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ASSERT_NE(bare_load_error(bytes.substr(0, len)), "") << "bare prefix of " << len;
  }
  for (std::size_t len = 0; len < framed.size(); ++len) {
    write_raw(path, framed.substr(0, len));
    ASSERT_FALSE(wifi::RssiDetector::try_load_file(path).has_value())
        << "framed prefix of " << len;
  }
  std::remove(path.c_str());
}

TEST(DurableModels, DetectorImageFramedBitFlipsAreRefused) {
  // The container's CRCs refuse every single-bit flip of the file.
  const auto w = small_detector_world();
  const std::string path = "durable_test_detector_flipped.tmp";
  w->detector().save_file(path);
  const std::string framed = slurp(path);
  for (std::size_t bit = 0; bit < 8 * framed.size(); ++bit) {
    std::string flipped = framed;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    write_raw(path, flipped);
    ASSERT_FALSE(wifi::RssiDetector::try_load_file(path).has_value()) << "bit " << bit;
  }
  std::remove(path.c_str());
}

TEST(DurableModels, DetectorImageBareBitFlipsLoadOnlyWhatTheWriterWrites) {
  // A bare stream has no CRC, and a flip in a double can land on another
  // valid value.  The contract there: a flip anywhere in the binary part
  // (all but the classifier text) is refused, or loads a detector whose own
  // image is the flipped bytes, so nothing loads that the writer would not
  // write.
  const auto w = small_detector_world();
  const std::string bytes = w->detector().image();
  std::ostringstream classifier_text;
  w->detector().classifier().save(classifier_text);
  const std::size_t binary = bytes.size() - classifier_text.str().size();
  ASSERT_EQ(bytes.substr(binary), classifier_text.str());
  std::size_t accepted = 0;
  for (std::size_t bit = 0; bit < 8 * binary; ++bit) {
    std::string flipped = bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    const auto loaded = wifi::RssiDetector::decode(flipped);
    if (!loaded.has_value()) continue;
    ++accepted;
    ASSERT_EQ(loaded.value()->image(), flipped) << "bit " << bit;
  }
  EXPECT_LT(accepted, 8 * binary);
}

TEST(DurableModels, DetectorImageRefusesBytesAfterTheClassifierText) {
  // The classifier text is length-prefixed, so bytes appended inside it
  // with the prefix raised reach the GBT loader, which must stop where the
  // writer's text stops.
  const auto w = small_detector_world();
  const std::string bytes = w->detector().image();
  std::ostringstream classifier_text;
  w->detector().classifier().save(classifier_text);
  const std::string text = classifier_text.str();
  const std::size_t prefix_at = bytes.size() - text.size() - sizeof(std::uint64_t);
  ASSERT_EQ(bare_load_error(bytes), "");
  for (const std::string tail : {"junk", " "}) {
    SCOPED_TRACE("'" + tail + "'");
    std::string padded = bytes + tail;
    patch_pod(padded, prefix_at, std::uint64_t{text.size() + tail.size()});
    for (const std::string& error : {bare_load_error(padded), framed_load_error(padded)}) {
      EXPECT_NE(error.find("bytes after the last tree"), std::string::npos) << error;
    }
  }
}

TEST(DurableModels, DetectorV1TextFileIsRefusedAndLeftUntouched) {
  // A v1 container: the retired text payload (magic line, config line,
  // trained points, point count, one "east north traj n mac rssi" line per
  // point, then the classifier), framed at version 1.
  const std::string path = "durable_test_detector_v1.tmp";
  DurableWriter writer(kDetectorTag, 1);
  writer.add_record("trajkit_rssi_detector_v2\n"
                    "2.5 1 1 1 3 0 0.9 0.5\n"
                    "2\n"
                    "1\n"
                    "0 0 0 1 17 -50\n" +
                    DetectorImage::stump_on(3));
  const std::string v1 = writer.bytes();
  write_raw(path, v1);
  const auto loaded = wifi::RssiDetector::try_load_file(path);
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("unsupported version 1 (expected 2)"), std::string::npos)
      << loaded.error();
  EXPECT_EQ(slurp(path), v1);
  std::remove(path.c_str());
}

TEST(DurableModels, DetectorRejectsSplitBeyondFeatureWidth) {
  // Feature 5000 of a 4-wide row: served, the first analyze() would read far
  // past the feature vector.
  auto loaded = wifi::RssiDetector::decode(detector_image_splitting_on(5000));
  ASSERT_FALSE(loaded.has_value());
  EXPECT_NE(loaded.error().find("width"), std::string::npos) << loaded.error();

  // The last in-width feature loads and serves.
  auto served = wifi::RssiDetector::decode(detector_image_splitting_on(3));
  ASSERT_TRUE(served.has_value()) << served.error();
  wifi::ScannedUpload probe;
  probe.positions = {{0, 0}, {1, 0}};
  probe.scans = {{{17, -50}}, {{17, -50}}};
  EXPECT_EQ(served.value()->analyze(probe).features.size(), 4u);
}

TEST(DurableModels, DetectorAssembleRejectsSplitBeyondFeatureWidth) {
  auto base = wifi::RssiDetector::decode(detector_image_splitting_on(3));
  ASSERT_TRUE(base.has_value()) << base.error();
  const auto& d = *base.value();
  // Width 2 * top_k * points: 4 at two points fits feature 3, 2 at one does not.
  EXPECT_NO_THROW(wifi::RssiDetector::assemble({}, d.config(), d.classifier(), 2));
  EXPECT_THROW(wifi::RssiDetector::assemble({}, d.config(), d.classifier(), 1),
               std::invalid_argument);
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
  ts::LinearFieldWorld w;
  const std::string lstm_path = "durable_test_skew_lstm.tmp";
  const std::string detector_path = "durable_test_skew_detector.tmp";
  lstm.save_file(lstm_path);
  w.detector().save_file(detector_path);

  struct SkewCase {
    const char* label;
    std::string path;               ///< the committed container
    std::uint32_t skewed_version;   ///< 0: one past the written version
    std::function<std::string()> load;  ///< "" on success, else the error
    /// Model files only: the bare model image, which must not load from a
    /// path either.
    std::function<std::string()> bare_image;
  };
  const auto open_artifacts = [&] {
    return durable::ArtifactStore::open_dir(artifact_dir);
  };
  const std::vector<SkewCase> cases = {
      {"lstm", lstm_path, 0,
       [&] { return load_error(nn::LstmClassifier::try_load_file(lstm_path)); },
       [&] { return lstm.image(); }},
      {"detector", detector_path, 0,
       [&] { return load_error(wifi::RssiDetector::try_load_file(detector_path)); },
       [&] { return w.detector().image(); }},
      // v1 (the text payload) is the retired LSTM layout: the nearest miss.
      {"lstm v1", lstm_path, 1,
       [&] { return load_error(nn::LstmClassifier::try_load_file(lstm_path)); },
       nullptr},
      // v1 (the text payload) is the retired detector layout: the nearest miss.
      {"detector v1", detector_path, 1,
       [&] { return load_error(wifi::RssiDetector::try_load_file(detector_path)); },
       nullptr},
      // v5 (a text record per point) is the newest retired snapshot layout:
      // the nearest miss.
      {"crowd snapshot", wifi::CrowdStore::snapshot_path(store_dir), 5,
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
    const std::string refused = slurp(c.path);
    std::string error = c.load();
    EXPECT_NE(error.find("unsupported version " + std::to_string(skewed)),
              std::string::npos)
        << error;
    EXPECT_EQ(slurp(c.path), refused) << "a refused container was rewritten";
    if (c.bare_image) {
      write_raw(c.path, c.bare_image());
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

TEST(CorruptionFuzz, GbtModelTextRefusesOrReloadsEveryMutation) {
  // The classifier is stored only as the text tail of the detector image,
  // which has no CRC of its own when bare, so a flip inside a number can land
  // on another valid model.  The contract for the text decoder: every
  // mutation is refused, or loads a model whose re-saved text loads back to
  // the same text — never a crash, a hang or a model it cannot re-save.
  const auto text_of = [](const gbt::GbtClassifier& model) {
    std::ostringstream os;
    model.save(os);
    return os.str();
  };
  const std::string intact = text_of(small_trained_gbt());
  std::size_t refused = 0;
  const auto check = [&](const std::string& bytes, const std::string& what) {
    std::istringstream is(bytes);
    const auto loaded = gbt::GbtClassifier::try_load(is);
    if (!loaded.has_value()) {
      ++refused;
      return;
    }
    const std::string once = text_of(loaded.value());
    std::istringstream again(once);
    const auto reloaded = gbt::GbtClassifier::try_load(again);
    ASSERT_TRUE(reloaded.has_value()) << what << ": " << reloaded.error();
    EXPECT_EQ(text_of(reloaded.value()), once) << what;
  };
  check(intact, "intact");
  ASSERT_EQ(refused, 0u) << "intact text must load";
  for (int t = 0; t < 48; ++t) {
    Rng rng = Rng::substream(0xF17B, static_cast<std::uint64_t>(t));
    std::string mutated = intact;
    const auto offset = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    const auto mask = static_cast<unsigned char>(rng.uniform_int(1, 255));
    mutated[offset] =
        static_cast<char>(static_cast<unsigned char>(mutated[offset]) ^ mask);
    check(mutated, "flip at byte " + std::to_string(offset));
    const auto cut = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(intact.size()) - 1));
    check(intact.substr(0, cut), "truncation to " + std::to_string(cut));
  }
  EXPECT_GT(refused, 0u);
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
  // The snapshot carries a trailing reputation book after its
  // uploader-stamped points.  Re-run the snapshot corruption fuzz over a
  // store whose snapshot actually exercises both: provenance-stamped points
  // and a quarantined uploader.
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
    ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 2}).has_value());
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
  // Per-append fsync or not, a clean reopen replays every append byte for
  // byte.
  for (const bool sync_each_append : {true, false}) {
    SCOPED_TRACE(sync_each_append ? "sync_each_append" : "batched sync");
    remove_tree(dir);
    {
      auto store = wifi::CrowdStore::open(dir, sync_each_append);
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
      EXPECT_EQ(wifi::CrowdStore::encode_point(store.value()->point(i)),
                wifi::CrowdStore::encode_point(sample_point(i)))
          << "point " << i;
    }
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
    EXPECT_EQ(store.value()->point(i).pos.east, double(i));
  }
  remove_tree(dir);
}

/// What a reopened store must reproduce of the one that wrote it: every
/// point (as its journal text, %.17g exact), every uploader, the refolded
/// provenance grid and the reputation book.
struct StoreState {
  std::vector<std::string> points;
  std::vector<wifi::UploaderId> uploaders;
  std::uint64_t provenance = 0;
  std::string reputation;

  static StoreState of(const wifi::CrowdStore& store) {
    StoreState state;
    for (const auto& p : store.points()) {
      state.points.push_back(wifi::CrowdStore::encode_point(p));
    }
    state.uploaders = store.uploaders();
    state.provenance = store.provenance().checksum();
    state.reputation = store.reputation().serialize();
    return state;
  }
  friend bool operator==(const StoreState&, const StoreState&) = default;
};

TEST(CrowdStore, CompactionBeyond16BitPointCountSurvivesReopen) {
  // Regression for the bricked-store bug: with >65,535 points the snapshot
  // used to commit fine (and reset the journal, discarding the WAL copy)
  // but tripped the old parse-side record cap on every reopen.
  const std::string dir = "durable_test_store_big";
  remove_tree(dir);
  constexpr std::size_t kPoints = 66'000;  // past the old 65,536 cap
  StoreState written;
  {
    auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (std::size_t i = 0; i < kPoints; ++i) {
      const wifi::ReferencePoint p{
          {double(i % 1000), double(i / 1000)}, {{1, -50}}, 3u};
      ASSERT_TRUE(store.value()->append(p).has_value()) << "point " << i;
    }
    ASSERT_TRUE(store.value()->compact().has_value());
    written = StoreState::of(*store.value());
  }
  auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_TRUE(StoreState::of(*store.value()) == written);
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

TEST(CrowdStore, FarApartPointsCompactAndReopen) {
  // Two valid points 1e5 m apart on both axes.  A grid over them at 4 m
  // cells would exceed ReferenceIndex's cell cap, so the snapshot must not go
  // through an index, or the store would compact once and never reopen.
  const std::string dir = "durable_test_store_far";
  remove_tree(dir);
  StoreState written;
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(store.value()->append({{0.0, 0.0}, {{5, -50}}, 1u}, 9).has_value());
    ASSERT_TRUE(store.value()->append({{1e5, 1e5}, {{6, -60}}, 2u}, 10).has_value());
    ASSERT_TRUE(store.value()->compact().has_value());
    written = StoreState::of(*store.value());
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().snapshot_points, 2u);
  EXPECT_TRUE(StoreState::of(*store.value()) == written);
  remove_tree(dir);
}

constexpr const char* kSnapshotTag = "crowd_snapshot";
constexpr std::uint32_t kSnapshotVersion = 6;

TEST(CrowdStore, SnapshotPointRecordMutationsReopenOnlyWhatCompactWrites) {
  // The point record is binary, and a flip in a double or an id can land on
  // another valid value.  Every single-bit flip and every truncation of it,
  // re-framed with valid CRCs, is refused, or opens a store whose compact()
  // writes exactly the mutated file: nothing opens that the writer would
  // not write.
  const std::string dir = "durable_test_store_point_flips";
  remove_tree(dir);
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(store.value()->append({{1.0, 2.0}, {{5, -50}, {6, -61}}, 1u}, 7).has_value());
    ASSERT_TRUE(store.value()->append({{3.5, -2.0}, {{6, -55}}, 2u}, 8).has_value());
    ASSERT_TRUE(store.value()->append({{-4.0, 0.25}, {{7, -70}, {5, -40}}, 2u}).has_value());
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  const std::string snap = wifi::CrowdStore::snapshot_path(dir);
  const auto records = durable::parse_durable(slurp(snap), kSnapshotTag, kSnapshotVersion);
  ASSERT_TRUE(records.has_value()) << records.error();
  ASSERT_EQ(records.value().size(), 3u);
  const std::string& intact = records.value()[1];
  const auto framed = [&](const std::string& point_record) {
    DurableWriter writer(kSnapshotTag, kSnapshotVersion);
    writer.add_record(records.value()[0]);
    writer.add_record(point_record);
    writer.add_record(records.value()[2]);
    return writer.bytes();
  };
  std::size_t accepted = 0;
  std::size_t mutations = 0;
  const auto check = [&](const std::string& point_record, const std::string& what) {
    ++mutations;
    const std::string file = framed(point_record);
    write_raw(snap, file);
    auto store = wifi::CrowdStore::open(dir);
    if (!store.has_value()) return;
    ++accepted;
    ASSERT_TRUE(store.value()->compact().has_value()) << what;
    EXPECT_EQ(slurp(snap), file) << what;
  };
  check(intact, "intact");
  ASSERT_EQ(accepted, 1u) << "the intact record must open";
  for (std::size_t bit = 0; bit < 8 * intact.size(); ++bit) {
    std::string flipped = intact;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    check(flipped, "bit " + std::to_string(bit));
  }
  for (std::size_t len = 0; len < intact.size(); ++len) {
    check(intact.substr(0, len), "prefix of " + std::to_string(len));
  }
  const std::size_t before_tail = accepted;
  check(intact + '\0', "a trailing byte");
  EXPECT_EQ(accepted, before_tail) << "a trailing byte must be refused";
  EXPECT_GT(accepted, 1u);
  EXPECT_LT(accepted, mutations);
  remove_tree(dir);
}

TEST(CrowdStore, ArraysAreByteEqualToAFromScratchBuild) {
  // The store keys every append onto its own arrays, and served epochs copy
  // them as they are.  After appends, after a journal replay and after a
  // compact-then-reopen with a journal tail, they must be the bytes
  // PointArrays builds from the same points at once.
  const std::string dir = "durable_test_store_arrays";
  remove_tree(dir);
  const auto image = [](const wifi::PointArrays& arrays) {
    std::string out;
    arrays.append_image(out);
    return out;
  };
  Rng rng(31);
  std::vector<wifi::ReferencePoint> points;
  const auto append_some = [&](wifi::CrowdStore& store, int n) {
    for (int i = 0; i < n; ++i) {
      wifi::WifiScan scan;
      for (std::int64_t j = rng.uniform_int(0, 6); j > 0; --j) {
        scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 80)),
                        static_cast<int>(rng.uniform_int(-100, -30))});
      }
      points.push_back({{rng.uniform(0, 50), rng.uniform(0, 50)},
                        std::move(scan),
                        static_cast<std::uint32_t>(points.size() / 10)});
      ASSERT_TRUE(store.append(points.back(), 1 + points.size() % 4).has_value());
    }
  };
  {
    auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    append_some(*store.value(), 120);
    EXPECT_EQ(image(store.value()->arrays()), image(wifi::PointArrays(points)))
        << "after appends";
  }
  {
    auto store = wifi::CrowdStore::open(dir, /*sync_each_append=*/false);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->open_stats().replayed_records, 120u);
    EXPECT_EQ(image(store.value()->arrays()), image(wifi::PointArrays(points)))
        << "after a journal replay";
    ASSERT_TRUE(store.value()->compact().has_value());
    append_some(*store.value(), 40);
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().snapshot_points, 120u);
  EXPECT_EQ(store.value()->open_stats().replayed_records, 40u);
  EXPECT_EQ(image(store.value()->arrays()), image(wifi::PointArrays(points)))
      << "after compact, a journal tail and a reopen";
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
