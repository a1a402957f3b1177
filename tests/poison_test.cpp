// Adversarial-crowdsourcing battery: uploader provenance, robust per-cell
// aggregation, reputation scoring, quarantine, and the rate cap — the
// defenses the crowd store raises against the paper's data-poisoning threat
// (colluding uploaders feeding forged RSSI history into the reference store
// the whole detector leans on).
//
// The scenario every store-level test shares: an honest crowd of distinct
// uploaders seeds the full grid with the analytic linear field
// (tests/support/fixtures: rssi = -40 - east dBm), then a small ring of
// coordinated poisoners floods a 2x2-cell patch with observations shifted
// 15 dB (the same cell-shift attack bench_poison sweeps).  The properties
// pinned here:
//
//   * the observation-weighted pooled mean is dragged by the flood while the
//     witness-weighted robust consensus (median of per-uploader means) holds;
//   * with trimming disabled the robust path answers bitwise the pooled
//     mean of reference::pooled_cell_mean (the exact-mean oracle contract);
//   * every poisoner's reputation decays to auto-quarantine, no honest
//     uploader's does, and quarantine/clear round-trips through journal
//     replay, compaction and reopen;
//   * reopening a store refolds the provenance grid and replays the
//     adversarial state bitwise, arrival-order
//     shuffles of the flood never change the quarantine verdict, and the
//     global thread count is irrelevant to ingestion state;
//   * the per-uploader rate cap refuses floods at admission, deterministically.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/durable/journal.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "reference/provenance_reference.hpp"
#include "reference/wifi_reference.hpp"
#include "serve/shard_service.hpp"
#include "support/fixtures.hpp"
#include "support/golden.hpp"
#include "wifi/crowd_store.hpp"
#include "wifi/provenance.hpp"
#include "wifi/reputation.hpp"
#include "wifi/validate.hpp"

namespace trajkit {
namespace {

namespace ts = test_support;
using Kind = wifi::ControlFrame::Kind;
using wifi::kAnonymousUploader;
using wifi::UploaderId;

void remove_store(const std::string& dir) {
  for (const char* name : {"/crowd.snapshot", "/crowd.snapshot.tmp",
                           "/crowd.journal", "/crowd.journal.tmp"}) {
    std::remove((dir + name).c_str());
  }
  ::rmdir(dir.c_str());
}

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int field_rssi(const Enu& p) { return ts::LinearFieldWorld::field_rssi(p); }

wifi::ReferencePoint field_point(const Enu& pos, double heard_shift_east = 0.0) {
  const Enu heard{pos.east + heard_shift_east, pos.north};
  return {pos, {{1, field_rssi(heard)}}, 1u};
}

// ---------------------------------------------------------------------------
// The shared Sybil-flood scenario
//
// 8x8 grid of 4 m cells.  Honest uploaders 1..4 each drop one observation in
// every cell (distinct in-cell offsets, so their per-cell means differ by a
// couple of dB — inside the agreement tolerance).  Poisoners 900..902 then
// flood the patch cells cx, cy in {2, 3} with kRounds observations each,
// every one shifted kShiftM east through the field (-15 dB).

constexpr int kGridCells = 8;
constexpr double kCellM = 4.0;
constexpr double kShiftM = 15.0;
constexpr int kRounds = 3;
constexpr UploaderId kHonest[] = {1, 2, 3, 4};
constexpr UploaderId kPoisoners[] = {900, 901, 902};
constexpr Enu kPatchProbe{10.0, 10.0};  // inside patch cell (2, 2)

Enu honest_pos(UploaderId u, int cx, int cy) {
  return {cx * kCellM + 0.8 + 0.6 * static_cast<double>(u),
          cy * kCellM + 2.0};
}

std::vector<std::pair<wifi::ReferencePoint, UploaderId>> honest_appends() {
  std::vector<std::pair<wifi::ReferencePoint, UploaderId>> out;
  for (const UploaderId u : kHonest) {
    for (int cx = 0; cx < kGridCells; ++cx) {
      for (int cy = 0; cy < kGridCells; ++cy) {
        out.emplace_back(field_point(honest_pos(u, cx, cy)), u);
      }
    }
  }
  return out;
}

std::vector<std::pair<wifi::ReferencePoint, UploaderId>> poison_appends() {
  std::vector<std::pair<wifi::ReferencePoint, UploaderId>> out;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < std::size(kPoisoners); ++i) {
      for (int cx = 2; cx <= 3; ++cx) {
        for (int cy = 2; cy <= 3; ++cy) {
          const Enu pos{cx * kCellM + 2.0 + 0.1 * static_cast<double>(i),
                        cy * kCellM + 2.0};
          out.emplace_back(field_point(pos, kShiftM), kPoisoners[i]);
        }
      }
    }
  }
  return out;
}

std::unique_ptr<wifi::CrowdStore> build_poisoned_store(const std::string& dir) {
  auto store = wifi::CrowdStore::open(dir);
  EXPECT_TRUE(store.has_value()) << store.error();
  for (const auto& [point, uploader] : honest_appends()) {
    EXPECT_TRUE(store.value()->append(point, uploader).has_value());
  }
  for (const auto& [point, uploader] : poison_appends()) {
    EXPECT_TRUE(store.value()->append(point, uploader).has_value());
  }
  return std::move(store).value();
}

// ---------------------------------------------------------------------------
// Trimmed-mean arithmetic

TEST(Poison, TrimmedMeanMatchesItsSpec) {
  // trim = 0: plain mean.
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({1.0, 2.0, 3.0, 10.0}, 0.0), 4.0);
  // trim >= 0.5 degenerates to the median, odd and even.
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({5.0, 1.0, 9.0}, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({4.0, 1.0, 9.0, 6.0}, 0.7), 5.0);
  // trim = 0.25 over 4 values drops one from each end.
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({-100.0, 1.0, 3.0, 100.0}, 0.25), 2.0);
  // The cap: trimming may never consume every value.
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({7.0}, 0.49), 7.0);
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({2.0, 4.0}, 0.49), 3.0);
  // trim 0.2 over 5 witnesses drops one from each end: the -65 outlier goes,
  // and so does the honest extreme -49.
  EXPECT_DOUBLE_EQ(wifi::trimmed_mean({-65.0, -50.0, -51.0, -49.0, -50.0}, 0.2),
                   (-51.0 - 50.0 - 50.0) / 3.0);
}

// ---------------------------------------------------------------------------
// Provenance grid

TEST(Poison, UploaderMeansExcludeTheScoredWitness) {
  wifi::ProvenanceGrid grid;
  const Enu pos{1.0, 1.0};
  grid.add({pos, {{7, -50}}, 1u}, 1);
  grid.add({pos, {{7, -52}}, 1u}, 2);
  grid.add({pos, {{7, -90}}, 1u}, 3);
  EXPECT_EQ(grid.uploader_means(pos, 7).size(), 3u);
  const auto excl = grid.uploader_means(pos, 7, 3);
  ASSERT_EQ(excl.size(), 2u);
  EXPECT_DOUBLE_EQ(excl[0], -50.0);
  EXPECT_DOUBLE_EQ(excl[1], -52.0);
  // Excluding the anonymous uploader excludes nobody (anonymous is the
  // "no identity" sentinel, not an identity).
  EXPECT_EQ(grid.uploader_means(pos, 7, kAnonymousUploader).size(), 3u);
}

TEST(Poison, ProvenanceTinyCellFarFromOriginSaturatesItsKey) {
  // 2.1e7 m over a 1e-300 m cell is ~2e307 cells: the floor does not fit an
  // int64, so the key saturates to the nearest representable cell on each
  // side instead of overflowing the conversion.
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  wifi::ProvenanceGrid grid(1e-300);
  EXPECT_EQ(grid.cell_of({2.1e7, -2.1e7}), wifi::CellKey(kMax, kMin));
  EXPECT_EQ(grid.cell_of({-2.1e7, 2.1e7}), wifi::CellKey(kMin, kMax));
  EXPECT_EQ(grid.cell_of({0.0, 0.0}), wifi::CellKey(0, 0));
  grid.add({{2.1e7, 2.1e7}, {{7, -50}}, 1u}, 1);
  EXPECT_EQ(grid.cell_points({2.1e7, 2.1e7}), 1u);
  ASSERT_EQ(grid.keys().size(), 1u);
  EXPECT_EQ(grid.keys().front().cell, wifi::CellKey(kMax, kMax));
  EXPECT_EQ(grid.uploader_means({2.1e7, 2.1e7}, 7).size(), 1u);
}

// ---------------------------------------------------------------------------
// Robust aggregation vs the Sybil flood

/// True iff `a` and `b` are the same double, bit for bit.
bool same_bits(double a, double b) {
  std::uint64_t a_bits = 0, b_bits = 0;
  std::memcpy(&a_bits, &a, sizeof a_bits);
  std::memcpy(&b_bits, &b, sizeof b_bits);
  return a_bits == b_bits;
}

TEST(Poison, SybilFloodDragsPooledMeanButNotRobustConsensus) {
  std::vector<wifi::ReferencePoint> points;
  wifi::ProvenanceGrid prov;
  const Enu pos{1.0, 1.0};
  auto add = [&](int rssi, UploaderId u) {
    points.push_back({pos, {{7, rssi}}, 1u});
    prov.add(points.back(), u);
  };
  // Five honest witnesses, one observation each.
  for (UploaderId u = 1; u <= 5; ++u) add(-50, u);
  // Two colluders flood 40 shifted observations each: the pooled mean weighs
  // observations, so the flood owns it; the robust median weighs witnesses.
  for (int i = 0; i < 40; ++i) {
    add(-90, 600);
    add(-90, 601);
  }
  const wifi::RobustCellAggregator median(prov, {0.5, 2});
  double robust = 0.0;
  ASSERT_TRUE(median.estimate(pos, 7, &robust));
  EXPECT_DOUBLE_EQ(robust, -50.0);

  const wifi::RobustCellAggregator exact(prov, {0.0, 2});
  double mean = 0.0;
  ASSERT_TRUE(exact.estimate(pos, 7, &mean));
  EXPECT_LT(mean, -80.0);  // 80 of 85 observations are the flood
  const auto oracle = wifi::reference::pooled_cell_mean(points, kCellM, pos, 7);
  ASSERT_TRUE(oracle.has_value());
  EXPECT_TRUE(same_bits(mean, *oracle)) << mean << " vs " << *oracle;

  // A trim wide enough to drop both colluding witnesses (floor(0.3 * 7) = 2
  // from each end) also survives this minority without going all the way to
  // the median.
  const wifi::RobustCellAggregator trimmed(prov, {0.3, 2});
  double light = 0.0;
  ASSERT_TRUE(trimmed.estimate(pos, 7, &light));
  EXPECT_DOUBLE_EQ(light, -50.0);
}

TEST(Poison, TrimZeroIsBitwiseThePooledMean) {
  std::vector<wifi::ReferencePoint> points;
  wifi::ProvenanceGrid prov;
  Rng rng(23);
  for (int i = 0; i < 400; ++i) {
    const Enu pos{rng.uniform(0.0, 40.0), rng.uniform(0.0, 40.0)};
    const std::uint64_t mac = static_cast<std::uint64_t>(rng.uniform_int(1, 3));
    const int rssi = static_cast<int>(rng.uniform_int(-90, -40));
    const UploaderId u = static_cast<UploaderId>(rng.uniform_int(0, 7));
    points.push_back({pos, {{mac, rssi}}, 1u});
    prov.add(points.back(), u);
  }
  const wifi::RobustCellAggregator agg(prov, {0.0, 2});
  std::size_t checked = 0;
  for (const auto& [cell, mac] : prov.keys()) {
    const Enu probe{(static_cast<double>(cell.first) + 0.5) * prov.cell_size_m(),
                    (static_cast<double>(cell.second) + 0.5) * prov.cell_size_m()};
    double estimate = 0.0;
    ASSERT_TRUE(agg.estimate(probe, mac, &estimate));
    const auto oracle = wifi::reference::pooled_cell_mean(
        points, prov.cell_size_m(), probe, mac);
    ASSERT_TRUE(oracle.has_value());
    // Bitwise, not approximately: summing the per-uploader accumulators
    // must give the very bits of one ingestion-order pass.
    EXPECT_TRUE(same_bits(estimate, *oracle))
        << "cell (" << cell.first << ", " << cell.second << ") mac " << mac;
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

struct StampedPoint {
  wifi::ReferencePoint point;
  UploaderId uploader = kAnonymousUploader;
};

/// The anonymous uploader and 8 named ones, ids spread over the u64 range.
constexpr UploaderId kStreamUploaders[] = {
    kAnonymousUploader, 1, 2, 7, 64, 1000, 1001, UploaderId{1} << 40,
    std::numeric_limits<UploaderId>::max()};

/// 2,000 uploads over [-40, 40)^2 m (one coordinate in ten exactly 0, so a
/// 1e-300 m grid sees the zero cell beside its two saturated ones), 1-5
/// observations of 12 MACs plus one at the top of the 48-bit range, every
/// eighth scan repeating a MAC, each from one of kStreamUploaders.
std::vector<StampedPoint> provenance_stream(std::uint64_t seed) {
  Rng rng(seed);
  auto coord = [&] { return rng.uniform_int(0, 9) == 0 ? 0.0 : rng.uniform(-40.0, 40.0); };
  std::vector<StampedPoint> stream;
  for (int i = 0; i < 2000; ++i) {
    StampedPoint s;
    s.point.pos = {coord(), coord()};
    s.point.traj_id = static_cast<std::uint32_t>(i / 30);
    const auto n = rng.uniform_int(1, 5);
    for (std::int64_t k = 0; k < n; ++k) {
      const auto mac = rng.uniform_int(0, 12);
      s.point.scan.push_back({mac == 0 ? 0xffffffffffffull : static_cast<std::uint64_t>(mac),
                              static_cast<int>(rng.uniform_int(-95, -30))});
    }
    if (i % 8 == 0) {
      s.point.scan.push_back({s.point.scan.front().mac,
                              static_cast<int>(rng.uniform_int(-95, -30))});
    }
    s.uploader = kStreamUploaders[rng.uniform_int(0, std::size(kStreamUploaders) - 1)];
    stream.push_back(std::move(s));
  }
  return stream;
}

/// Every lookup of `grid` against the nested-map oracle at each of
/// `stream`'s points and MACs, plus an absent MAC and an absent cell:
/// uploader means with and without each exclusion, estimate at trim 0 / 0.3
/// / 0.5 and consensus_excluding, all bit for bit.  Returns the first
/// mismatch, or "" when there is none.
std::string first_lookup_mismatch(const wifi::ProvenanceGrid& grid,
                                  const wifi::reference::ProvenanceOracle& oracle,
                                  const std::vector<StampedPoint>& stream) {
  const wifi::RobustAggregationParams trims[] = {{0.0, 2}, {0.3, 2}, {0.5, 2}, {0.5, 1}};
  auto probe = [&](const Enu& pos, std::uint64_t mac) -> std::string {
    std::ostringstream miss;
    miss << "at (" << pos.east << ", " << pos.north << ") mac " << mac << ": ";
    if (grid.uploader_means(pos, mac) != oracle.uploader_means(pos, mac)) {
      return miss.str() + "uploader_means";
    }
    for (const UploaderId u : kStreamUploaders) {
      if (grid.uploader_means(pos, mac, u) != oracle.uploader_means(pos, mac, u)) {
        miss << "uploader_means excluding " << u;
        return miss.str();
      }
    }
    for (const auto& params : trims) {
      const wifi::RobustCellAggregator agg(grid, params);
      double got = 0.0, want = 0.0;
      if (agg.estimate(pos, mac, &got) != oracle.estimate(pos, mac, params, &want) ||
          !same_bits(got, want)) {
        miss << "estimate at trim " << params.trim_fraction;
        return miss.str();
      }
      for (const UploaderId u : kStreamUploaders) {
        got = want = 0.0;
        if (agg.consensus_excluding(pos, mac, u, &got) !=
                oracle.consensus_excluding(pos, mac, u, params, &want) ||
            !same_bits(got, want)) {
          miss << "consensus_excluding " << u << " at trim " << params.trim_fraction;
          return miss.str();
        }
      }
    }
    return "";
  };
  for (const auto& s : stream) {
    for (const auto& obs : s.point.scan) {
      if (auto miss = probe(s.point.pos, obs.mac); !miss.empty()) return miss;
    }
    if (auto miss = probe(s.point.pos, 5000); !miss.empty()) return miss;
  }
  return probe({-1e6, 1e6}, 1);
}

TEST(Poison, ProvenanceGridMatchesNestedMapOracle) {
  const std::vector<StampedPoint> stream = provenance_stream(41);
  for (const double cell_m : {4.0, 1e-300}) {
    SCOPED_TRACE(cell_m);
    wifi::ProvenanceGrid grid(cell_m);
    wifi::reference::ProvenanceOracle oracle(cell_m);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      grid.add(stream[i].point, stream[i].uploader);
      oracle.add(stream[i].point, stream[i].uploader);
      if (i == 499) {
        const std::vector<StampedPoint> prefix(stream.begin(), stream.begin() + 500);
        EXPECT_EQ(first_lookup_mismatch(grid, oracle, prefix), "");
      }
    }
    EXPECT_EQ(grid.point_count(), stream.size());
    EXPECT_EQ(grid.serialize(), oracle.serialize());
    EXPECT_EQ(grid.checksum(), oracle.checksum());
    EXPECT_TRUE(grid.keys() == oracle.keys());
    EXPECT_EQ(first_lookup_mismatch(grid, oracle, stream), "");

    // Equality is over the facts, not the fold order.
    const wifi::ProvenanceGrid copy = grid;
    EXPECT_TRUE(copy == grid);
    std::vector<StampedPoint> shuffled = stream;
    Rng(42).shuffle(shuffled);
    wifi::ProvenanceGrid reordered(cell_m);
    for (const auto& s : shuffled) reordered.add(s.point, s.uploader);
    EXPECT_TRUE(reordered == grid);
    EXPECT_EQ(reordered.serialize(), grid.serialize());
    // The same points with one observation credited to another uploader are
    // a different grid.
    std::vector<StampedPoint> restamped = stream;
    restamped[1234].uploader = restamped[1234].uploader == 7 ? 64 : 7;
    wifi::ProvenanceGrid other(cell_m);
    for (const auto& s : restamped) other.add(s.point, s.uploader);
    EXPECT_FALSE(other == grid);
    EXPECT_NE(other.checksum(), grid.checksum());
  }
  // The 1e-300 m grid folds everything into the zero cell and its
  // saturated neighbours.
  wifi::ProvenanceGrid tiny(1e-300);
  for (const auto& s : stream) tiny.add(s.point, s.uploader);
  EXPECT_EQ(tiny.cell_count(), 9u);
}

// ---------------------------------------------------------------------------
// Reputation

TEST(PoisonReputation, AgreementIsToleranceThenLinearFalloff) {
  const wifi::ReputationParams p;  // tol 4 dB, falloff 8 dB
  EXPECT_DOUBLE_EQ(wifi::ReputationBook::agreement(0.0, p), 1.0);
  EXPECT_DOUBLE_EQ(wifi::ReputationBook::agreement(-4.0, p), 1.0);
  EXPECT_DOUBLE_EQ(wifi::ReputationBook::agreement(8.0, p), 0.5);
  EXPECT_DOUBLE_EQ(wifi::ReputationBook::agreement(-12.0, p), 0.0);
  EXPECT_DOUBLE_EQ(wifi::ReputationBook::agreement(40.0, p), 0.0);
}

TEST(PoisonReputation, ScoresAreMonotoneUnderAgreementAndDecayUnderDissent) {
  const wifi::ReputationParams params;
  wifi::ReputationBook book;
  // Perfect agreement never lowers a score.
  double prev = 1.0;
  for (int i = 0; i < 20; ++i) {
    book.observe(5, 1.0, params);
    const double score = book.record(5).score;
    EXPECT_GE(score, prev);
    prev = score;
  }
  EXPECT_FALSE(book.is_quarantined(5));
  // Total dissent strictly lowers it every time, down to auto-quarantine.
  prev = book.record(5).score;
  bool crossed = false;
  for (int i = 0; i < 40; ++i) {
    book.observe(5, 0.0, params);
    const double score = book.record(5).score;
    EXPECT_LT(score, prev);
    prev = score;
    if (book.is_quarantined(5)) {
      crossed = true;
      break;
    }
  }
  EXPECT_TRUE(crossed);
  EXPECT_LT(book.record(5).score, params.quarantine_below);
  // Anonymous is never tracked.
  book.observe(kAnonymousUploader, 0.0, params);
  EXPECT_TRUE(book.record(kAnonymousUploader) == wifi::UploaderRecord{});
}

TEST(PoisonReputation, BookSerialisationRoundTripsAndValidates) {
  const wifi::ReputationParams params;
  wifi::ReputationBook book;
  for (int i = 0; i < 9; ++i) book.observe(3, i % 2 ? 1.0 : 0.25, params);
  book.quarantine(8);
  auto parsed = wifi::ReputationBook::deserialize(book.serialize());
  ASSERT_TRUE(parsed.has_value()) << parsed.error();
  EXPECT_TRUE(parsed.value() == book);

  EXPECT_FALSE(wifi::ReputationBook::deserialize("garbage").has_value());
  EXPECT_FALSE(
      wifi::ReputationBook::deserialize("repbook 1 1\n7 1.5 3 0\n").has_value());
  EXPECT_FALSE(
      wifi::ReputationBook::deserialize("repbook 1 1\n0 0.5 3 0\n").has_value());
  EXPECT_FALSE(wifi::ReputationBook::deserialize("repbook 1 2\n7 0.5 3 0\n7 0.5 3 0\n")
                   .has_value());
}

// ---------------------------------------------------------------------------
// The store under the coordinated flood

TEST(Poison, CoordinatedPoisonersAreAutoQuarantinedAndHonestCrowdIsNot) {
  const std::string dir = "poison_test_flood";
  remove_store(dir);
  auto store = build_poisoned_store(dir);

  for (const UploaderId u : kPoisoners) {
    EXPECT_TRUE(store->reputation().is_quarantined(u)) << "poisoner " << u;
  }
  double min_honest = 1.0;
  for (const UploaderId u : kHonest) {
    EXPECT_FALSE(store->reputation().is_quarantined(u)) << "honest " << u;
    min_honest = std::min(min_honest, store->reputation().record(u).score);
  }
  double max_poison = 0.0;
  for (const UploaderId u : kPoisoners) {
    max_poison = std::max(max_poison, store->reputation().record(u).score);
  }
  // The scores separate cleanly — this margin is what gives bench_poison its
  // detection AUC of 1 at every swept poison fraction.
  EXPECT_GT(min_honest, max_poison + 0.3);

  const std::size_t honest_count = honest_appends().size();
  const std::size_t poison_count = poison_appends().size();
  EXPECT_EQ(store->points().size(), honest_count + poison_count);
  EXPECT_EQ(store->trusted_points().size(), honest_count);
  EXPECT_EQ(store->quarantined_point_count(), poison_count);

  // In the flooded patch cell the pooled mean moved by several dB; the
  // witness-weighted median barely noticed.
  const wifi::RobustCellAggregator robust(store->provenance(),
                                          store->aggregation_params());
  const wifi::RobustCellAggregator pooled(store->provenance(), {0.0, 2});
  const double honest_field = static_cast<double>(field_rssi(kPatchProbe));
  double robust_est = 0.0, pooled_est = 0.0;
  ASSERT_TRUE(robust.estimate(kPatchProbe, 1, &robust_est));
  ASSERT_TRUE(pooled.estimate(kPatchProbe, 1, &pooled_est));
  EXPECT_NEAR(robust_est, honest_field, 3.0);
  EXPECT_LT(pooled_est, robust_est - 5.0);
}

TEST(Poison, QuarantineAndClearMarkersRoundTripThroughRecovery) {
  const std::string dir = "poison_test_review";
  remove_store(dir);
  const UploaderId suspect = 42;
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    ASSERT_TRUE(store.value()->append(field_point({5.0, 5.0}), suspect).has_value());
    ASSERT_TRUE(store.value()->append(field_point({6.0, 5.0})).has_value());
    EXPECT_EQ(store.value()->trusted_points().size(), 2u);
    ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, suspect}).has_value());
    EXPECT_TRUE(store.value()->reputation().is_quarantined(suspect));
    EXPECT_EQ(store.value()->trusted_points().size(), 1u);
    EXPECT_EQ(store.value()->quarantined_point_count(), 1u);
  }
  {
    // Journal replay restores the review verdict.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_TRUE(store.value()->reputation().is_quarantined(suspect));
    EXPECT_EQ(store.value()->quarantined_point_count(), 1u);
    ASSERT_TRUE(store.value()->compact().has_value());
  }
  {
    // So does the snapshot after compaction folded the journal away.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->journaled_since_snapshot(), 0u);
    EXPECT_TRUE(store.value()->reputation().is_quarantined(suspect));
    EXPECT_EQ(store.value()->trusted_points().size(), 1u);
    // Review clears the uploader: a fresh record, points trusted again.
    ASSERT_TRUE(store.value()->append_control({Kind::kClear, suspect}).has_value());
    EXPECT_FALSE(store.value()->reputation().is_quarantined(suspect));
    EXPECT_TRUE(store.value()->reputation().record(suspect) ==
                wifi::UploaderRecord{});
    EXPECT_EQ(store.value()->trusted_points().size(), 2u);
  }
  {
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_FALSE(store.value()->reputation().is_quarantined(suspect));
    EXPECT_EQ(store.value()->trusted_points().size(), 2u);
  }
  remove_store(dir);
}

TEST(Poison, UnknownControlFramesAreRejected) {
  const std::string dir = "poison_test_ctrl";
  remove_store(dir);
  // Control bytes reach a store from outside only as a shipped frame: the
  // follower refuses what does not parse before its WAL sees it.
  auto replica = serve::ShardReplica::open(dir);
  ASSERT_TRUE(replica.has_value()) << replica.error();
  for (const char* bogus : {"#demote 3", "#epoch x", "#quarantine", "#clear -1",
                            "#epoch 184467440737095516160", "#quarantine 07"}) {
    EXPECT_FALSE(wifi::CrowdStore::parse_control(bogus).has_value()) << bogus;
    const net::FrameResponse applied = replica.value()->apply_frame(0, bogus);
    EXPECT_EQ(applied.status, net::FrameResponse::Status::kError) << bogus;
    EXPECT_NE(applied.error.find("unknown control frame"), std::string::npos)
        << applied.error;
  }
  EXPECT_EQ(replica.value()->next_seq(), 0u);
  // Nothing bogus was journaled: reopen sees a clean, empty store.
  replica.value().reset();
  auto reopened = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(reopened.has_value()) << reopened.error();
  EXPECT_EQ(reopened.value()->open_stats().replayed_records, 0u);
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// Determinism of the adversarial layer

TEST(PoisonDeterminism, ReopenReplaysAdversarialStateBitwise) {
  const std::string dir = "poison_test_replay";
  remove_store(dir);
  wifi::ProvenanceGrid live;
  std::string reputation;
  {
    // The honest survey lands in the snapshot; the flood and the review
    // frames stay in the journal tail.
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    for (const auto& [point, uploader] : honest_appends()) {
      ASSERT_TRUE(store.value()->append(point, uploader).has_value());
    }
    ASSERT_TRUE(store.value()->compact().has_value());
    for (const auto& [point, uploader] : poison_appends()) {
      ASSERT_TRUE(store.value()->append(point, uploader).has_value());
    }
    ASSERT_TRUE(store.value()->append_control({Kind::kQuarantine, 77}).has_value());
    ASSERT_TRUE(
        store.value()->append_control({Kind::kClear, kPoisoners[0]}).has_value());
    live = store.value()->provenance();
    reputation = store.value()->reputation().serialize();
    EXPECT_TRUE(ts::fold_provenance(*store.value()) == live);
  }
  const std::size_t honest_count = honest_appends().size();
  const std::size_t tail = poison_appends().size() + 2;
  // Snapshot plus journal tail (the tail is rescored), then — after a
  // compaction — the snapshot alone (nothing is rescored): the grid is
  // refolded from the snapshot's points either way.
  for (const bool compacted : {false, true}) {
    SCOPED_TRACE(compacted ? "snapshot only" : "snapshot + journal tail");
    auto store = wifi::CrowdStore::open(dir);
    ASSERT_TRUE(store.has_value()) << store.error();
    EXPECT_EQ(store.value()->open_stats().snapshot_points,
              compacted ? honest_count + tail - 2 : honest_count);
    EXPECT_EQ(store.value()->open_stats().replayed_records, compacted ? 0u : tail);
    EXPECT_TRUE(store.value()->provenance() == live);
    EXPECT_EQ(store.value()->provenance().serialize(), live.serialize());
    EXPECT_TRUE(ts::fold_provenance(*store.value()) == live);
    EXPECT_EQ(store.value()->reputation().serialize(), reputation);
    EXPECT_TRUE(store.value()->reputation().is_quarantined(77));
    EXPECT_FALSE(store.value()->reputation().is_quarantined(kPoisoners[0]));
    EXPECT_TRUE(store.value()->reputation().is_quarantined(kPoisoners[1]));
    if (!compacted) {
      ASSERT_TRUE(store.value()->compact().has_value());
    }
  }
  remove_store(dir);
}

TEST(PoisonDeterminism, CompactedSnapshotReopensToTheWritersState) {
  // The snapshot alone (no journal tail) must give back every fact the
  // writer held: the points, their uploaders, the refolded provenance grid
  // and the reputation book, quarantines included.
  const std::string dir = "poison_test_snapshot_state";
  remove_store(dir);
  std::vector<std::string> points;
  std::vector<UploaderId> uploaders;
  std::uint64_t provenance = 0;
  std::string reputation;
  {
    auto store = build_poisoned_store(dir);
    ASSERT_TRUE(store->append_control({Kind::kQuarantine, kHonest[0]}).has_value());
    ASSERT_TRUE(store->compact().has_value());
    for (const auto& p : store->points()) {
      points.push_back(wifi::CrowdStore::encode_point(p));
    }
    uploaders = store->uploaders();
    provenance = store->provenance().checksum();
    reputation = store->reputation().serialize();
  }
  auto store = wifi::CrowdStore::open(dir);
  ASSERT_TRUE(store.has_value()) << store.error();
  EXPECT_EQ(store.value()->open_stats().replayed_records, 0u);
  ASSERT_EQ(store.value()->points().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    ASSERT_EQ(wifi::CrowdStore::encode_point(store.value()->point(i)), points[i]) << i;
  }
  EXPECT_EQ(store.value()->uploaders(), uploaders);
  EXPECT_EQ(store.value()->provenance().checksum(), provenance);
  EXPECT_EQ(store.value()->reputation().serialize(), reputation);
  EXPECT_TRUE(store.value()->reputation().is_quarantined(kHonest[0]));
  EXPECT_TRUE(store.value()->reputation().is_quarantined(kPoisoners[0]));
  remove_store(dir);
}

TEST(PoisonDeterminism, FloodOrderAndThreadCountNeverChangeTheVerdict) {
  // The quarantine verdict must be a property of *what* was uploaded, not of
  // arrival interleaving or of the global thread count: shuffle the flood
  // under different seeds and thread settings and demand the same outcome.
  const std::string dir = "poison_test_shuffle";
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_global_threads(threads);
    for (const std::uint64_t trial : {0ull, 1ull, 2ull}) {
      remove_store(dir);
      auto store = wifi::CrowdStore::open(dir);
      ASSERT_TRUE(store.has_value()) << store.error();
      for (const auto& [point, uploader] : honest_appends()) {
        ASSERT_TRUE(store.value()->append(point, uploader).has_value());
      }
      auto flood = poison_appends();
      Rng rng = Rng::substream(0xBADC0DE, trial);
      rng.shuffle(flood);
      for (const auto& [point, uploader] : flood) {
        ASSERT_TRUE(store.value()->append(point, uploader).has_value());
      }
      for (const UploaderId u : kPoisoners) {
        EXPECT_TRUE(store.value()->reputation().is_quarantined(u))
            << "threads " << threads << " trial " << trial << " poisoner " << u;
      }
      for (const UploaderId u : kHonest) {
        EXPECT_FALSE(store.value()->reputation().is_quarantined(u))
            << "threads " << threads << " trial " << trial << " honest " << u;
      }
    }
  }
  set_global_threads(0);
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// Rate cap

TEST(PoisonRateLimit, WindowCapAdmitsThenRefusesThenSlides) {
  wifi::UploaderRateLimiter limiter({.window_appends = 10, .max_per_uploader = 3});
  for (const std::uint64_t tick : {0u, 1u, 2u}) {
    EXPECT_TRUE(limiter.admit(7, tick).has_value());
  }
  auto refused = limiter.admit(7, 3);
  ASSERT_FALSE(refused.has_value());
  EXPECT_NE(refused.error().find("rate cap exceeded"), std::string::npos)
      << refused.error();
  // A refused admission consumes no budget; the window slides on append
  // ordinals, so by tick 12 the three admissions from ticks 0..2 expired.
  EXPECT_FALSE(limiter.admit(7, 9).has_value());
  EXPECT_TRUE(limiter.admit(7, 12).has_value());
  // Anonymous uploads and other uploaders are unaffected throughout.
  EXPECT_TRUE(limiter.admit(kAnonymousUploader, 3).has_value());
  EXPECT_TRUE(limiter.admit(8, 3).has_value());
  // A disabled policy admits everything.
  wifi::UploaderRateLimiter off;
  for (std::uint64_t t = 0; t < 100; ++t) EXPECT_TRUE(off.admit(7, t).has_value());
}

TEST(PoisonRateLimit, WindowBoundaryIsExactOnAppendOrdinals) {
  // An admission at tick t expires exactly at t + window_appends — not one
  // append earlier, not one later.  window=5/max=2 makes every edge visible.
  wifi::UploaderRateLimiter limiter({.window_appends = 5, .max_per_uploader = 2});
  EXPECT_TRUE(limiter.admit(7, 0).has_value());
  EXPECT_TRUE(limiter.admit(7, 1).has_value());
  // Budget exhausted for the whole of [0, 5): the admission from tick 0 is
  // still inside the window at tick 4 (0 + 5 > 4).
  for (const std::uint64_t tick : {2u, 3u, 4u}) {
    EXPECT_FALSE(limiter.admit(7, tick).has_value()) << "tick " << tick;
  }
  // tick 5 is the exact edge: 0 + 5 <= 5 expires the first admission.
  EXPECT_TRUE(limiter.admit(7, 5).has_value());
  // The window now holds {1, 5}; a second admission at the same ordinal must
  // refuse (1 + 5 > 5), and the next edge opens at tick 6.
  EXPECT_FALSE(limiter.admit(7, 5).has_value());
  EXPECT_TRUE(limiter.admit(7, 6).has_value());
  // Far-future tick: everything expired, full budget again.
  EXPECT_TRUE(limiter.admit(7, 100).has_value());
  EXPECT_TRUE(limiter.admit(7, 100).has_value());
  EXPECT_FALSE(limiter.admit(7, 100).has_value());
}

TEST(PoisonRateLimit, ReplayIsExemptFromATunedDownCap) {
  // Admission runs at append time only.  Records the store durably accepted
  // under yesterday's policy must replay in full under today's stricter one —
  // re-litigating history would refuse to recover an acked journal.
  const std::string dir = "poison_test_rate_replay";
  remove_store(dir);
  const std::size_t kAccepted = 6;
  {
    auto store = wifi::CrowdStore::open(dir);  // no cap configured
    ASSERT_TRUE(store.has_value()) << store.error();
    for (std::size_t i = 0; i < kAccepted; ++i) {
      ASSERT_TRUE(
          store.value()->append(field_point({double(i), 1.0}), 7).has_value());
    }
  }
  wifi::CrowdStore::Tuning tuning;
  tuning.rate_policy = {.window_appends = 100, .max_per_uploader = 1};
  auto store = wifi::CrowdStore::open(dir, true, tuning);
  ASSERT_TRUE(store.has_value()) << store.error();
  // All six journaled appends survived replay despite exceeding today's cap.
  EXPECT_EQ(store.value()->points().size(), kAccepted);
  // The cap applies to *fresh* traffic from a clean window: one admission,
  // then refusal — and the refusal journals nothing.
  EXPECT_TRUE(
      store.value()->append(field_point({8.0, 1.0}), 7).has_value());
  const std::uint64_t next = store.value()->next_seq();
  auto refused = store.value()->append(field_point({9.0, 1.0}), 7);
  ASSERT_FALSE(refused.has_value());
  EXPECT_NE(refused.error().find("rate cap exceeded"), std::string::npos);
  EXPECT_EQ(store.value()->next_seq(), next);
  EXPECT_EQ(store.value()->points().size(), kAccepted + 1);
  remove_store(dir);
}

TEST(PoisonRateLimit, StoreRefusesFloodsAtAdmissionDeterministically) {
  const std::string dir = "poison_test_rate";
  remove_store(dir);
  wifi::CrowdStore::Tuning tuning;
  tuning.rate_policy = {.window_appends = 100, .max_per_uploader = 5};
  auto store = wifi::CrowdStore::open(dir, true, tuning);
  ASSERT_TRUE(store.has_value()) << store.error();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        store.value()->append(field_point({double(i), 1.0}), 7).has_value());
  }
  const std::uint64_t next = store.value()->next_seq();
  auto refused = store.value()->append(field_point({5.0, 1.0}), 7);
  ASSERT_FALSE(refused.has_value());
  EXPECT_NE(refused.error().find("rate cap exceeded"), std::string::npos)
      << refused.error();
  // The refusal journaled nothing and mutated nothing.
  EXPECT_EQ(store.value()->next_seq(), next);
  EXPECT_EQ(store.value()->points().size(), 5u);
  // Anonymous and differently-identified uploads still land.
  EXPECT_TRUE(store.value()->append(field_point({6.0, 1.0})).has_value());
  EXPECT_TRUE(store.value()->append(field_point({7.0, 1.0}), 8).has_value());
  remove_store(dir);
}

TEST(PoisonRateLimit, FailedJournalWriteChargesNoBudget) {
  // The budget is charged only once the journal has accepted the record: an
  // append the journal refused was never admitted, so the retry after the
  // fault clears lands within the same one-per-window cap.
  const std::string dir = "poison_test_rate_fault";
  remove_store(dir);
  wifi::CrowdStore::Tuning tuning;
  tuning.rate_policy = {.window_appends = 100, .max_per_uploader = 1};
  auto store = wifi::CrowdStore::open(dir, true, tuning);
  ASSERT_TRUE(store.has_value()) << store.error();
  {
    FaultScope faults(3);
    faults.arm(durable::kFaultAppendPartial, {.fail_first = 1});
    auto failed = store.value()->append(field_point({1.0, 1.0}), 7);
    ASSERT_FALSE(failed.has_value());
    EXPECT_NE(failed.error().find("injected fault"), std::string::npos) << failed.error();
  }
  EXPECT_EQ(store.value()->arrays().size(), 0u);
  auto retried = store.value()->append(field_point({1.0, 1.0}), 7);
  ASSERT_TRUE(retried.has_value()) << retried.error();
  EXPECT_EQ(store.value()->arrays().size(), 1u);
  // The successful append did use the budget.
  auto refused = store.value()->append(field_point({2.0, 1.0}), 7);
  ASSERT_FALSE(refused.has_value());
  EXPECT_NE(refused.error().find("rate cap exceeded"), std::string::npos) << refused.error();
  remove_store(dir);
}

// ---------------------------------------------------------------------------
// Replication carries provenance and review actions

TEST(Poison, ReplicationShipsProvenanceAndQuarantineToFollowers) {
  const std::string leader_dir = "poison_test_leader";
  const std::string follower_dir = "poison_test_follower";
  const std::string boot_dir = "poison_test_boot";
  remove_store(leader_dir);
  remove_store(follower_dir);
  remove_store(boot_dir);

  auto leader = serve::ShardService::open_leader(0, leader_dir);
  ASSERT_TRUE(leader.has_value()) << leader.error();
  auto follower = serve::ShardReplica::open(follower_dir);
  ASSERT_TRUE(follower.has_value()) << follower.error();
  leader.value()->attach_follower(follower.value().get());

  for (const auto& [point, uploader] : honest_appends()) {
    ASSERT_TRUE(leader.value()->ingest(point, uploader).has_value());
  }
  for (const auto& [point, uploader] : poison_appends()) {
    ASSERT_TRUE(leader.value()->ingest(point, uploader).has_value());
  }
  ASSERT_TRUE(leader.value()
                  ->ship_control({Kind::kQuarantine, 77})
                  .has_value());

  const wifi::CrowdStore& ls = *leader.value()->store();
  const wifi::CrowdStore& fs = follower.value()->store();
  // The follower rescored the same frames under the same params: bitwise the
  // same adversarial state, including the auto- and review quarantines.
  EXPECT_EQ(fs.provenance().checksum(), ls.provenance().checksum());
  EXPECT_EQ(fs.reputation().serialize(), ls.reputation().serialize());
  for (const UploaderId u : kPoisoners) {
    EXPECT_TRUE(fs.reputation().is_quarantined(u)) << u;
  }
  EXPECT_TRUE(fs.reputation().is_quarantined(77));

  // A cold bootstrap from the leader's on-disk state converges to it too.
  auto booted = serve::ShardReplica::bootstrap(leader_dir, boot_dir);
  ASSERT_TRUE(booted.has_value()) << booted.error();
  EXPECT_EQ(booted.value()->store().provenance().checksum(),
            ls.provenance().checksum());
  EXPECT_EQ(booted.value()->store().reputation().serialize(),
            ls.reputation().serialize());

  remove_store(leader_dir);
  remove_store(follower_dir);
  remove_store(boot_dir);
}

// ---------------------------------------------------------------------------
// Golden pin: the poisoned-store scenario's full adversarial verdict

TEST(Golden, PoisonedStoreAdversarialStateIsPinned) {
  const std::string dir = "poison_test_golden";
  remove_store(dir);
  auto store = build_poisoned_store(dir);

  std::string out;
  out += "points=" + std::to_string(store->points().size());
  out += " trusted=" + std::to_string(store->trusted_points().size());
  out += " quarantined_points=" + std::to_string(store->quarantined_point_count());
  out += '\n';
  const wifi::RobustCellAggregator robust(store->provenance(),
                                          store->aggregation_params());
  for (int cx = 2; cx <= 3; ++cx) {
    for (int cy = 2; cy <= 3; ++cy) {
      const Enu probe{(cx + 0.5) * kCellM, (cy + 0.5) * kCellM};
      double r = 0.0;
      ASSERT_TRUE(robust.estimate(probe, 1, &r));
      const auto m =
          wifi::reference::pooled_cell_mean(store->points(), kCellM, probe, 1);
      ASSERT_TRUE(m.has_value());
      out += "cell " + std::to_string(cx) + ' ' + std::to_string(cy) +
             " robust=" + ts::canonical_double(r) +
             " pooled=" + ts::canonical_double(*m) + '\n';
    }
  }
  out += "reputation:\n";
  out += store->reputation().serialize();
  out += "provenance_fnv=" + hex64(store->provenance().checksum()) + '\n';
  EXPECT_TRUE(ts::matches_golden("poison_adversarial_state.txt", out));
  remove_store(dir);
}

}  // namespace
}  // namespace trajkit
