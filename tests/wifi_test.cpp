// WiFi RSSI defense: spatial index, RPD estimation (Eq. 4), weights
// (Eqs. 5-6), confidence (Eq. 7), feature vector (Eq. 8), detector J.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/rssi_pipeline.hpp"
#include "core/scenario.hpp"
#include "reference/wifi_reference.hpp"
#include "support/fixtures.hpp"
#include "wifi/confidence.hpp"
#include "wifi/detector.hpp"
#include "wifi/features.hpp"
#include "wifi/refindex.hpp"
#include "wifi/rpd.hpp"

namespace trajkit::wifi {
namespace {

namespace ts = test_support;

ReferencePoint ref(double east, double north, WifiScan scan,
                   std::uint32_t traj = kNoTrajectory) {
  return {{east, north}, std::move(scan), traj};
}

TEST(ScanLookup, FindsAndMisses) {
  const WifiScan scan = {{10, -40}, {20, -55}};
  int out = 0;
  EXPECT_TRUE(reference::scan_lookup(scan, 20, out));
  EXPECT_EQ(out, -55);
  EXPECT_FALSE(reference::scan_lookup(scan, 99, out));
}

TEST(ReferenceIndex, RadiusQueryMatchesBruteForce) {
  Rng rng(1);
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(ref(rng.uniform(0, 100), rng.uniform(0, 100), {}));
  }
  const ReferenceIndex index(pts);
  for (int trial = 0; trial < 20; ++trial) {
    const Enu center{rng.uniform(0, 100), rng.uniform(0, 100)};
    const double radius = rng.uniform(1.0, 20.0);
    auto got = index.within(center, radius);
    std::sort(got.begin(), got.end());
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i].pos, center) <= radius) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(index.count_within(center, radius), want.size());
  }
}

TEST(ReferenceIndex, ExclusionDropsOneTrajectory) {
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {}, 7), ref(1, 0, {}, 7), ref(0, 1, {}, 8)};
  const ReferenceIndex index(pts);
  EXPECT_EQ(index.within({0, 0}, 5.0).size(), 3u);
  EXPECT_EQ(index.within({0, 0}, 5.0, 7).size(), 1u);
  EXPECT_EQ(index.within({0, 0}, 5.0, 8).size(), 2u);
}

TEST(ReferenceIndex, EmptyAndBoundary) {
  const ReferenceIndex empty({});
  EXPECT_TRUE(empty.within({0, 0}, 100.0).empty());

  // Inclusive radius boundary.
  const ReferenceIndex one(std::vector<ReferencePoint>{ref(3, 4, {})});
  EXPECT_EQ(one.within({0, 0}, 5.0).size(), 1u);
  EXPECT_EQ(one.within({0, 0}, 4.999).size(), 0u);
}

TEST(ReferenceIndex, RefusesScansBeyondMatchCountWidth) {
  // Eq. 4 match counts are kept as uint16, and a count never exceeds its
  // scan's observation count: a longer scan is refused, not truncated.
  WifiScan longest(ReferenceIndex::kMaxScanSize, ApObservation{1, -50});
  std::vector<ReferencePoint> pts = {ref(0, 0, longest)};
  EXPECT_NO_THROW(ReferenceIndex{pts});
  pts.push_back(ref(1, 1, longest));
  pts.back().scan.push_back({2, -60});
  EXPECT_THROW(ReferenceIndex{pts}, std::length_error);
  EXPECT_THROW((ReferenceIndex{pts, 4.0, BoundingBox{0.0, 0.0, 10.0, 10.0}}), std::length_error);
}

TEST(ReferenceIndex, PointDecodesItsInputBitwise) {
  // The store keeps each observation as a packed (AP id, RSSI) key and
  // point(h) decodes it: it must give back the constructor's input exactly,
  // since the Eq. 4 oracle, the shard slicer and the model file read it.
  // Scans repeat MACs, some are empty, RSSIs reach both storable limits and
  // MACs both ends of their range; the explicit-bounds grid clamps the
  // points outside it into edge cells.
  Rng rng(21);
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 400; ++i) {
    WifiScan scan;
    const auto m = rng.uniform_int(0, 6);
    for (std::int64_t j = 0; j < m; ++j) {
      scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 40)) * 0x9e3779b97f4a7c15ull,
                      static_cast<int>(rng.uniform_int(kMinValidRssiDbm, kMaxValidRssiDbm))});
      if (rng.chance(0.3)) scan.push_back(scan.back());
    }
    pts.push_back(ref(rng.uniform(-12, 52), rng.uniform(-12, 52), std::move(scan),
                      i % 3 ? static_cast<std::uint32_t>(i / 7) : kNoTrajectory));
  }
  pts.push_back(ref(0.1, 0.2,
                    {{0, kMinValidRssiDbm}, {~std::uint64_t{0}, kMaxValidRssiDbm},
                     {0, kMaxValidRssiDbm}, {~std::uint64_t{0}, kMinValidRssiDbm}}));
  pts.push_back(ref(60.0, -30.0, {}));
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const ReferenceIndex natural(pts);
  const ReferenceIndex clamped(pts, 4.0, BoundingBox{0.0, 0.0, 40.0, 40.0});
  for (const ReferenceIndex* index : {&natural, &clamped}) {
    ASSERT_EQ(index->size(), pts.size());
    for (std::size_t h = 0; h < pts.size(); ++h) {
      const ReferencePoint got = index->point(h);
      EXPECT_EQ(bits(got.pos.east), bits(pts[h].pos.east)) << h;
      EXPECT_EQ(bits(got.pos.north), bits(pts[h].pos.north)) << h;
      EXPECT_EQ(bits(index->pos(h).east), bits(pts[h].pos.east)) << h;
      EXPECT_EQ(bits(index->pos(h).north), bits(pts[h].pos.north)) << h;
      EXPECT_EQ(got.traj_id, pts[h].traj_id) << h;
      EXPECT_EQ(index->traj_id(h), pts[h].traj_id) << h;
      EXPECT_EQ(got.scan, pts[h].scan) << h;
    }
  }
}

TEST(PointArrays, AppendEqualsBuildAtOnceAndARefusalChangesNothing) {
  // append() is the one keying path: arrays appended point by point are the
  // bytes built from the same points at once, and a refused point leaves
  // them as they were, its new MACs unnumbered.
  const auto image = [](const PointArrays& arrays) {
    std::string out;
    arrays.append_image(out);
    return out;
  };
  Rng rng(5);
  std::vector<ReferencePoint> pts;
  PointArrays appended;
  for (int i = 0; i < 200; ++i) {
    WifiScan scan;
    for (std::int64_t j = rng.uniform_int(0, 5); j > 0; --j) {
      scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 60)),
                      static_cast<int>(rng.uniform_int(kMinValidRssiDbm, kMaxValidRssiDbm))});
    }
    pts.push_back(ref(rng.uniform(0, 40), rng.uniform(0, 40), std::move(scan), i / 10));
    appended.append(pts.back());
  }
  EXPECT_EQ(image(appended), image(PointArrays(pts)));

  const std::string before = image(appended);
  const WifiScan too_long(PointArrays::kMaxScanSize + 1, ApObservation{1000, -50});
  EXPECT_THROW(appended.check(ref(1, 1, too_long)), std::length_error);
  EXPECT_THROW(appended.append(ref(1, 1, too_long)), std::length_error);
  const ReferencePoint bad_rssi = ref(1, 1, {{1001, -50}, {1002, kMaxValidRssiDbm + 1}});
  EXPECT_THROW(appended.append(bad_rssi), std::out_of_range);
  EXPECT_EQ(image(appended), before);
  // The next accepted point numbers MAC 1001 as if the refusals never were.
  pts.push_back(ref(2, 2, {{1001, -60}}));
  appended.append(pts.back());
  EXPECT_EQ(image(appended), image(PointArrays(pts)));
}

TEST(ReferenceIndex, RefusesRssiOutsideStorableRange) {
  // A key stores the RSSI's offset from kMinValidRssiDbm in 8 bits, so the
  // index holds exactly the range validate_scan accepts and refuses the rest.
  const std::vector<ReferencePoint> limits = {
      ref(0, 0, {{1, kMinValidRssiDbm}}), ref(1, 1, {{2, kMaxValidRssiDbm}})};
  EXPECT_NO_THROW(ReferenceIndex{limits});
  for (const int rssi : {-121, 31}) {
    std::vector<ReferencePoint> pts = limits;
    pts.push_back(ref(2, 2, {{2, -60}, {3, rssi}}));
    EXPECT_THROW(ReferenceIndex{pts}, std::out_of_range) << rssi;
    EXPECT_THROW((ReferenceIndex{pts, 4.0, BoundingBox{0.0, 0.0, 10.0, 10.0}}),
                 std::out_of_range)
        << rssi;
  }
}

TEST(ReferenceIndex, RefusesGridBeyondCellCap) {
  // The grid spans the bounding box: two points 4e6 m apart on one axis ask
  // for 1e6 x 2 cells at 4 m, 1e5 m apart on both for 25,001^2.  Both are
  // refused before anything is allocated, as is an explicit extent too large
  // for the points it holds.
  const auto pair = [](double east, double north) {
    return std::vector<ReferencePoint>{ref(0, 0, {{1, -50}}), ref(east, north, {{1, -52}})};
  };
  EXPECT_NO_THROW(ReferenceIndex{pair(4e3, 4e3)});
  for (const auto& [east, north] : {std::pair{4e6, 0.0}, std::pair{1e5, 1e5}}) {
    try {
      ReferenceIndex index(pair(east, north));
      ADD_FAILURE() << east << ", " << north << ": " << index.size() << " points indexed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("exceeds the cap"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((ReferenceIndex{pair(1, 1), 4.0, BoundingBox{0.0, 0.0, 1e5, 1e5}}),
               std::invalid_argument);
  // The floor: an empty slice under a 4 km square still indexes.
  EXPECT_NO_THROW((ReferenceIndex{{}, 4.0, BoundingBox{0.0, 0.0, 4e3, 4e3}}));
}

TEST(Rpd, ExactMatchRatio) {
  // Counting circle of H contains 4 points; mac 1 reads -50 twice, -52 once,
  // absent once => RPD(-50) = 2/4, RPD(-52) = 1/4, RPD(-60) = 0.
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {{1, -50}}),
      ref(1, 0, {{1, -50}}),
      ref(0, 1, {{1, -52}}),
      ref(1, 1, {{2, -70}}),
  };
  const ReferenceIndex index(pts);
  const reference::RpdOracle rpd(index, {.counting_radius_m = 3.0});
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -50), 0.5);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -52), 0.25);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 1, -60), 0.0);
  EXPECT_DOUBLE_EQ(rpd.rpd(0, 99, -50), 0.0);  // unknown AP
  EXPECT_EQ(rpd.counting_size(0), 4u);
}

TEST(Rpd, ToleranceSmoothsMatches) {
  std::vector<ReferencePoint> pts = {
      ref(0, 0, {{1, -50}}),
      ref(1, 0, {{1, -51}}),
  };
  const ReferenceIndex index(pts);
  const reference::RpdOracle exact(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 0});
  const reference::RpdOracle smooth(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 1});
  EXPECT_DOUBLE_EQ(exact.rpd(0, 1, -50), 0.5);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -50), 1.0);
}

TEST(Rpd, CountsRepeatedObservationsOfOneMac) {
  // validate_scan accepts a scan that repeats a MAC; Eq. 4 counts each
  // matching observation, so point 0's two -50 readings both count.
  const ReferenceIndex index(
      std::vector<ReferencePoint>{ref(0, 0, {{1, -50}, {1, -50}}), ref(1, 0, {{1, -51}})});
  const reference::RpdOracle exact(index, {.counting_radius_m = 3.0});
  const reference::RpdOracle smooth(index, {.counting_radius_m = 3.0, .rssi_tolerance_db = 1});
  EXPECT_DOUBLE_EQ(exact.rpd(0, 1, -50), 1.0);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -50), 1.5);
  EXPECT_DOUBLE_EQ(smooth.rpd(0, 1, -51), 1.5);
}

TEST(Rpd, DensityAndTheta2Monotone) {
  // Two clusters of different density.
  std::vector<ReferencePoint> dense;
  for (int i = 0; i < 20; ++i) {
    dense.push_back(ref(i * 0.1, 0, {}));
  }
  dense.push_back(ref(100, 100, {}));  // isolated point
  const ReferenceIndex index(dense);
  const reference::RpdOracle rpd(index, {.counting_radius_m = 3.0});
  EXPECT_GT(rpd.density(0), rpd.density(20));
  EXPECT_GT(rpd.theta2(0), rpd.theta2(20));
  EXPECT_GT(rpd.theta2(0), 0.0);
  EXPECT_LT(rpd.theta2(0), 1.0);
}

TEST(Rpd, ValidatesParams) {
  EXPECT_THROW(RpdEstimator({.counting_radius_m = 0.0}), std::invalid_argument);
  EXPECT_THROW(RpdEstimator({.counting_radius_m = 1.0, .theta2_base = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      RpdEstimator({.counting_radius_m = 1.0, .rssi_tolerance_db = -1}),
      std::invalid_argument);
}

TEST(Confidence, PerfectAgreementGivesHighPhi) {
  // All reference points in a tight cluster agree: mac 1 reads -50.
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 10; ++i) {
    pts.push_back(ref(i * 0.3, 0, {{1, -50}}));
  }
  const ReferenceIndex index(pts);
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .top_k = 4, .rpd = {}});
  const auto good = estimator.point_confidence({1.0, 0.2}, {{1, -50}});
  ASSERT_EQ(good.size(), 1u);
  const auto bad = estimator.point_confidence({1.0, 0.2}, {{1, -60}});
  EXPECT_GT(good[0].phi, 10.0 * bad[0].phi + 1e-9);
  EXPECT_GT(good[0].num_refs, 0u);
}

TEST(Confidence, CloserReferencesWeighMore) {
  // Two references with conflicting readings; the nearer one should dominate.
  // The RPD counting radius is kept below their separation so each reference
  // votes from its own histogram.
  std::vector<ReferencePoint> pts = {
      ref(0.2, 0, {{1, -50}}),  // near, says -50
      ref(2.4, 0, {{1, -70}}),  // far, says -70
  };
  const ReferenceIndex index(pts);
  ConfidenceParams params;
  params.reference_radius_m = 2.5;
  params.top_k = 1;
  params.rpd.counting_radius_m = 1.0;
  const ConfidenceEstimator estimator(index, params);
  const auto at_near = estimator.point_confidence({0.0, 0.0}, {{1, -50}});
  const auto at_far = estimator.point_confidence({0.0, 0.0}, {{1, -70}});
  EXPECT_GT(at_near[0].phi, at_far[0].phi);
}

TEST(Confidence, NoReferencesMeansZeroPhi) {
  const ReferenceIndex index(std::vector<ReferencePoint>{ref(100, 100, {{1, -40}})});
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .rpd = {}});
  const auto out = estimator.point_confidence({0, 0}, {{1, -40}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].phi, 0.0);
  EXPECT_EQ(out[0].num_refs, 0u);
  EXPECT_EQ(estimator.reference_count({0, 0}), 0u);
}

TEST(Confidence, TopKTruncatesScan) {
  const ReferenceIndex index(std::vector<ReferencePoint>{ref(0, 0, {{1, -40}, {2, -50}, {3, -60}})});
  const ConfidenceEstimator estimator(index, {.reference_radius_m = 2.5, .top_k = 2, .rpd = {}});
  const auto out =
      estimator.point_confidence({0.5, 0}, {{1, -40}, {2, -50}, {3, -60}});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].mac, 1u);
  EXPECT_EQ(out[1].mac, 2u);
}

TEST(Confidence, DirectCountMatchesRpdDefinition) {
  // Small seeded worlds in which neighbour scans repeat a MAC, at the same
  // RSSI or 1 dB apart: point_confidence must equal, bit for bit, Eq. 7 summed
  // over C_O(r) in within() order from the plain Eq. 4 definition.
  constexpr double kRadius = 2.5;
  std::size_t repeated_scans = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<ReferencePoint> pts;
    for (int i = 0; i < 80; ++i) {
      WifiScan scan;
      const auto m = rng.uniform_int(1, 4);
      for (std::int64_t j = 0; j < m; ++j) {
        scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 5)),
                        static_cast<int>(rng.uniform_int(-52, -50))});
        if (rng.chance(0.3)) {
          scan.push_back({scan.back().mac,
                          scan.back().rssi_dbm + static_cast<int>(rng.uniform_int(0, 1))});
        }
      }
      const auto repeats = [&scan](const ApObservation& obs) {
        return std::count_if(scan.begin(), scan.end(), [&](const ApObservation& o) {
                 return o.mac == obs.mac;
               }) > 1;
      };
      if (std::any_of(scan.begin(), scan.end(), repeats)) ++repeated_scans;
      pts.push_back(ref(rng.uniform(0, 8), rng.uniform(0, 8), std::move(scan),
                        static_cast<std::uint32_t>(i % 6)));
    }
    const ReferenceIndex index(pts);

    for (const int tol : {0, 1}) {
      for (const std::uint32_t exclude : {kNoTrajectory, 2u}) {
        ConfidenceParams params;
        params.reference_radius_m = kRadius;
        params.top_k = 4;
        params.rpd.rssi_tolerance_db = tol;
        const ConfidenceEstimator estimator(index, params);
        const reference::RpdOracle rpd(index, params.rpd);
        for (int probe = 0; probe < 12; ++probe) {
          const Enu pos{rng.uniform(0, 8), rng.uniform(0, 8)};
          WifiScan scan;
          for (int j = 0; j < 6; ++j) {
            scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 5)),
                            static_cast<int>(rng.uniform_int(-52, -50))});
          }
          const auto got = estimator.point_confidence(pos, scan, exclude);
          ASSERT_EQ(got.size(), params.top_k);

          const auto refs = index.within(pos, kRadius, exclude);
          std::vector<double> inv(refs.size());
          double inv_sum = 0.0;
          for (std::size_t i = 0; i < refs.size(); ++i) {
            inv[i] = 1.0 / std::max(distance(index.pos(refs[i]), pos), 0.05);
            inv_sum += inv[i];
          }
          for (std::size_t a = 0; a < got.size(); ++a) {
            double phi = 0.0;
            std::size_t num_refs = 0;
            for (std::size_t i = 0; i < refs.size(); ++i) {
              const std::size_t h = refs[i];
              const double theta1 = inv[i] / inv_sum;
              phi += theta1 * rpd.theta2(h) * rpd.rpd(h, scan[a].mac, scan[a].rssi_dbm);
              int observed = 0;
              if (reference::scan_lookup(index.point(h).scan, scan[a].mac, observed)) ++num_refs;
            }
            EXPECT_EQ(got[a].phi, phi)
                << "seed " << seed << " tol " << tol << " probe " << probe << " ap " << a;
            EXPECT_EQ(got[a].num_refs, num_refs);
          }
        }
      }
    }
  }
  EXPECT_GT(repeated_scans, 10u) << "the worlds must put repeated MACs in counting circles";
}

/// Eq. 7 at `pos` straight from the definitions: theta_1 over C_O(r) in
/// within() order, theta_2 and RPD from the plain Eq. 4 oracle.
std::vector<ApConfidence> confidence_by_definition(const ReferenceIndex& index,
                                                   const ConfidenceParams& params,
                                                   const Enu& pos, const WifiScan& scan,
                                                   std::uint32_t exclude) {
  const reference::RpdOracle rpd(index, params.rpd);
  const auto refs = index.within(pos, params.reference_radius_m, exclude);
  std::vector<double> inv(refs.size());
  double inv_sum = 0.0;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    inv[i] = 1.0 / std::max(distance(index.pos(refs[i]), pos), 0.05);
    inv_sum += inv[i];
  }
  std::vector<ApConfidence> out(std::min(params.top_k, scan.size()));
  for (std::size_t a = 0; a < out.size(); ++a) {
    out[a].mac = scan[a].mac;
    out[a].rssi_dbm = scan[a].rssi_dbm;
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const std::size_t h = refs[i];
      out[a].phi +=
          inv[i] / inv_sum * rpd.theta2(h) * rpd.rpd(h, scan[a].mac, scan[a].rssi_dbm);
      int observed = 0;
      if (reference::scan_lookup(index.point(h).scan, scan[a].mac, observed)) ++out[a].num_refs;
    }
  }
  return out;
}

/// A scan of 1..`max_aps` observations over MACs 1..6 at -53..-50 dBm, so
/// counting circles hold matches, sometimes repeating a MAC.
WifiScan random_scan(Rng& rng, int max_aps) {
  WifiScan scan;
  const auto m = rng.uniform_int(1, max_aps);
  for (std::int64_t j = 0; j < m; ++j) {
    scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 6)),
                    static_cast<int>(rng.uniform_int(-53, -50))});
    if (rng.chance(0.2)) scan.push_back(scan.back());
  }
  return scan;
}

TEST(Confidence, SingleGatherMatchesVisitNeighbourSets) {
  // point_confidence partitions every C_H(R) out of one gather around O.
  // Worlds spanning many cells make references' windows cover different
  // parts of the gather; phi and num_refs must still equal the definition
  // bit for bit.
  const auto check = [](const ReferenceIndex& index, const ConfidenceParams& params,
                        const Enu& pos, const WifiScan& scan, std::uint32_t exclude,
                        const std::string& label) {
    const ConfidenceEstimator estimator(index, params);
    const auto got = estimator.point_confidence(pos, scan, exclude);
    const auto want = confidence_by_definition(index, params, pos, scan, exclude);
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t a = 0; a < got.size(); ++a) {
      EXPECT_EQ(got[a].mac, want[a].mac) << label << " ap " << a;
      EXPECT_EQ(got[a].phi, want[a].phi) << label << " ap " << a;
      EXPECT_EQ(got[a].num_refs, want[a].num_refs) << label << " ap " << a;
    }
  };
  const auto probe_scan = [](Rng& rng) {
    WifiScan scan;
    for (int j = 0; j < 6; ++j) {
      scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 6)),
                      static_cast<int>(rng.uniform_int(-53, -50))});
    }
    return scan;
  };

  // (a) and (b): a 48 x 48 m world, ~12 x 12 cells of 4 m, with R = 3 m
  // (windows reach one cell) and R = 5 m (two cells).
  for (const std::uint64_t seed : {11u, 12u}) {
    Rng rng(seed);
    std::vector<ReferencePoint> pts;
    for (int i = 0; i < 1500; ++i) {
      pts.push_back(ref(rng.uniform(0, 48), rng.uniform(0, 48), random_scan(rng, 4),
                        static_cast<std::uint32_t>(i % 9)));
    }
    const ReferenceIndex index(pts);
    for (const double counting_radius : {3.0, 5.0}) {
      for (const int tol : {0, 1}) {
        ConfidenceParams params;
        params.top_k = 4;
        params.rpd.counting_radius_m = counting_radius;
        params.rpd.rssi_tolerance_db = tol;
        for (int probe = 0; probe < 40; ++probe) {
          const Enu pos{rng.uniform(0, 48), rng.uniform(0, 48)};
          const std::uint32_t exclude = probe % 2 ? kNoTrajectory : 4u;
          check(index, params, pos, probe_scan(rng), exclude,
                "seed " + std::to_string(seed) + " R " + std::to_string(counting_radius) +
                    " tol " + std::to_string(tol) + " probe " + std::to_string(probe));
        }
      }
    }
  }

  // (c): an explicit 40 x 40 m grid with points up to 12 m outside it on
  // every side.  Outside points are stored clamped into edge cells, while a
  // query cell is truncated toward zero (below the minimum too) and not
  // clamped, so a reference more than a window's reach outside the grid
  // walks no cell at all: its C_H(R) is empty although clamped points lie
  // within R of it.
  {
    Rng rng(13);
    std::vector<ReferencePoint> pts;
    for (int i = 0; i < 2000; ++i) {
      pts.push_back(ref(rng.uniform(-12, 52), rng.uniform(-12, 52), random_scan(rng, 4)));
    }
    const ReferenceIndex index(pts, 4.0, BoundingBox{0.0, 0.0, 40.0, 40.0});
    std::size_t clipped = 0;  // references whose C_H(R) misses points within R
    const reference::RpdOracle oracle(index, RpdParams{});
    for (std::size_t h = 0; h < index.size(); ++h) {
      std::size_t true_count = 0;
      for (std::size_t q = 0; q < index.size(); ++q) {
        true_count += distance(index.pos(q), index.pos(h)) <= 3.0;
      }
      clipped += oracle.counting_size(h) < true_count;
    }
    EXPECT_GT(clipped, 100u) << "the world must put references where windows clip";

    for (const double counting_radius : {3.0, 5.0}) {
      ConfidenceParams params;
      params.top_k = 4;
      params.rpd.counting_radius_m = counting_radius;
      for (int probe = 0; probe < 120; ++probe) {
        // Half the probes sit in the 12 m frame outside the grid.
        Enu pos{rng.uniform(-12, 52), rng.uniform(-12, 52)};
        if (probe % 2 == 0) {
          const double edge = rng.uniform(0, 12);
          const double along = rng.uniform(-12, 52);
          switch (probe / 2 % 4) {
            case 0: pos = {-edge, along}; break;
            case 1: pos = {40.0 + edge, along}; break;
            case 2: pos = {along, -edge}; break;
            default: pos = {along, 40.0 + edge}; break;
          }
        }
        check(index, params, pos, probe_scan(rng), kNoTrajectory,
              "bounds R " + std::to_string(counting_radius) + " probe " +
                  std::to_string(probe));
      }
    }
  }

  // (d): a scan shorter than top_k, an empty scan, and a probe with no
  // references in C_O(r).
  {
    Rng rng(14);
    std::vector<ReferencePoint> pts;
    for (int i = 0; i < 400; ++i) {
      pts.push_back(ref(rng.uniform(0, 20), rng.uniform(0, 20), random_scan(rng, 4)));
    }
    const ReferenceIndex index(pts);
    ConfidenceParams params;
    params.top_k = 8;
    for (int probe = 0; probe < 10; ++probe) {
      const Enu pos{rng.uniform(0, 20), rng.uniform(0, 20)};
      WifiScan short_scan = probe_scan(rng);
      short_scan.resize(3);
      check(index, params, pos, short_scan, kNoTrajectory, "short " + std::to_string(probe));
      check(index, params, pos, {}, kNoTrajectory, "empty " + std::to_string(probe));
    }
    const Enu far{100.0, 100.0};
    ASSERT_TRUE(index.within(far, params.reference_radius_m).empty());
    check(index, params, far, probe_scan(rng), kNoTrajectory, "no references");
  }
}

TEST(Confidence, UnseenMacsAndClippedWindowsMatchDefinition) {
  // Stored RSSIs crowd both ends of the storable range.  A lane window
  // reaching past an end is clipped to it, one wholly outside it is empty,
  // and a lane whose MAC no point observed matches nothing: phi and
  // num_refs must still equal the definition bit for bit.
  Rng rng(22);
  std::vector<ReferencePoint> pts;
  for (int i = 0; i < 300; ++i) {
    WifiScan scan;
    for (int j = 0; j < 4; ++j) {
      scan.push_back({static_cast<std::uint64_t>(rng.uniform_int(1, 4)),
                      static_cast<int>(rng.chance(0.5)
                                           ? rng.uniform_int(kMinValidRssiDbm, kMinValidRssiDbm + 3)
                                           : rng.uniform_int(kMaxValidRssiDbm - 3, kMaxValidRssiDbm))});
    }
    pts.push_back(ref(rng.uniform(0, 10), rng.uniform(0, 10), std::move(scan)));
  }
  const ReferenceIndex index(pts);
  // MAC 99 is unseen; -122 and 32 lie outside the storable range.  At the
  // largest tolerances every window spans the whole range, and one that
  // spilled past it would count other APs' keys.
  const WifiScan probe = {{99, -119}, {1, -119}, {2, 29}, {3, -122}, {4, 32}, {1, kMaxValidRssiDbm}};
  for (const int tol : {0, 2, 5, 150, std::numeric_limits<int>::max()}) {
    ConfidenceParams params;
    params.top_k = probe.size();
    params.rpd.rssi_tolerance_db = tol;
    const ConfidenceEstimator estimator(index, params);
    for (int p = 0; p < 20; ++p) {
      const Enu pos{rng.uniform(0, 10), rng.uniform(0, 10)};
      const auto got = estimator.point_confidence(pos, probe);
      const auto want = confidence_by_definition(index, params, pos, probe, kNoTrajectory);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_FALSE(index.within(pos, params.reference_radius_m).empty());
      EXPECT_EQ(got[0].phi, 0.0);
      EXPECT_EQ(got[0].num_refs, 0u);
      for (std::size_t a = 0; a < got.size(); ++a) {
        EXPECT_EQ(got[a].phi, want[a].phi) << "tol " << tol << " probe " << p << " ap " << a;
        EXPECT_EQ(got[a].num_refs, want[a].num_refs)
            << "tol " << tol << " probe " << p << " ap " << a;
      }
      // Windows that reach a stored end match; -122 and 32 do once the
      // tolerance reaches the range.
      EXPECT_GT(got[1].phi, 0.0) << "tol " << tol << " probe " << p;
      EXPECT_EQ(got[3].phi > 0.0, tol >= 2) << "tol " << tol << " probe " << p;
      EXPECT_EQ(got[4].phi > 0.0, tol >= 2) << "tol " << tol << " probe " << p;
    }
  }
}

TEST(Confidence, ServingDensityMatchesDefinition) {
  // The walking scenario's clustered histories at two densities, probed at
  // sampled points of fresh trajectories and of the history itself (with and
  // without leaving the probe's own trajectory out).  top_k 13 spans two
  // 8-lane blocks of the match count and presence passes.
  core::Scenario scenario(core::ScenarioConfig::for_mode(Mode::kWalking));
  for (const std::size_t trajectories : {150u, 600u}) {
    std::vector<ScannedUpload> history;
    for (const auto& t : scenario.scanned_real(trajectories, 30, 2.0)) {
      history.push_back(core::to_upload(t));
    }
    const ReferenceIndex index(flatten_history(history));
    struct Probe {
      Enu pos;
      WifiScan scan;
      std::uint32_t own_traj;
    };
    std::vector<Probe> probes;
    for (const auto& t : scenario.scanned_real(3, 30, 2.0)) {
      const auto upload = core::to_upload(t);
      for (std::size_t i = 0; i < upload.positions.size(); i += 6) {
        probes.push_back({upload.positions[i], upload.scans[i], kNoTrajectory});
      }
    }
    for (std::size_t t = 0; t < history.size(); t += trajectories / 5) {
      for (std::size_t i = 3; i < history[t].positions.size(); i += 9) {
        probes.push_back({history[t].positions[i], history[t].scans[i],
                          static_cast<std::uint32_t>(t)});
      }
    }
    std::size_t wide_scans = 0;  // probes whose scan reaches the second lane block
    std::size_t dense_probes = 0;  // ~10 references at 150 trajectories, ~40 at 600
    for (const Probe& probe : probes) {
      wide_scans += probe.scan.size() > 8;
      dense_probes += index.within(probe.pos, 2.5).size() >= trajectories / 15;
    }
    EXPECT_GT(wide_scans, probes.size() / 2) << "most probe scans must reach the second lane block";
    EXPECT_GT(dense_probes, probes.size() / 2) << "the history must be dense around the probes";
    for (const int tol : {0, 1}) {
      ConfidenceParams params;
      params.top_k = 13;
      params.rpd.rssi_tolerance_db = tol;
      const ConfidenceEstimator estimator(index, params);
      for (std::size_t p = 0; p < probes.size(); ++p) {
        const Probe& probe = probes[p];
        for (const std::uint32_t exclude : {kNoTrajectory, probe.own_traj}) {
          const auto got = estimator.point_confidence(probe.pos, probe.scan, exclude);
          const auto want = confidence_by_definition(index, params, probe.pos, probe.scan, exclude);
          ASSERT_EQ(got.size(), want.size());
          for (std::size_t a = 0; a < got.size(); ++a) {
            EXPECT_EQ(got[a].mac, want[a].mac);
            EXPECT_EQ(got[a].phi, want[a].phi)
                << trajectories << " trajectories, tol " << tol << ", probe " << p
                << ", exclude " << exclude << ", ap " << a;
            EXPECT_EQ(got[a].num_refs, want[a].num_refs)
                << trajectories << " trajectories, tol " << tol << ", probe " << p << ", ap "
                << a;
          }
        }
      }
    }
  }
}

TEST(Confidence, CountsBeyondUint8) {
  // One reference repeats a (mac, rssi) pair 300 times, more than a uint8
  // count holds; its neighbours see it once.  Every reference's counting
  // circle holds that scan, so each RPD reads 301 matches over 3 points.
  WifiScan repeated(300, ApObservation{7, -50});
  repeated.push_back({8, -60});
  const std::vector<ReferencePoint> pts = {
      ref(0.0, 0.0, repeated),
      ref(0.5, 0.0, {{7, -50}}),
      ref(0.0, 0.5, {{8, -60}, {7, -51}}),
  };
  const ReferenceIndex index(pts);
  for (const int tol : {0, 1}) {
    ConfidenceParams params;
    params.rpd.rssi_tolerance_db = tol;
    const ConfidenceEstimator estimator(index, params);
    const WifiScan probe = {{7, -50}, {8, -60}};
    const auto got = estimator.point_confidence({0.2, 0.2}, probe);
    const auto want = confidence_by_definition(index, params, {0.2, 0.2}, probe, kNoTrajectory);
    ASSERT_EQ(got.size(), 2u);
    for (std::size_t a = 0; a < got.size(); ++a) {
      EXPECT_EQ(got[a].phi, want[a].phi) << "tol " << tol << " ap " << a;
      EXPECT_EQ(got[a].num_refs, want[a].num_refs) << "tol " << tol << " ap " << a;
    }
    const reference::RpdOracle oracle(index, params.rpd);
    EXPECT_EQ(oracle.rpd(1, 7, -50), (tol == 0 ? 301.0 : 302.0) / 3.0);
    EXPECT_EQ(got[0].num_refs, 3u);
    EXPECT_EQ(got[1].num_refs, 2u);
  }
}

TEST(Confidence, Theta2TableIsTheta2For) {
  // The table point_confidence reads theta_2 from must be theta2_for's own
  // doubles, bit for bit, inside the table and past its end.
  const ReferenceIndex index(std::vector<ReferencePoint>{ref(0, 0, {{1, -50}})});
  for (const double radius : {3.0, 1.7, 8.0}) {
    for (const double base : {0.9, 0.5, 0.99}) {
      ConfidenceParams params;
      params.rpd.counting_radius_m = radius;
      params.rpd.theta2_base = base;
      const ConfidenceEstimator estimator(index, params);
      for (std::size_t n = 0; n < ConfidenceEstimator::kTheta2TableSize + 64; ++n) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(estimator.theta2(n)),
                  std::bit_cast<std::uint64_t>(estimator.rpd().theta2_for(n)))
            << "R " << radius << " base " << base << " n " << n;
      }
    }
  }
}

TEST(Confidence, AblationSwitchesChangeWeights) {
  std::vector<ReferencePoint> pts = {
      ref(0.2, 0, {{1, -50}}),
      ref(2.0, 0, {{1, -50}}),
  };
  const ReferenceIndex index(pts);
  ConfidenceParams with;
  with.reference_radius_m = 2.5;
  ConfidenceParams without = with;
  without.use_theta1 = false;
  without.use_theta2 = false;
  const ConfidenceEstimator a(index, with);
  const ConfidenceEstimator b(index, without);
  // Without theta2 damping, phi is the plain average of RPDs = 1.0.
  EXPECT_NEAR(b.point_confidence({0, 0}, {{1, -50}})[0].phi, 1.0, 1e-9);
  EXPECT_LT(a.point_confidence({0, 0}, {{1, -50}})[0].phi, 1.0);
}

TEST(Features, WidthAndPadding) {
  RssiDetectorConfig config;
  config.confidence.reference_radius_m = 2.5;
  config.confidence.top_k = 3;
  const RssiDetector detector(std::vector<ReferencePoint>{ref(0, 0, {{1, -40}})}, config);
  ScannedUpload upload;
  upload.positions = {{0, 0}, {1, 0}};
  upload.scans = {{{1, -40}}, {}};  // second point heard nothing
  std::vector<double> f;
  std::vector<double> scores;
  detector.segment_features(upload, f, scores);
  EXPECT_EQ(f.size(), 12u);  // 2 points * 3 aps * 2 values
  EXPECT_EQ(scores.size(), 2u);
  // Padding entries are zero.
  for (std::size_t i = 2; i < 6; ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_DOUBLE_EQ(f[i], 0.0);
  EXPECT_DOUBLE_EQ(scores[1], 0.0);  // no AP, no confidence
}

TEST(Features, MismatchedUploadRejected) {
  const RssiDetector detector(std::vector<ReferencePoint>{ref(0, 0, {})});
  ScannedUpload upload;
  upload.positions = {{0, 0}};
  upload.scans = {};
  std::vector<double> f;
  std::vector<double> scores;
  EXPECT_THROW(detector.segment_features(upload, f, scores), std::invalid_argument);
}

TEST(Detector, SeparatesMatchingFromMismatchedRssi) {
  // Synthetic world: a spatial RSSI field rssi(x) = -40 - x (1 dB per metre).
  // Real uploads report the field value at their position; fakes report the
  // field value 10 m away.  The detector must learn the difference.
  ts::LinearWorldConfig cfg;
  cfg.seed = 2;
  cfg.area_m = 40.0;
  cfg.margin_m = 5.0;
  cfg.history_points = 2000;
  cfg.upload_points = 5;
  cfg.fake_shift_m = 10.0;
  cfg.train_pairs = 60;
  cfg.trees = 40;
  cfg.reference_radius_m = 2.5;
  ts::LinearFieldWorld w(cfg);

  int correct = 0;
  for (int i = 0; i < 40; ++i) {
    correct += w.detector().analyze(w.upload(true)).verdict == 1;
    correct += w.detector().analyze(w.upload(false)).verdict == 0;
  }
  EXPECT_GT(correct, 72);  // > 90%
}

TEST(Detector, SaveLoadRoundTrip) {
  ts::LinearWorldConfig cfg;
  cfg.seed = 3;
  cfg.margin_m = 5.0;
  cfg.history_points = 500;
  cfg.upload_points = 4;
  cfg.fake_shift_m = 8.0;
  ts::LinearFieldWorld w(cfg);

  const auto loaded = RssiDetector::decode(w.detector().image());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  ASSERT_EQ(loaded.value()->index().size(), w.detector().index().size());
  for (int i = 0; i < 20; ++i) {
    const auto upload = w.upload(i % 2 == 0);
    EXPECT_NEAR(w.detector().analyze(upload).p_real,
                loaded.value()->analyze(upload).p_real, 1e-12);
  }
}

TEST(Detector, LoadRejectsGarbage) {
  EXPECT_FALSE(RssiDetector::decode("definitely_not_a_detector").has_value());
}

TEST(Detector, TryLoadReportsGarbageAsError) {
  const auto result = RssiDetector::decode("definitely_not_a_detector");
  ASSERT_FALSE(result.has_value());
  EXPECT_NE(result.error().find("bad magic"), std::string::npos) << result.error();
}

TEST(Detector, ThresholdPersistsThroughSaveLoad) {
  RssiDetectorConfig cfg;
  cfg.threshold = 0.65;
  RssiDetector detector(std::vector<ReferencePoint>{ref(0, 0, {{1, -50}})}, cfg);
  const auto loaded = RssiDetector::decode(detector.image());
  ASSERT_TRUE(loaded.has_value()) << loaded.error();
  EXPECT_DOUBLE_EQ(loaded.value()->config().threshold, 0.65);
}

TEST(Detector, LoadedHugeToleranceSpansTheStorableRange) {
  // A model file may carry any non-negative RSSI tolerance.  At 2147483647
  // the lane window rssi +- tolerance does not fit an int; it is clipped in
  // 64-bit arithmetic to the storable range, so the verdicts equal those at
  // 150 dB, whose windows already span it.  The UBSan leg runs this.
  ts::LinearWorldConfig cfg;
  cfg.seed = 5;
  cfg.history_points = 500;
  cfg.upload_points = 4;
  cfg.fake_shift_m = 8.0;
  ts::LinearFieldWorld w(cfg);

  // The same store, classifier and config but for the tolerance, through a
  // saved model image.
  const auto load_with_tolerance = [&w](int tolerance) {
    const RssiDetector& base = w.detector();
    RssiDetectorConfig config = base.config();
    config.confidence.rpd.rssi_tolerance_db = tolerance;
    std::vector<ReferencePoint> points;
    for (std::size_t h = 0; h < base.index().size(); ++h) points.push_back(base.index().point(h));
    const auto detector =
        RssiDetector::assemble(points, config, base.classifier(), base.trained_points());
    return RssiDetector::decode(detector->image());
  };
  const auto huge = load_with_tolerance(2147483647);
  ASSERT_TRUE(huge.has_value()) << huge.error();
  EXPECT_EQ(huge.value()->config().confidence.rpd.rssi_tolerance_db, 2147483647);
  const auto full = load_with_tolerance(150);
  ASSERT_TRUE(full.has_value()) << full.error();
  for (int i = 0; i < 20; ++i) {
    const auto upload = w.upload(i % 2 == 0);
    EXPECT_EQ(huge.value()->analyze(upload).canonical_string(),
              full.value()->analyze(upload).canonical_string())
        << i;
  }
}

TEST(Detector, RejectsOutOfRangeThreshold) {
  RssiDetectorConfig cfg;
  cfg.threshold = 1.5;
  EXPECT_THROW(RssiDetector(std::vector<ReferencePoint>{ref(0, 0, {})}, cfg),
               std::invalid_argument);
}

// Split-pipeline/analyze agreement lives in tests/equivalence_test.cpp
// (property sweep over random uploads and thresholds).

TEST(Detector, PointScoresLocaliseMismatchedStretch) {
  Rng rng(4);
  auto field = [](const Enu& p) {
    return ts::LinearFieldWorld::field_rssi(p);
  };
  std::vector<ReferencePoint> history;
  for (int i = 0; i < 3000; ++i) {
    const Enu p{rng.uniform(0, 60), rng.uniform(0, 60)};
    history.push_back(ref(p.east, p.north, {{1, field(p)}}));
  }
  RssiDetector detector(history, {});

  // First half consistent, second half claims positions 20 m away from where
  // the (genuine) scans were heard.
  ScannedUpload upload;
  for (int j = 0; j < 10; ++j) {
    const Enu p{10.0 + j * 3.0, 30.0};
    // The synthetic field varies with east, so the fraud must shift east.
    upload.positions.push_back(j < 5 ? p : Enu{p.east + 20.0, p.north});
    upload.scans.push_back({{1, field(p)}});
  }
  // segment_features is untrained-safe (it only needs the reference index),
  // which is exactly why this test can skip training the classifier.
  std::vector<double> features;
  std::vector<double> scores;
  detector.segment_features(upload, features, scores);
  ASSERT_EQ(scores.size(), 10u);
  double good = 0.0;
  double bad = 0.0;
  for (int j = 0; j < 5; ++j) good += scores[j];
  for (int j = 5; j < 10; ++j) bad += scores[j];
  EXPECT_GT(good, 4.0 * bad + 1e-9);
}

TEST(Detector, RequiresTrainingBeforeVerify) {
  RssiDetector detector(std::vector<ReferencePoint>{ref(0, 0, {})}, {});
  ScannedUpload upload;
  upload.positions = {{0, 0}};
  upload.scans = {{}};
  EXPECT_THROW(detector.analyze(upload), std::logic_error);
}

TEST(Detector, RejectsUnevenUploadLengths) {
  RssiDetector detector(std::vector<ReferencePoint>{ref(0, 0, {})}, {});
  ScannedUpload a;
  a.positions = {{0, 0}};
  a.scans = {{}};
  ScannedUpload b;
  b.positions = {{0, 0}, {1, 0}};
  b.scans = {{}, {}};
  EXPECT_THROW(detector.train({a, b}, {1, 0}), std::invalid_argument);
}

TEST(Detector, FlattenHistoryTagsAndChecks) {
  std::vector<ScannedUpload> history(2);
  history[0].positions = {{0, 0}, {1, 0}};
  history[0].scans = {{}, {}};
  history[1].positions = {{2, 0}};
  history[1].scans = {{}};
  const auto flat = flatten_history(history);
  EXPECT_EQ(flat.size(), 3u);
  EXPECT_EQ(flat[0].traj_id, 0u);
  EXPECT_EQ(flat[1].traj_id, 0u);
  EXPECT_EQ(flat[2].traj_id, 1u);

  std::vector<ScannedUpload> bad(1);
  bad[0].positions = {{0, 0}};
  EXPECT_THROW(flatten_history(bad), std::invalid_argument);
}

}  // namespace
}  // namespace trajkit::wifi
