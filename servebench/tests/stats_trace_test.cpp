// Self-tests for the benchmark's statistics and span code.
//
//   cmake --build .bench_build/servebench --target servebench_tests &&
//   .bench_build/servebench/servebench_tests
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace servebench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // reversed: order must not matter
  return v;
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(nearest_rank(100, 50.0), 50u);
  EXPECT_EQ(nearest_rank(100, 99.0), 99u);
  EXPECT_EQ(nearest_rank(101, 50.0), 51u);
  EXPECT_EQ(nearest_rank(3, 100.0), 3u);
  EXPECT_EQ(nearest_rank(1000, 99.9), 999u);
  EXPECT_THROW(nearest_rank(0, 50.0), std::invalid_argument);
  EXPECT_THROW(nearest_rank(10, 0.0), std::invalid_argument);
}

TEST(Percentile, ValuesFromUnsortedSamples) {
  EXPECT_DOUBLE_EQ(*percentile(one_to(100), 50.0), 50.0);
  EXPECT_DOUBLE_EQ(*percentile(one_to(100), 90.0), 90.0);
  EXPECT_DOUBLE_EQ(*percentile(one_to(1000), 99.0), 990.0);
}

TEST(Percentile, NeedsTenSamplesBeyondIt) {
  // p50 of 19 samples has rank 10 and only 9 beyond it.
  EXPECT_FALSE(percentile_supported(19, 50.0));
  EXPECT_TRUE(percentile_supported(20, 50.0));
  EXPECT_FALSE(percentile(one_to(19), 50.0).has_value());
  // p99 needs 1000 samples, p90 needs 100.
  EXPECT_FALSE(percentile_supported(999, 99.0));
  EXPECT_TRUE(percentile_supported(1000, 99.0));
  EXPECT_FALSE(percentile_supported(99, 90.0));
  EXPECT_TRUE(percentile_supported(100, 90.0));
  EXPECT_FALSE(percentile_supported(0, 50.0));
}

TEST(Percentile, HighestSupported) {
  EXPECT_FALSE(highest_supported_percentile(19).has_value());
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(20), 50.0);
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(40), 75.0);
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(250), 95.0);
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(*highest_supported_percentile(10000), 99.9);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(OpenLoop, LatencyCountsFromIntendedStart) {
  // Sent 3 ms late (the generator stalled), answered 2 ms after sending: the
  // user waited 5 ms, not 2.
  const OpenLoopSample s{1'000'000, 4'000'000, 6'000'000};
  EXPECT_DOUBLE_EQ(s.latency_ms(), 5.0);
  EXPECT_DOUBLE_EQ(s.lateness_ms(), 3.0);
}

TEST(OpenLoop, FixedRateSchedule) {
  const auto s = fixed_rate_schedule(100, 4.0, 5);
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[0], 100);
  EXPECT_EQ(s[1], 100 + 250'000'000);
  EXPECT_EQ(s[4], 100 + 1'000'000'000);
  EXPECT_THROW(fixed_rate_schedule(0, 0.0, 1), std::invalid_argument);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  std::vector<Span> spans = {
      {"root", 0, 100, kNoParent, 7},
      {"a", 10, 30, 0, 7},
      {"b", 20, 50, 0, 7},   // overlaps a: union of children is [10, 50)
      {"c", 90, 120, 0, 7},  // runs past its parent: only [90, 100) counts
      {"a.child", 12, 18, 1, 7},
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, LayerTotalsAggregateByName) {
  SpanRecorder rec;
  rec.add({"verdict", 0, 100, kNoParent, 1});
  rec.add({"gbt", 10, 20, 0, 1});
  rec.add({"gbt", 30, 60, 0, 1});
  const auto totals = layer_totals(rec.spans());
  EXPECT_EQ(totals.at("gbt").calls, 2u);
  EXPECT_EQ(totals.at("gbt").self_ns, 40);
  EXPECT_DOUBLE_EQ(totals.at("gbt").mean_self_us(), 0.02);
  EXPECT_EQ(totals.at("verdict").self_ns, 60);
  EXPECT_EQ(totals.at("verdict").total_ns, 100);
}

TEST(Spans, RecorderTimesAndRejectsForwardParents) {
  SpanRecorder rec;
  const auto root = rec.begin("root", kNoParent, 3);
  const int out = rec.timed("child", root, 3, [] { return 42; });
  rec.end(root);
  EXPECT_EQ(out, 42);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, root);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_GE(rec.spans()[0].end_ns, rec.spans()[1].end_ns);
  EXPECT_THROW(rec.add({"bad", 0, 1, 5, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace servebench
