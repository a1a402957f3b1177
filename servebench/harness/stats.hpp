// Statistics the benchmark reports: nearest-rank percentiles with a
// sample-support rule, medians, and open-loop latency measured from each
// request's intended send time.  The quartiles of the steadiness mode live
// in run.py.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace servebench {

/// Samples a percentile needs strictly beyond it before it is reported.
inline constexpr std::size_t kTailSupport = 10;

/// 1-based nearest rank of percentile `q` (0 < q <= 100) among `n` samples.
std::size_t nearest_rank(std::size_t n, double q);

/// True when at least kTailSupport of `n` samples lie beyond percentile `q`.
bool percentile_supported(std::size_t n, double q);

/// Nearest-rank percentile of `samples` (any order), or nullopt when the
/// sample does not support it (see percentile_supported).
std::optional<double> percentile(std::vector<double> samples, double q);

/// The highest of {99.9, 99, 95, 90, 75, 50} that `n` samples support, or
/// nullopt when even the median is unsupported.
std::optional<double> highest_supported_percentile(std::size_t n);

/// Plain median (mean of the middle pair for even counts); 0 when empty.
double median(std::vector<double> samples);

/// One open-loop request: when the schedule said to send it, when the
/// generator actually sent it, and when its answer arrived (steady-clock ns).
struct OpenLoopSample {
  std::int64_t intended_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  /// Latency as a user sees it: a stalled generator or service delays later
  /// requests, and that wait is counted (no coordinated omission).
  double latency_ms() const { return static_cast<double>(done_ns - intended_ns) * 1e-6; }
  /// How far behind its schedule the generator sent this request.
  double lateness_ms() const { return static_cast<double>(sent_ns - intended_ns) * 1e-6; }
};

/// Evenly spaced intended send times: `count` requests at `rate_per_s`
/// starting at `start_ns`.
std::vector<std::int64_t> fixed_rate_schedule(std::int64_t start_ns, double rate_per_s,
                                              std::size_t count);

}  // namespace servebench
