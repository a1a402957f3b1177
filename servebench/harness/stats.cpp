#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace servebench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0 || !(q > 0.0) || q > 100.0) {
    throw std::invalid_argument("nearest_rank: need n > 0 and 0 < q <= 100");
  }
  // The tolerance keeps decimal percentiles exact: 99.9% of 1000 is rank 999,
  // not the 1000 that the binary rounding of 99.9 would give.
  const double exact = q / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * std::max(1.0, exact)));
  return std::clamp<std::size_t>(rank, 1, n);
}

bool percentile_supported(std::size_t n, double q) {
  if (n == 0) return false;
  return n - nearest_rank(n, q) >= kTailSupport;
}

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (!percentile_supported(samples.size(), q)) return std::nullopt;
  const std::size_t idx = nearest_rank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (percentile_supported(n, q)) return q;
  }
  return std::nullopt;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<std::int64_t> fixed_rate_schedule(std::int64_t start_ns, double rate_per_s,
                                              std::size_t count) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("fixed_rate_schedule: rate must be > 0");
  std::vector<std::int64_t> out(count);
  const double gap_ns = 1e9 / rate_per_s;
  for (std::size_t k = 0; k < count; ++k) {
    out[k] = start_ns + static_cast<std::int64_t>(std::llround(gap_ns * static_cast<double>(k)));
  }
  return out;
}

}  // namespace servebench
