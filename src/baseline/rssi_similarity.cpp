#include "baseline/rssi_similarity.hpp"

#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace trajkit::baseline {

RssiSimilarityDetector::RssiSimilarityDetector(const wifi::ReferenceIndex& index,
                                               RssiSimilarityConfig config)
    : index_(&index), config_(config) {
  if (config_.reference_radius_m <= 0.0 || config_.tolerance_db <= 0.0) {
    throw std::invalid_argument("RssiSimilarityDetector: bad config");
  }
}

double RssiSimilarityDetector::mean_deviation_db(
    const std::vector<Enu>& positions, const std::vector<wifi::WifiScan>& scans) const {
  if (positions.size() != scans.size() || positions.empty()) {
    throw std::invalid_argument("RssiSimilarityDetector: bad upload");
  }
  double deviation_total = 0.0;
  std::size_t matched = 0;
  std::size_t reported = 0;

  for (std::size_t p = 0; p < positions.size(); ++p) {
    reported += scans[p].size();
    const auto refs = index_->within(positions[p], config_.reference_radius_m);
    if (refs.empty()) continue;
    // Local average RSSI per AP over the coarse bucket.
    std::unordered_map<std::uint64_t, std::pair<double, std::size_t>> sums;
    for (std::size_t h : refs) {
      const wifi::ReferencePoint point = index_->point(h);
      for (const auto& obs : point.scan) {
        auto& slot = sums[obs.mac];
        slot.first += obs.rssi_dbm;
        ++slot.second;
      }
    }
    for (const auto& obs : scans[p]) {
      const auto it = sums.find(obs.mac);
      if (it == sums.end()) continue;
      const double local_mean =
          it->second.first / static_cast<double>(it->second.second);
      deviation_total += std::fabs(static_cast<double>(obs.rssi_dbm) - local_mean);
      ++matched;
    }
  }

  if (reported == 0 ||
      static_cast<double>(matched) <
          config_.min_match_fraction * static_cast<double>(reported)) {
    return 1e9;  // signature cannot be established — suspicious by itself
  }
  return deviation_total / static_cast<double>(matched);
}

int RssiSimilarityDetector::verify(const std::vector<Enu>& positions,
                                   const std::vector<wifi::WifiScan>& scans) const {
  return mean_deviation_db(positions, scans) <= config_.tolerance_db ? 1 : 0;
}

}  // namespace trajkit::baseline
