#include "reference/wifi_reference.hpp"

#include <cmath>
#include <cstdlib>

namespace trajkit::wifi::reference {

bool scan_lookup(const WifiScan& scan, std::uint64_t mac, int& out) {
  for (const auto& obs : scan) {
    if (obs.mac == mac) {
      out = obs.rssi_dbm;
      return true;
    }
  }
  return false;
}

std::optional<double> pooled_cell_mean(const std::vector<ReferencePoint>& points,
                                       double cell_size_m, const Enu& pos,
                                       std::uint64_t mac) {
  const double cx = std::floor(pos.east / cell_size_m);
  const double cy = std::floor(pos.north / cell_size_m);
  double sum = 0.0;
  std::uint64_t count = 0;
  for (const auto& point : points) {
    if (std::floor(point.pos.east / cell_size_m) != cx ||
        std::floor(point.pos.north / cell_size_m) != cy) {
      continue;
    }
    for (const auto& obs : point.scan) {
      if (obs.mac != mac) continue;
      sum += static_cast<double>(obs.rssi_dbm);
      ++count;
    }
  }
  if (count == 0) return std::nullopt;
  return sum / static_cast<double>(count);
}

RpdOracle::RpdOracle(const ReferenceIndex& index, RpdParams params)
    : index_(&index), params_(params) {}

double RpdOracle::rpd(std::size_t h, std::uint64_t mac, int rssi) const {
  const auto nbrs = index_->within(index_->pos(h), params_.counting_radius_m);
  if (nbrs.empty()) return 0.0;
  std::uint64_t matches = 0;
  for (const std::size_t q : nbrs) {
    const ReferencePoint point = index_->point(q);
    for (const auto& obs : point.scan) {
      if (obs.mac == mac && std::abs(obs.rssi_dbm - rssi) <= params_.rssi_tolerance_db) {
        ++matches;
      }
    }
  }
  return static_cast<double>(matches) / static_cast<double>(nbrs.size());
}

std::size_t RpdOracle::counting_size(std::size_t h) const {
  return index_->count_within(index_->pos(h), params_.counting_radius_m);
}

double RpdOracle::density(std::size_t h) const {
  const double area = M_PI * params_.counting_radius_m * params_.counting_radius_m;
  return static_cast<double>(counting_size(h)) / area;
}

double RpdOracle::theta2(std::size_t h) const {
  return 1.0 - std::pow(params_.theta2_base, density(h));
}

}  // namespace trajkit::wifi::reference
