#include "wifi/rpd.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace trajkit::wifi {

RpdEstimator::RpdEstimator(const ReferenceIndex& index, RpdParams params)
    : index_(&index), params_(params) {
  if (params_.counting_radius_m <= 0.0) {
    throw std::invalid_argument("RpdEstimator: counting radius must be positive");
  }
  if (params_.theta2_base <= 0.0 || params_.theta2_base >= 1.0) {
    throw std::invalid_argument("RpdEstimator: theta2 base must be in (0, 1)");
  }
  if (params_.rssi_tolerance_db < 0) {
    throw std::invalid_argument("RpdEstimator: tolerance must be non-negative");
  }
}

double RpdEstimator::rpd(std::size_t h, std::uint64_t mac, int rssi) const {
  const auto nbrs = index_->within((*index_)[h].pos, params_.counting_radius_m);
  if (nbrs.empty()) return 0.0;
  std::uint64_t matches = 0;
  for (const std::size_t q : nbrs) {
    for (const auto& obs : (*index_)[q].scan) {
      if (obs.mac == mac && std::abs(obs.rssi_dbm - rssi) <= params_.rssi_tolerance_db) {
        ++matches;
      }
    }
  }
  return static_cast<double>(matches) / static_cast<double>(nbrs.size());
}

std::size_t RpdEstimator::counting_size(std::size_t h) const {
  return index_->count_within((*index_)[h].pos, params_.counting_radius_m);
}

double RpdEstimator::density_for(std::size_t neighbours) const {
  const double area = M_PI * params_.counting_radius_m * params_.counting_radius_m;
  return static_cast<double>(neighbours) / area;
}

double RpdEstimator::density(std::size_t h) const {
  return density_for(counting_size(h));
}

double RpdEstimator::theta2_for(std::size_t neighbours) const {
  return 1.0 - std::pow(params_.theta2_base, density_for(neighbours));
}

double RpdEstimator::theta2(std::size_t h) const {
  return theta2_for(counting_size(h));
}

}  // namespace trajkit::wifi
