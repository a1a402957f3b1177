#include "wifi/rpd.hpp"

#include <cmath>
#include <stdexcept>

namespace trajkit::wifi {

RpdEstimator::RpdEstimator(RpdParams params) : params_(params) {
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

double RpdEstimator::theta2_for(std::size_t neighbours) const {
  // Counting density: points per square metre of C_H(R).
  const double area = M_PI * params_.counting_radius_m * params_.counting_radius_m;
  const double density = static_cast<double>(neighbours) / area;
  return 1.0 - std::pow(params_.theta2_base, density);
}

}  // namespace trajkit::wifi
