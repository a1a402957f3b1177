#include "wifi/refindex.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace trajkit::wifi {

bool scan_lookup(const WifiScan& scan, std::uint64_t mac, int& out) {
  for (const auto& obs : scan) {
    if (obs.mac == mac) {
      out = obs.rssi_dbm;
      return true;
    }
  }
  return false;
}

template <typename Visitor>
void ReferenceIndex::visit(const Enu& center, double radius, Visitor&& visitor) const {
  if (points_.empty()) return;
  const Window win = window(center, radius);
  const double radius_sq = radius * radius;
  for (long y = win.y0; y <= win.y1; ++y) {
    for (long x = win.x0; x <= win.x1; ++x) {
      for (std::uint32_t idx :
           grid_[static_cast<std::size_t>(y) * grid_w_ + static_cast<std::size_t>(x)]) {
        if (distance_sq(points_[idx].pos, center) <= radius_sq) visitor(idx);
      }
    }
  }
}

BoundingBox ReferenceIndex::natural_bounds(const std::vector<ReferencePoint>& points) {
  std::vector<Enu> positions;
  positions.reserve(points.size());
  for (const auto& p : points) positions.push_back(p.pos);
  return BoundingBox::of(positions).expanded(1.0);
}

ReferenceIndex::ReferenceIndex(std::vector<ReferencePoint> points, double cell_size_m)
    : ReferenceIndex(std::move(points), cell_size_m, BoundingBox{}) {}

ReferenceIndex::ReferenceIndex(std::vector<ReferencePoint> points, double cell_size_m,
                               const BoundingBox& bounds)
    : points_(std::move(points)), cell_size_m_(cell_size_m) {
  if (cell_size_m_ <= 0.0) {
    throw std::invalid_argument("ReferenceIndex: cell size must be positive");
  }
  bounds_ = bounds.width() > 0.0 || bounds.height() > 0.0 ? bounds
                                                          : natural_bounds(points_);

  grid_w_ = static_cast<std::size_t>(
                std::max(1.0, std::ceil(bounds_.width() / cell_size_m_))) +
            1;
  grid_h_ = static_cast<std::size_t>(
                std::max(1.0, std::ceil(bounds_.height() / cell_size_m_))) +
            1;
  grid_.assign(grid_w_ * grid_h_, {});
  for (std::size_t i = 0; i < points_.size(); ++i) {
    grid_[cell_of(points_[i].pos)].push_back(static_cast<std::uint32_t>(i));
  }
}

std::size_t ReferenceIndex::cell_of(const Enu& p) const {
  const double cx = (p.east - bounds_.min_east) / cell_size_m_;
  const double cy = (p.north - bounds_.min_north) / cell_size_m_;
  const auto ix = static_cast<std::size_t>(
      std::clamp(cx, 0.0, static_cast<double>(grid_w_ - 1)));
  const auto iy = static_cast<std::size_t>(
      std::clamp(cy, 0.0, static_cast<double>(grid_h_ - 1)));
  return iy * grid_w_ + ix;
}

std::vector<std::size_t> ReferenceIndex::within(const Enu& center, double radius,
                                                std::uint32_t exclude_traj) const {
  std::vector<std::size_t> out;
  visit(center, radius, [&](std::uint32_t i) {
    if (exclude_traj == kNoTrajectory || points_[i].traj_id != exclude_traj) {
      out.push_back(i);
    }
  });
  return out;
}

std::size_t ReferenceIndex::count_within(const Enu& center, double radius) const {
  std::size_t count = 0;
  visit(center, radius, [&count](std::uint32_t) { ++count; });
  return count;
}

}  // namespace trajkit::wifi
