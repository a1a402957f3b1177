#include "wifi/refindex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>


namespace trajkit::wifi {
namespace {

/// The low key of a lane window that no key hits: stored RSSI offsets stop
/// below 0xff, and the window spans this one key.
constexpr std::uint32_t kNoKey = 0xffffffffu;

/// Lanes compared per pass, as one GCC vector of uint32 keys (an AVX2
/// register, or two SSE ones where AVX is off).  A lane-wise comparison
/// yields -1 in every true lane.  Values of this type stay inside
/// count_circles(): passing one by value would change the ABI with the ISA.
constexpr std::size_t kBlock = 8;
typedef std::uint32_t KeyLanes __attribute__((vector_size(32)));
static_assert(sizeof(KeyLanes) == kBlock * sizeof(std::uint32_t));

}  // namespace

ReferenceIndex::Window ReferenceIndex::window(const Enu& center, double radius) const {
  // The query cell is not clamped: truncation toward zero, then +-reach,
  // then the clip to the grid.
  const auto reach = static_cast<long>(std::ceil(radius / cell_size_m_));
  const long ix = static_cast<long>((center.east - bounds_.min_east) / cell_size_m_);
  const long iy = static_cast<long>((center.north - bounds_.min_north) / cell_size_m_);
  return {std::max(ix - reach, 0L), std::min(ix + reach, static_cast<long>(grid_w_) - 1),
          std::max(iy - reach, 0L), std::min(iy + reach, static_cast<long>(grid_h_) - 1)};
}

template <typename Visitor>
void ReferenceIndex::visit(const Enu& center, double radius, Visitor&& visitor) const {
  if (pos_.empty()) return;
  const Window win = window(center, radius);
  const double radius_sq = radius * radius;
  for (long y = win.y0; y <= win.y1; ++y) {
    for (long x = win.x0; x <= win.x1; ++x) {
      for (std::uint32_t idx :
           grid_[static_cast<std::size_t>(y) * grid_w_ + static_cast<std::size_t>(x)]) {
        if (distance_sq(pos_[idx], center) <= radius_sq) visitor(idx);
      }
    }
  }
}

BoundingBox ReferenceIndex::natural_bounds(const PointArrays& points) {
  return BoundingBox::of(points.positions()).expanded(1.0);
}

ReferenceIndex::ReferenceIndex(PointArrays points, double cell_size_m,
                               const BoundingBox& bounds)
    : PointArrays(std::move(points)), cell_size_m_(cell_size_m) {
  if (cell_size_m_ <= 0.0) {
    throw std::invalid_argument("ReferenceIndex: cell size must be positive");
  }
  build_grid(bounds);
}

void ReferenceIndex::build_grid(const BoundingBox& bounds) {
  bounds_ = bounds.width() > 0.0 || bounds.height() > 0.0 ? bounds : natural_bounds(*this);
  // Sized in doubles and checked against the cap before any cast or
  // allocation.
  const double w = std::max(1.0, std::ceil(bounds_.width() / cell_size_m_)) + 1.0;
  const double h = std::max(1.0, std::ceil(bounds_.height() / cell_size_m_)) + 1.0;
  const std::size_t cap = std::max(kMinGridCellCap, kMaxGridCellsPerPoint * pos_.size());
  if (!(w * h <= static_cast<double>(cap))) {
    char why[160];
    std::snprintf(why, sizeof why,
                  "a %.0f x %.0f-cell grid for %zu points exceeds the cap of %zu cells", w,
                  h, pos_.size(), cap);
    throw std::invalid_argument(std::string("ReferenceIndex: ") + why);
  }
  grid_w_ = static_cast<std::size_t>(w);
  grid_h_ = static_cast<std::size_t>(h);
  grid_.assign(grid_w_ * grid_h_, {});
  for (std::size_t i = 0; i < pos_.size(); ++i) {
    grid_[cell_of(pos_[i])].push_back(static_cast<std::uint32_t>(i));
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
    if (exclude_traj == kNoTrajectory || traj_id_[i] != exclude_traj) {
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

void ReferenceIndex::count_circles(const Enu& origin, const std::vector<std::size_t>& centers,
                                   double radius, const std::vector<MatchLane>& lanes,
                                   CircleCounts& out) const {
  // Each centre's window, the union's bounding box and the gather radius.
  out.windows_.resize(centers.size());
  Window box{static_cast<long>(grid_w_), -1, static_cast<long>(grid_h_), -1};
  double spread_sq = 0.0;
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const Enu& center = pos_[centers[c]];
    const Window& win = out.windows_[c] = window(center, radius);
    if (win.x0 > win.x1 || win.y0 > win.y1) continue;
    box = {std::min(box.x0, win.x0), std::max(box.x1, win.x1), std::min(box.y0, win.y0),
           std::max(box.y1, win.y1)};
    spread_sq = std::max(spread_sq, distance_sq(center, origin));
  }

  // Gather: every point stored in a cell of some window and within
  // spread + radius of the origin, with its stored cell.  The 1 um slack
  // absorbs the rounding of the three distances.
  out.gathered_.clear();
  out.east_.clear();
  out.north_.clear();
  out.cell_x_.clear();
  out.cell_y_.clear();
  if (box.x0 <= box.x1) {
    const long box_w = box.x1 - box.x0 + 1;
    const auto box_offset = [&](long x, long y) {
      return static_cast<std::size_t>((y - box.y0) * box_w + (x - box.x0));
    };
    out.in_union_.assign(box_offset(box.x1, box.y1) + 1, 0);
    for (const Window& win : out.windows_) {
      for (long y = win.y0; y <= win.y1; ++y) {
        for (long x = win.x0; x <= win.x1; ++x) out.in_union_[box_offset(x, y)] = 1;
      }
    }
    const double reach = std::sqrt(spread_sq) + radius + 1e-6;
    const double reach_sq = reach * reach;
    for (long y = box.y0; y <= box.y1; ++y) {
      for (long x = box.x0; x <= box.x1; ++x) {
        if (!out.in_union_[box_offset(x, y)]) continue;
        for (std::uint32_t idx :
             grid_[static_cast<std::size_t>(y) * grid_w_ + static_cast<std::size_t>(x)]) {
          const Enu& p = pos_[idx];
          if (distance_sq(p, origin) > reach_sq) continue;
          out.gathered_.push_back(idx);
          out.east_.push_back(p.east);
          out.north_.push_back(p.north);
          out.cell_x_.push_back(static_cast<std::int32_t>(x));
          out.cell_y_.push_back(static_cast<std::int32_t>(y));
        }
      }
    }
  }
  // Slots pad to a whole number of 64-byte mask vectors, so the per-centre
  // loops below run without a scalar tail.  Padding sits in no cell, so
  // every mask clears it, and its match counts are zero.
  constexpr std::size_t kSlotBlock = 64;
  const std::size_t n = out.gathered_.size();
  const std::size_t slots = (n + kSlotBlock - 1) / kSlotBlock * kSlotBlock;
  out.east_.resize(slots, 0.0);
  out.north_.resize(slots, 0.0);
  out.cell_x_.resize(slots, -1);
  out.cell_y_.resize(slots, -1);

  // Each lane as a key range, in blocks of kBlock lanes, the last one padded
  // with lanes no key hits.  The RSSI window is clipped to the storable
  // range in 64-bit arithmetic, so any tolerance is safe.  An unknown MAC
  // or an empty clipped window matches nothing.
  const std::size_t k = lanes.size();
  const std::size_t padded = (k + kBlock - 1) / kBlock * kBlock;
  out.key_lo_.assign(padded, kNoKey);
  out.key_span_.assign(padded, 0);
  out.ap_.assign(padded, kNoAp);
  for (std::size_t a = 0; a < k; ++a) {
    const std::uint32_t ap = out.ap_[a] = ap_id(lanes[a].mac);
    const std::int64_t lo = std::max<std::int64_t>(lanes[a].lo, kMinValidRssiDbm);
    const std::int64_t hi = std::min<std::int64_t>(lanes[a].hi, kMaxValidRssiDbm);
    if (ap == kNoAp || lo > hi) continue;
    out.key_lo_[a] = key_of(ap, lo);
    out.key_span_[a] = static_cast<std::uint32_t>(hi - lo);
  }

  // Match counts, lane-major: per gathered point, one unsigned compare per
  // lane and key over its contiguous keys.  A count is at most the scan's
  // size, which the constructors hold to uint16.
  out.columns_.assign(k * slots, 0);
  for (std::size_t b = 0; b < k; b += kBlock) {
    const std::size_t live = std::min(kBlock, k - b);
    KeyLanes lo;
    KeyLanes span;
    std::memcpy(&lo, out.key_lo_.data() + b, sizeof lo);
    std::memcpy(&span, out.key_span_.data() + b, sizeof span);
    for (std::size_t s = 0; s < n; ++s) {
      const std::uint32_t g = out.gathered_[s];
      KeyLanes count = {};
      for (std::size_t o = offsets_[g]; o < offsets_[g + 1]; ++o) {
        count -= (KeyLanes)(keys_[o] - lo <= span);
      }
      for (std::size_t j = 0; j < live; ++j) {
        out.columns_[(b + j) * slots + s] = static_cast<std::uint16_t>(count[j]);
      }
    }
  }

  // Which lanes' MACs each centre's own scan carries: its keys' AP ids.
  out.carries_.assign(centers.size() * k, 0);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const std::size_t h = centers[c];
    for (std::size_t b = 0; b < k; b += kBlock) {
      const std::size_t live = std::min(kBlock, k - b);
      KeyLanes ap;
      std::memcpy(&ap, out.ap_.data() + b, sizeof ap);
      KeyLanes seen = {};
      for (std::size_t o = offsets_[h]; o < offsets_[h + 1]; ++o) {
        seen |= (KeyLanes)(keys_[o] >> kRssiBits == ap);
      }
      for (std::size_t j = 0; j < live; ++j) out.carries_[c * k + b + j] = seen[j] != 0;
    }
  }

  // Per centre: visit's own two tests as a byte mask over the gathered
  // points, then |C_H(R)| and every lane's sum as masked reductions.  The
  // squared distance is distance_sq's arithmetic, operand for operand, and
  // the build pins -ffp-contract=off, so the boundary falls where visit puts
  // it.  An empty window keeps its canonical empty bounds, which no stored
  // cell satisfies.
  const double radius_sq = radius * radius;
  out.lanes_ = k;
  out.sizes_.resize(centers.size());
  out.matches_.resize(centers.size() * k);
  out.mask_.resize(slots);
  const std::int32_t* cell_x = out.cell_x_.data();
  const std::int32_t* cell_y = out.cell_y_.data();
  const double* east = out.east_.data();
  const double* north = out.north_.data();
  std::uint8_t* mask = out.mask_.data();
  for (std::size_t c = 0; c < centers.size(); ++c) {
    const Window& win = out.windows_[c];
    std::int32_t x0 = 0, x1 = -1, y0 = 0, y1 = -1;
    if (win.x0 <= win.x1 && win.y0 <= win.y1) {
      // Non-empty, so clipped to the grid: the bounds fit the cells' type.
      x0 = static_cast<std::int32_t>(win.x0);
      x1 = static_cast<std::int32_t>(win.x1);
      y0 = static_cast<std::int32_t>(win.y0);
      y1 = static_cast<std::int32_t>(win.y1);
    }
    const Enu& center = pos_[centers[c]];
    std::uint32_t size = 0;
    for (std::size_t s = 0; s < slots; ++s) {
      const double de = east[s] - center.east;
      const double dn = north[s] - center.north;
      mask[s] = static_cast<std::uint8_t>((cell_x[s] >= x0) & (cell_x[s] <= x1) &
                                          (cell_y[s] >= y0) & (cell_y[s] <= y1) &
                                          (de * de + dn * dn <= radius_sq));
      size += mask[s];
    }
    out.sizes_[c] = size;
    for (std::size_t a = 0; a < k; ++a) {
      const std::uint16_t* column = out.columns_.data() + a * slots;
      std::uint32_t sum = 0;
      for (std::size_t s = 0; s < slots; ++s) {
        sum += static_cast<std::uint16_t>(column[s] & -static_cast<std::uint16_t>(mask[s]));
      }
      out.matches_[c * k + a] = sum;
    }
  }
}

}  // namespace trajkit::wifi
