#include "geo/geo.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace trajkit {
namespace {

constexpr double kDegToRad = M_PI / 180.0;

/// floor(v) as an int64, saturated: converting a double outside the int64
/// range is undefined behaviour.  2^63 is exact in a double; NaN maps low.
std::int64_t saturating_floor(double v) {
  constexpr double kTwo63 = 9223372036854775808.0;
  const double f = std::floor(v);
  if (!(f >= -kTwo63)) return std::numeric_limits<std::int64_t>::min();
  if (f >= kTwo63) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(f);
}

}  // namespace

double distance(const Enu& a, const Enu& b) {
  return std::hypot(a.east - b.east, a.north - b.north);
}

double distance_sq(const Enu& a, const Enu& b) {
  const double de = a.east - b.east;
  const double dn = a.north - b.north;
  return de * de + dn * dn;
}

double haversine_m(const LatLon& a, const LatLon& b) {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

double heading_rad(const Enu& a, const Enu& b) {
  return std::atan2(b.north - a.north, b.east - a.east);
}

double heading_diff(double h1, double h2) {
  double d = h2 - h1;
  while (d > M_PI) d -= 2.0 * M_PI;
  while (d <= -M_PI) d += 2.0 * M_PI;
  return d;
}

LocalProjection::LocalProjection(LatLon origin)
    : origin_(origin),
      metres_per_deg_lat_(kEarthRadiusM * kDegToRad),
      metres_per_deg_lon_(kEarthRadiusM * kDegToRad * std::cos(origin.lat * kDegToRad)) {}

Enu LocalProjection::to_enu(const LatLon& p) const {
  return {(p.lon - origin_.lon) * metres_per_deg_lon_,
          (p.lat - origin_.lat) * metres_per_deg_lat_};
}

LatLon LocalProjection::to_latlon(const Enu& p) const {
  return {origin_.lat + p.north / metres_per_deg_lat_,
          origin_.lon + p.east / metres_per_deg_lon_};
}

std::vector<Enu> LocalProjection::to_enu(const std::vector<LatLon>& ps) const {
  std::vector<Enu> out;
  out.reserve(ps.size());
  for (const auto& p : ps) out.push_back(to_enu(p));
  return out;
}

std::vector<LatLon> LocalProjection::to_latlon(const std::vector<Enu>& ps) const {
  std::vector<LatLon> out;
  out.reserve(ps.size());
  for (const auto& p : ps) out.push_back(to_latlon(p));
  return out;
}

bool BoundingBox::contains(const Enu& p) const {
  return p.east >= min_east && p.east <= max_east && p.north >= min_north &&
         p.north <= max_north;
}

BoundingBox BoundingBox::expanded(double margin) const {
  return {min_east - margin, min_north - margin, max_east + margin, max_north + margin};
}

BoundingBox BoundingBox::of(const std::vector<Enu>& pts) {
  BoundingBox box;
  if (pts.empty()) return box;
  box.min_east = box.max_east = pts.front().east;
  box.min_north = box.max_north = pts.front().north;
  for (const auto& p : pts) {
    box.min_east = std::min(box.min_east, p.east);
    box.max_east = std::max(box.max_east, p.east);
    box.min_north = std::min(box.min_north, p.north);
    box.max_north = std::max(box.max_north, p.north);
  }
  return box;
}

TileId tile_of(const Enu& p, double tile_m) {
  if (!(tile_m > 0.0)) {
    throw std::invalid_argument("tile_of: tile size must be positive");
  }
  return {saturating_floor(p.east / tile_m), saturating_floor(p.north / tile_m)};
}

double point_segment_distance(const Enu& p, const Enu& a, const Enu& b) {
  const Enu ab = b - a;
  const double len_sq = ab.east * ab.east + ab.north * ab.north;
  if (len_sq <= 0.0) return distance(p, a);
  const Enu ap = p - a;
  double t = (ap.east * ab.east + ap.north * ab.north) / len_sq;
  t = std::clamp(t, 0.0, 1.0);
  return distance(p, a + ab * t);
}

double point_polyline_distance(const Enu& p, const std::vector<Enu>& polyline) {
  if (polyline.empty()) return std::numeric_limits<double>::infinity();
  if (polyline.size() == 1) return distance(p, polyline.front());
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i + 1 < polyline.size(); ++i) {
    best = std::min(best, point_segment_distance(p, polyline[i], polyline[i + 1]));
  }
  return best;
}

}  // namespace trajkit
