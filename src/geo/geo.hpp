// Geodesy primitives: WGS-84 coordinates, a local east-north (ENU metre)
// frame, distances and bearings.
//
// All attack and detection math in trajkit runs in a local ENU frame centred
// on the scenario area; trajectories store lat/lon and are projected with
// LocalProjection.  Over the few-kilometre areas the paper evaluates
// (3.4-5.9 hm^2 commercial areas in Nanjing), the equirectangular projection
// error is far below GPS noise (< 1 cm), so no full geodesic machinery is
// needed.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

namespace trajkit {

/// Mean Earth radius in metres (IUGG).
inline constexpr double kEarthRadiusM = 6371008.8;

/// WGS-84 geographic coordinate in decimal degrees.
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  friend bool operator==(const LatLon&, const LatLon&) = default;
};

/// Position in a local east-north frame, metres.
struct Enu {
  double east = 0.0;
  double north = 0.0;

  Enu operator+(const Enu& o) const { return {east + o.east, north + o.north}; }
  Enu operator-(const Enu& o) const { return {east - o.east, north - o.north}; }
  Enu operator*(double s) const { return {east * s, north * s}; }

  double norm() const { return std::hypot(east, north); }
  friend bool operator==(const Enu&, const Enu&) = default;
};

/// Euclidean distance in the ENU plane, metres.
double distance(const Enu& a, const Enu& b);

/// Squared Euclidean distance in the ENU plane, square metres.
double distance_sq(const Enu& a, const Enu& b);

/// Great-circle (haversine) distance in metres.
double haversine_m(const LatLon& a, const LatLon& b);

/// Heading of the displacement a->b in radians, in (-pi, pi], measured from
/// east counter-clockwise (standard math convention in the ENU plane).
double heading_rad(const Enu& a, const Enu& b);

/// Smallest signed difference between two headings, in (-pi, pi].
double heading_diff(double h1, double h2);

/// Equirectangular projection around a fixed origin.
///
/// Invertible, metre-accurate at city scale; `to_enu(to_latlon(p)) == p` up
/// to floating-point rounding.
class LocalProjection {
 public:
  explicit LocalProjection(LatLon origin);

  const LatLon& origin() const { return origin_; }

  Enu to_enu(const LatLon& p) const;
  LatLon to_latlon(const Enu& p) const;

  std::vector<Enu> to_enu(const std::vector<LatLon>& ps) const;
  std::vector<LatLon> to_latlon(const std::vector<Enu>& ps) const;

 private:
  LatLon origin_;
  double metres_per_deg_lat_;
  double metres_per_deg_lon_;
};

/// Axis-aligned bounding box in the ENU plane.
struct BoundingBox {
  double min_east = 0.0;
  double min_north = 0.0;
  double max_east = 0.0;
  double max_north = 0.0;

  double width() const { return max_east - min_east; }
  double height() const { return max_north - min_north; }
  double area() const { return width() * height(); }
  bool contains(const Enu& p) const;
  /// Grow symmetrically by `margin` metres on every side.
  BoundingBox expanded(double margin) const;

  static BoundingBox of(const std::vector<Enu>& pts);
};

/// Square map tile in the ENU plane, used as the unit of geo-sharding: the
/// serving layer partitions the crowdsourced reference world by tile, not by
/// point, so that ownership is a pure function of position (no global point
/// directory).
struct TileId {
  std::int64_t tx = 0;  ///< floor(east / tile_m)
  std::int64_t ty = 0;  ///< floor(north / tile_m)

  friend bool operator==(const TileId&, const TileId&) = default;
};

/// The tile containing `p` for a given tile edge length (metres).  Points
/// exactly on a tile edge belong to the tile on their east/north side
/// (floor), so ownership is unambiguous for boundary-pinned trajectories.
/// A quotient outside the int64 range (a tiny tile far from the origin)
/// saturates to the nearest representable tile instead of overflowing.
TileId tile_of(const Enu& p, double tile_m);

/// Distance from point p to the segment [a, b], metres.
double point_segment_distance(const Enu& p, const Enu& a, const Enu& b);

/// Distance from p to the closest segment of the polyline, metres.
/// A single-point polyline degenerates to the point distance; an empty
/// polyline yields +infinity.
double point_polyline_distance(const Enu& p, const std::vector<Enu>& polyline);

}  // namespace trajkit
