// Road network, synthetic city, routing (Dijkstra vs A*), navigation and HMM
// map matching.
#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "common/rng.hpp"
#include "map/city.hpp"
#include "map/matcher.hpp"
#include "map/nav.hpp"
#include "map/roadnet.hpp"
#include "map/route.hpp"
#include "sim/dataset.hpp"

namespace trajkit::map {
namespace {

/// Small diamond network used by the routing unit tests:
///   0 --local-- 1 --local-- 3
///    \--arterial-- 2 --arterial--/
RoadNetwork make_diamond() {
  RoadNetwork net;
  net.add_node({0, 0});     // 0
  net.add_node({50, 30});   // 1
  net.add_node({60, -40});  // 2
  net.add_node({120, 0});   // 3
  net.add_edge(0, 1, RoadClass::kLocal);
  net.add_edge(1, 3, RoadClass::kLocal);
  net.add_edge(0, 2, RoadClass::kArterial);
  net.add_edge(2, 3, RoadClass::kArterial);
  return net;
}

TEST(RoadNetwork, EdgeLengthsComputed) {
  RoadNetwork net;
  net.add_node({0, 0});
  net.add_node({3, 4});
  const auto e = net.add_edge(0, 1, RoadClass::kLocal);
  EXPECT_DOUBLE_EQ(net.edge(e).length_m, 5.0);
  EXPECT_EQ(net.other_end(e, 0), 1u);
  EXPECT_EQ(net.other_end(e, 1), 0u);
}

TEST(RoadNetwork, RejectsBadEdges) {
  RoadNetwork net;
  net.add_node({0, 0});
  net.add_node({1, 0});
  EXPECT_THROW(net.add_edge(0, 0, RoadClass::kLocal), std::invalid_argument);
  EXPECT_THROW(net.add_edge(0, 5, RoadClass::kLocal), std::out_of_range);
}

TEST(RoadNetwork, ModePermissions) {
  EXPECT_FALSE(mode_allowed(Mode::kDriving, RoadClass::kFootpath));
  EXPECT_TRUE(mode_allowed(Mode::kWalking, RoadClass::kFootpath));
  EXPECT_TRUE(mode_allowed(Mode::kCycling, RoadClass::kFootpath));
  EXPECT_TRUE(mode_allowed(Mode::kDriving, RoadClass::kArterial));
}

TEST(RoadNetwork, SpeedsOrderedByMode) {
  EXPECT_LT(free_flow_speed_mps(Mode::kWalking, RoadClass::kLocal),
            free_flow_speed_mps(Mode::kCycling, RoadClass::kLocal));
  EXPECT_LT(free_flow_speed_mps(Mode::kCycling, RoadClass::kLocal),
            free_flow_speed_mps(Mode::kDriving, RoadClass::kLocal));
  EXPECT_GT(free_flow_speed_mps(Mode::kDriving, RoadClass::kArterial),
            free_flow_speed_mps(Mode::kDriving, RoadClass::kLocal));
}

TEST(RoadNetwork, NearestNodeRespectsMode) {
  RoadNetwork net;
  net.add_node({0, 0});   // footpath-only island near the query
  net.add_node({5, 0});
  net.add_node({100, 0});
  net.add_node({105, 0});
  net.add_edge(0, 1, RoadClass::kFootpath);
  net.add_edge(2, 3, RoadClass::kArterial);
  EXPECT_EQ(net.nearest_node({1, 1}, Mode::kWalking), 0u);
  EXPECT_EQ(net.nearest_node({1, 1}, Mode::kDriving), 2u);  // skips footpath nodes
}

TEST(RoadNetwork, DistanceToNetwork) {
  const auto net = make_diamond();
  EXPECT_NEAR(net.distance_to_network({0, 0}), 0.0, 1e-9);
  EXPECT_GT(net.distance_to_network({0, 100}), 50.0);
}

TEST(Route, DijkstraPrefersFasterArterial) {
  const auto net = make_diamond();
  const auto path = shortest_path(net, 0, 3, Mode::kDriving);
  ASSERT_TRUE(path.has_value());
  // Driving: the arterial route is much faster despite similar length.
  EXPECT_EQ(path->nodes, (std::vector<std::size_t>{0, 2, 3}));
  EXPECT_GT(path->length_m, 0.0);
  EXPECT_GT(path->travel_time_s, 0.0);
}

TEST(Route, UnreachableReturnsNullopt) {
  RoadNetwork net;
  net.add_node({0, 0});
  net.add_node({10, 0});
  net.add_node({100, 0});
  net.add_node({110, 0});
  net.add_edge(0, 1, RoadClass::kLocal);
  net.add_edge(2, 3, RoadClass::kLocal);
  EXPECT_FALSE(shortest_path(net, 0, 3, Mode::kWalking).has_value());
}

TEST(Route, DrivingCannotUseFootpaths) {
  RoadNetwork net;
  net.add_node({0, 0});
  net.add_node({10, 0});
  net.add_edge(0, 1, RoadClass::kFootpath);
  EXPECT_FALSE(shortest_path(net, 0, 1, Mode::kDriving).has_value());
  EXPECT_TRUE(shortest_path(net, 0, 1, Mode::kWalking).has_value());
}

TEST(Route, AStarMatchesDijkstraCost) {
  Rng rng(11);
  const auto net = make_city({.blocks_x = 6, .blocks_y = 6}, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const auto a = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    const auto b = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.node_count()) - 1));
    if (a == b) continue;
    for (Mode mode : kAllModes) {
      const auto d = shortest_path(net, a, b, mode);
      const auto s = astar_path(net, a, b, mode);
      ASSERT_EQ(d.has_value(), s.has_value());
      if (d) {
        EXPECT_NEAR(d->travel_time_s, s->travel_time_s, 1e-6);
      }
    }
  }
}

TEST(Route, PathEndpointsAndPolyline) {
  const auto net = make_diamond();
  const auto path = shortest_path(net, 0, 3, Mode::kWalking);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->nodes.front(), 0u);
  EXPECT_EQ(path->nodes.back(), 3u);
  const auto poly = path_polyline(net, *path);
  EXPECT_EQ(poly.size(), path->nodes.size());
  EXPECT_EQ(poly.front(), net.node(0).pos);
}

TEST(City, GeneratesConnectedWalkableGraph) {
  Rng rng(21);
  const auto net = make_city({.blocks_x = 8, .blocks_y = 7}, rng);
  EXPECT_EQ(net.node_count(), 56u);

  // BFS over all edges (everything is walkable): one component.
  std::vector<bool> seen(net.node_count(), false);
  std::queue<std::size_t> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t visited = 1;
  while (!frontier.empty()) {
    const auto n = frontier.front();
    frontier.pop();
    for (auto e : net.edges_at(n)) {
      const auto m = net.other_end(e, n);
      if (!seen[m]) {
        seen[m] = true;
        ++visited;
        frontier.push(m);
      }
    }
  }
  EXPECT_EQ(visited, net.node_count());
}

TEST(City, DrivingReachableOnArterialSkeleton) {
  Rng rng(22);
  const auto net = make_city({.blocks_x = 6, .blocks_y = 6, .arterial_every = 2}, rng);
  // Any two arterial-line intersections must be mutually drivable.
  const auto p = shortest_path(net, 0, net.node_count() - 2, Mode::kDriving);
  // Node 0 is on arterial lines (0,0); last-but-one may not be, so route from
  // two known arterial corners instead.
  const auto q = shortest_path(net, 0, 4, Mode::kDriving);  // same arterial row
  EXPECT_TRUE(q.has_value());
  (void)p;
}

TEST(City, DeterministicForSeed) {
  Rng rng1(5);
  Rng rng2(5);
  const auto a = make_city({}, rng1);
  const auto b = make_city({}, rng2);
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.node(i).pos, b.node(i).pos);
  }
}

TEST(City, RejectsTinyGrids) {
  Rng rng(1);
  EXPECT_THROW(make_city({.blocks_x = 1, .blocks_y = 5}, rng), std::invalid_argument);
}

// Parameterized sweep: navigation routes are mode-feasible and reasonably
// direct for every transport mode.
class NavModeSweep : public ::testing::TestWithParam<Mode> {};

TEST_P(NavModeSweep, RoutesAreFeasibleAndBounded) {
  Rng rng(55);
  const auto net = make_city({.blocks_x = 7, .blocks_y = 7}, rng);
  NavigationService nav(net);
  const Mode mode = GetParam();
  for (int trial = 0; trial < 10; ++trial) {
    const Enu from{rng.uniform(0, 300), rng.uniform(0, 300)};
    const Enu to{rng.uniform(0, 300), rng.uniform(0, 300)};
    const auto route = nav.route({from, to, mode});
    if (!route) continue;  // degenerate same-node request
    // Every polyline vertex is a network node position.
    for (const auto& p : route->polyline) {
      EXPECT_LT(net.distance_to_network(p), 1e-9);
    }
    // Route length bounded below by the snapped straight line and above by a
    // sane detour factor on a connected grid.
    const double direct = distance(route->polyline.front(), route->polyline.back());
    EXPECT_GE(route->length_m, direct - 1e-6);
    EXPECT_LE(route->length_m, 6.0 * direct + 400.0);
    EXPECT_GT(route->recommended_speed_mps, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, NavModeSweep,
                         ::testing::Values(Mode::kWalking, Mode::kCycling,
                                           Mode::kDriving));

TEST(Nav, RouteHasSpeedAndPolyline) {
  Rng rng(31);
  const auto net = make_city({}, rng);
  NavigationService nav(net);
  const auto box = net.bounds();
  const RouteRequest req{{box.min_east, box.min_north},
                         {box.max_east, box.max_north},
                         Mode::kWalking};
  const auto route = nav.route(req);
  ASSERT_TRUE(route.has_value());
  EXPECT_GE(route->polyline.size(), 2u);
  EXPECT_GT(route->length_m, 100.0);
  EXPECT_GT(route->recommended_speed_mps, 0.5);
  EXPECT_LT(route->recommended_speed_mps, 3.0);  // walking speeds
}

TEST(Nav, SampleRouteSpacingAndEndpoints) {
  const std::vector<Enu> poly = {{0, 0}, {100, 0}};
  const auto samples = sample_route(poly, 2.0, 1.0);  // 2 m steps
  ASSERT_GE(samples.size(), 50u);
  EXPECT_EQ(samples.front(), poly.front());
  EXPECT_EQ(samples.back(), poly.back());
  for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
    EXPECT_NEAR(distance(samples[i - 1], samples[i]), 2.0, 1e-9);
  }
}

TEST(Nav, SampleRouteHandlesCorners) {
  const std::vector<Enu> poly = {{0, 0}, {5, 0}, {5, 5}};
  const auto samples = sample_route(poly, 3.0, 1.0);
  EXPECT_EQ(samples.back(), poly.back());
  // Arc-length spacing holds across the corner.
  double total = 0.0;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    total += distance(samples[i - 1], samples[i]);
  }
  // Straight-line steps cut the corner, so the summed length is a bit short.
  EXPECT_NEAR(total, 10.0, 1.1);
}

TEST(Nav, SampleRouteValidatesInput) {
  EXPECT_THROW(sample_route({{0, 0}}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(sample_route({{0, 0}, {1, 0}}, 0.0, 1.0), std::invalid_argument);
}

TEST(Nav, RouteDeviationMeasuresDistance) {
  const std::vector<Enu> route = {{0, 0}, {100, 0}};
  const std::vector<Enu> on = {{10, 0}, {50, 0}, {90, 0}};
  const std::vector<Enu> off = {{10, 5}, {50, 5}, {90, 5}};
  EXPECT_NEAR(route_deviation_m(on, route), 0.0, 1e-9);
  EXPECT_NEAR(route_deviation_m(off, route), 5.0, 1e-9);
  EXPECT_THROW(route_deviation_m({}, route), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Map matching.

TEST(MapMatcher, SnapsNoisyTraceToItsRoad) {
  Rng rng(2);
  const auto net = map::make_city({.blocks_x = 5, .blocks_y = 5}, rng);
  const sim::TrajectorySimulator simulator(net);
  const auto traj = simulator.simulate_real(Mode::kWalking, 30, 1.0, rng);

  const map::MapMatcher matcher(net);
  const auto result = matcher.match(traj.reported.to_enu(sim::sim_projection()));
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->points.size(), 30u);
  // Genuine on-road traces snap within GPS error.
  EXPECT_LT(result->mean_offset_m, 2.5);
  // Every snapped point is on the network.
  for (const auto& mp : result->points) {
    EXPECT_LT(net.distance_to_network(mp.snapped), 1e-6);
  }
}

TEST(MapMatcher, RejectsOffMapTrajectory) {
  Rng rng(3);
  const auto net = map::make_city({.blocks_x = 4, .blocks_y = 4}, rng);
  const map::MapMatcher matcher(net);
  // A trace far outside the city bounds.
  std::vector<Enu> off = {{5000, 5000}, {5010, 5000}, {5020, 5000}};
  EXPECT_FALSE(matcher.match(off).has_value());
}

TEST(MapMatcher, ForgedTrajectoryStillMatchesItsRoute) {
  // Route rationality of the replay forgery: the perturbed trace must still
  // map-match with small offsets.
  Rng rng(4);
  const auto net = map::make_city({.blocks_x = 5, .blocks_y = 5}, rng);
  const sim::TrajectorySimulator simulator(net);
  const auto traj = simulator.simulate_real(Mode::kWalking, 30, 1.0, rng);
  const auto hist = traj.reported.to_enu(sim::sim_projection());

  const map::MapMatcher matcher(net);
  const auto matched = matcher.match(hist);
  ASSERT_TRUE(matched.has_value());
  // 1.4 m/step displacement keeps the trace within matching tolerance.
  EXPECT_LT(matched->mean_offset_m + 1.4, matcher.config().max_candidate_distance_m);
}

TEST(MapMatcher, ValidatesInput) {
  Rng rng(5);
  const auto net = map::make_city({.blocks_x = 3, .blocks_y = 3}, rng);
  const map::MapMatcher matcher(net);
  EXPECT_THROW(matcher.match({{0, 0}}), std::invalid_argument);
  map::MatchConfig bad;
  bad.gps_sigma_m = 0.0;
  EXPECT_THROW(map::MapMatcher(net, bad), std::invalid_argument);
}

TEST(MapMatcher, PrefersContinuousPathOverNearestEdge) {
  // Two parallel roads 12 m apart; the trace runs along the north one but one
  // noisy fix leans toward the south road.  HMM continuity should keep the
  // match on the north road.
  map::RoadNetwork net;
  const auto a0 = net.add_node({0, 0});
  const auto a1 = net.add_node({100, 0});
  const auto b0 = net.add_node({0, 12});
  const auto b1 = net.add_node({100, 12});
  net.add_edge(a0, a1, map::RoadClass::kLocal);
  const auto north_edge = net.add_edge(b0, b1, map::RoadClass::kLocal);

  std::vector<Enu> trace;
  for (int i = 0; i <= 10; ++i) trace.push_back({i * 10.0, 11.0});
  trace[5].north = 5.4;  // an outlier fix leaning to the south road

  map::MatchConfig cfg;
  cfg.gps_sigma_m = 4.0;
  const map::MapMatcher matcher(net, cfg);
  const auto result = matcher.match(trace);
  ASSERT_TRUE(result.has_value());
  std::size_t on_north = 0;
  for (const auto& mp : result->points) on_north += mp.edge == north_edge;
  EXPECT_GE(on_north, 10u);  // at most the outlier itself may flip
}

}  // namespace
}  // namespace trajkit::map
