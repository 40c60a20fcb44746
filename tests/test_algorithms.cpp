// Tests for graph/algorithms.hpp: BFS, components, degree statistics.
#include "graph/algorithms.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario.hpp"

namespace churnet {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(Bfs, PathGraphDistances) {
  const Snapshot snap = Snapshot::from_edges(5, Edges{{0, 1}, {1, 2}, {2, 3},
                                                      {3, 4}});
  const auto dist = bfs_distances(snap, 0);
  for (std::uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(dist[v], static_cast<std::int32_t>(v));
  }
}

TEST(Bfs, DisconnectedMarksUnreachable) {
  const Snapshot snap = Snapshot::from_edges(4, Edges{{0, 1}});
  const auto dist = bfs_distances(snap, 0);
  EXPECT_EQ(dist[0], 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], -1);
  EXPECT_EQ(dist[3], -1);
}

TEST(Bfs, CycleGraph) {
  const Snapshot snap =
      Snapshot::from_edges(6, Edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                    {5, 0}});
  const auto dist = bfs_distances(snap, 0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_EQ(dist[5], 1);
  EXPECT_EQ(dist[4], 2);
}

TEST(Bfs, SelfDistanceZero) {
  const Snapshot snap = Snapshot::from_edges(1, {});
  const auto dist = bfs_distances(snap, 0);
  EXPECT_EQ(dist[0], 0);
}

TEST(Eccentricity, StarAndPath) {
  const Snapshot star =
      Snapshot::from_edges(5, Edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(eccentricity(star, 0), 1u);
  EXPECT_EQ(eccentricity(star, 1), 2u);
  const Snapshot path = Snapshot::from_edges(4, Edges{{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(eccentricity(path, 0), 3u);
  EXPECT_EQ(eccentricity(path, 1), 2u);
}

TEST(Components, SingleComponent) {
  const Snapshot snap = Snapshot::from_edges(4, Edges{{0, 1}, {1, 2}, {2, 3}});
  const Components comps = connected_components(snap);
  EXPECT_EQ(comps.count, 1u);
  EXPECT_EQ(comps.largest_size, 4u);
  for (std::uint32_t v = 0; v < 4; ++v) EXPECT_EQ(comps.label[v], 0u);
}

TEST(Components, MultipleComponentsAndIsolated) {
  const Snapshot snap =
      Snapshot::from_edges(6, Edges{{0, 1}, {2, 3}, {3, 4}});
  const Components comps = connected_components(snap);
  EXPECT_EQ(comps.count, 3u);  // {0,1}, {2,3,4}, {5}
  EXPECT_EQ(comps.largest_size, 3u);
  EXPECT_EQ(comps.label[2], comps.label[4]);
  EXPECT_NE(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[5], comps.label[0]);
}

TEST(Components, LargestLabelIdentifiesLargestComponent) {
  const Snapshot snap =
      Snapshot::from_edges(7, Edges{{0, 1}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  const Components comps = connected_components(snap);
  EXPECT_EQ(comps.largest_size, 5u);
  EXPECT_EQ(comps.label[3], comps.largest_label);
}

TEST(Components, EmptyGraph) {
  const Snapshot snap = Snapshot::from_edges(0, {});
  const Components comps = connected_components(snap);
  EXPECT_EQ(comps.count, 0u);
  EXPECT_EQ(comps.largest_size, 0u);
}

TEST(DegreeStats, MixedDegrees) {
  const Snapshot snap =
      Snapshot::from_edges(5, Edges{{0, 1}, {0, 2}, {0, 3}});
  const DegreeStats stats = degree_stats(snap);
  EXPECT_EQ(stats.max, 3u);
  EXPECT_EQ(stats.min, 0u);
  EXPECT_EQ(stats.isolated, 1u);  // node 4
  EXPECT_DOUBLE_EQ(stats.mean, 6.0 / 5.0);
}

TEST(DegreeStats, EmptySnapshot) {
  const Snapshot snap = Snapshot::from_edges(0, {});
  const DegreeStats stats = degree_stats(snap);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
  EXPECT_EQ(stats.isolated, 0u);
}

TEST(DegreeStats, HandshakeLemma) {
  const Snapshot snap =
      Snapshot::from_edges(6, Edges{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 5}});
  const DegreeStats stats = degree_stats(snap);
  EXPECT_DOUBLE_EQ(stats.mean * 6.0, 2.0 * 5.0);
}

// The live-graph summary the sweep's degree metrics read must equal the
// snapshot summary bit for bit.
void expect_live_equals_snapshot(const DynamicGraph& graph,
                                 const std::string& what) {
  const DegreeStats live = degree_stats(graph);
  const DegreeStats snap = degree_stats(Snapshot::capture(graph, 0.0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(live.mean),
            std::bit_cast<std::uint64_t>(snap.mean))
      << what << ": mean " << live.mean << " vs " << snap.mean;
  EXPECT_EQ(live.min, snap.min) << what;
  EXPECT_EQ(live.max, snap.max) << what;
  EXPECT_EQ(live.isolated, snap.isolated) << what;
}

TEST(DegreeStats, LiveGraphEqualsSnapshotOnEveryScenario) {
  // Small d leaves SDG and PDG with isolated nodes after their churn.
  for (const Scenario& scenario : ScenarioRegistry::paper().scenarios()) {
    for (const std::uint32_t d : {1u, 6u}) {
      ScenarioParams params;
      params.n = 700;
      params.d = d;
      params.seed = 29;
      const AnyNetwork net = scenario.make_warmed(params);
      expect_live_equals_snapshot(net.graph(),
                                  scenario.name() + " d=" + std::to_string(d));
    }
  }
}

TEST(DegreeStats, LiveGraphEqualsSnapshotUnderAnInDegreeCap) {
  // A cap leaves requests dangling, so the degree sum is not n * 2d.
  for (const char* name : {"SDGR", "PDGR"}) {
    ScenarioParams params;
    params.n = 700;
    params.d = 6;
    params.seed = 31;
    params.max_in_degree = 7;
    const AnyNetwork net =
        ScenarioRegistry::paper().at(name).make_warmed(params);
    EXPECT_LT(net.graph().edge_count(),
              std::uint64_t{net.graph().alive_count()} * params.d)
        << name;
    expect_live_equals_snapshot(net.graph(), name);
  }
}

TEST(DegreeStats, LiveGraphEqualsSnapshotOnAnEmptyGraph) {
  const DynamicGraph graph;
  expect_live_equals_snapshot(graph, "empty");
  EXPECT_EQ(degree_stats(graph).max, 0u);
}

}  // namespace
}  // namespace churnet
