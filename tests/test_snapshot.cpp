// Tests for graph/snapshot.hpp: capture correctness, age ordering,
// from_edges factory, node order.
#include "graph/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace churnet {
namespace {

TEST(Snapshot, EmptyGraph) {
  DynamicGraph graph;
  const Snapshot snap = Snapshot::capture(graph, 0.0);
  EXPECT_EQ(snap.node_count(), 0u);
  EXPECT_EQ(snap.edge_count(), 0u);
}

TEST(Snapshot, SingleNode) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(2, 1.0);
  const Snapshot snap = Snapshot::capture(graph, 5.0);
  ASSERT_EQ(snap.node_count(), 1u);
  EXPECT_EQ(snap.degree(0), 0u);
  EXPECT_EQ(snap.node_id(0), a);
  EXPECT_DOUBLE_EQ(snap.age(0), 4.0);
  EXPECT_DOUBLE_EQ(snap.time(), 5.0);
}

TEST(Snapshot, UndirectedDegrees) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(2, 0.0);
  const NodeId b = graph.add_node(2, 1.0);
  const NodeId c = graph.add_node(2, 2.0);
  graph.set_out_edge(b, 0, a);
  graph.set_out_edge(c, 0, a);
  graph.set_out_edge(c, 1, b);
  const Snapshot snap = Snapshot::capture(graph, 3.0);
  ASSERT_EQ(snap.node_count(), 3u);
  // Index 0 is the oldest (a).
  EXPECT_EQ(snap.node_id(0), a);
  EXPECT_EQ(snap.node_id(1), b);
  EXPECT_EQ(snap.node_id(2), c);
  EXPECT_EQ(snap.degree(0), 2u);  // a: from b, from c
  EXPECT_EQ(snap.degree(1), 2u);  // b: to a, from c
  EXPECT_EQ(snap.degree(2), 2u);  // c: to a, to b
  EXPECT_EQ(snap.edge_count(), 3u);
}

TEST(Snapshot, NeighborListsAreSymmetric) {
  DynamicGraph graph;
  Rng rng(7);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 30; ++i) nodes.push_back(graph.add_node(3, i));
  for (const NodeId node : nodes) {
    for (std::uint32_t k = 0; k < 3; ++k) {
      const NodeId target = graph.random_alive_other(rng, node);
      if (target.valid()) graph.set_out_edge(node, k, target);
    }
  }
  const Snapshot snap = Snapshot::capture(graph, 30.0);
  // Count occurrences in both directions; multiset symmetry must hold.
  std::vector<std::vector<std::uint32_t>> sorted_neighbors(snap.node_count());
  for (std::uint32_t v = 0; v < snap.node_count(); ++v) {
    const auto list = snap.neighbors(v);
    sorted_neighbors[v].assign(list.begin(), list.end());
    std::sort(sorted_neighbors[v].begin(), sorted_neighbors[v].end());
  }
  for (std::uint32_t v = 0; v < snap.node_count(); ++v) {
    for (const std::uint32_t w : sorted_neighbors[v]) {
      const auto count_vw = static_cast<std::size_t>(
          std::count(sorted_neighbors[v].begin(), sorted_neighbors[v].end(),
                     w));
      const auto count_wv = static_cast<std::size_t>(
          std::count(sorted_neighbors[w].begin(), sorted_neighbors[w].end(),
                     v));
      EXPECT_EQ(count_vw, count_wv);
    }
  }
}

TEST(Snapshot, AgesSortedAscendingWithIndex) {
  DynamicGraph graph;
  for (int i = 0; i < 10; ++i) graph.add_node(0, i);
  const Snapshot snap = Snapshot::capture(graph, 10.0);
  for (std::uint32_t v = 0; v + 1 < snap.node_count(); ++v) {
    EXPECT_GE(snap.age(v), snap.age(v + 1));
    EXPECT_LT(snap.birth_seq(v), snap.birth_seq(v + 1));
  }
}

TEST(Snapshot, NodeIdsListTheAliveOldestFirst) {
  DynamicGraph graph;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 12; ++i) nodes.push_back(graph.add_node(0, i));
  graph.remove_node(nodes[4]);
  const Snapshot snap = Snapshot::capture(graph, 12.0);
  // The dead node is absent; the rest appear in birth order.
  nodes.erase(nodes.begin() + 4);
  ASSERT_EQ(snap.node_count(), nodes.size());
  for (std::uint32_t i = 0; i < snap.node_count(); ++i) {
    EXPECT_EQ(snap.node_id(i), nodes[i]) << "index " << i;
  }
}

TEST(Snapshot, CaptureIsImmutableUnderLaterChurn) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(1, 0.0);
  const NodeId b = graph.add_node(1, 1.0);
  graph.set_out_edge(a, 0, b);
  const Snapshot snap = Snapshot::capture(graph, 2.0);
  graph.remove_node(b);
  EXPECT_EQ(snap.node_count(), 2u);
  EXPECT_EQ(snap.edge_count(), 1u);
  EXPECT_EQ(snap.degree(0), 1u);
}

TEST(SnapshotFromEdges, BuildsExpectedTopology) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{
      {0, 1}, {1, 2}, {2, 0}};
  const Snapshot snap = Snapshot::from_edges(3, edges);
  EXPECT_EQ(snap.node_count(), 3u);
  EXPECT_EQ(snap.edge_count(), 3u);
  for (std::uint32_t v = 0; v < 3; ++v) EXPECT_EQ(snap.degree(v), 2u);
}

TEST(SnapshotFromEdges, IsolatedNodesHaveZeroDegree) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{{0, 1}};
  const Snapshot snap = Snapshot::from_edges(4, edges);
  EXPECT_EQ(snap.degree(0), 1u);
  EXPECT_EQ(snap.degree(1), 1u);
  EXPECT_EQ(snap.degree(2), 0u);
  EXPECT_EQ(snap.degree(3), 0u);
}

TEST(SnapshotFromEdges, ParallelEdgesKeepMultiplicity) {
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> edges{{0, 1},
                                                                   {0, 1}};
  const Snapshot snap = Snapshot::from_edges(2, edges);
  EXPECT_EQ(snap.degree(0), 2u);
  EXPECT_EQ(snap.degree(1), 2u);
  EXPECT_EQ(snap.edge_count(), 2u);
}

TEST(SnapshotFromEdges, NoEdges) {
  const Snapshot snap = Snapshot::from_edges(5, {});
  EXPECT_EQ(snap.node_count(), 5u);
  EXPECT_EQ(snap.edge_count(), 0u);
}

}  // namespace
}  // namespace churnet
