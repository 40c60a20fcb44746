// Tests for models/wiring.hpp: request drawing, regeneration and the
// WiringLimits (bounded-degree) mechanics, exercised directly against a
// DynamicGraph.
#include "models/wiring.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace churnet {
namespace {

TEST(Wiring, DrawTargetUnlimitedSamplesOtherNodes) {
  DynamicGraph graph;
  Rng rng(1);
  const NodeId a = graph.add_node(0, 0.0);
  const NodeId b = graph.add_node(0, 0.0);
  for (int i = 0; i < 100; ++i) {
    const NodeId t = detail::draw_target(graph, rng, a, {});
    EXPECT_EQ(t, b);
  }
}

TEST(Wiring, DrawTargetRespectsInCap) {
  DynamicGraph graph;
  Rng rng(2);
  const NodeId a = graph.add_node(2, 0.0);
  const NodeId full = graph.add_node(0, 0.0);
  const NodeId open = graph.add_node(0, 0.0);
  // Fill `full` to the cap.
  graph.set_out_edge(a, 0, full);
  WiringLimits limits{1, 16};
  for (int i = 0; i < 100; ++i) {
    const NodeId t = detail::draw_target(graph, rng, a, limits);
    EXPECT_EQ(t, open) << "must avoid the full node";
  }
}

TEST(Wiring, DrawTargetGivesUpWhenAllFull) {
  DynamicGraph graph;
  Rng rng(3);
  const NodeId a = graph.add_node(2, 0.0);
  const NodeId only = graph.add_node(0, 0.0);
  graph.set_out_edge(a, 0, only);
  WiringLimits limits{1, 8};
  EXPECT_EQ(detail::draw_target(graph, rng, a, limits), kInvalidNode);
}

TEST(Wiring, DrawTargetSingletonReturnsInvalid) {
  DynamicGraph graph;
  Rng rng(4);
  const NodeId only = graph.add_node(1, 0.0);
  EXPECT_EQ(detail::draw_target(graph, rng, only, {}), kInvalidNode);
  EXPECT_EQ(detail::draw_target(graph, rng, only, {4, 8}), kInvalidNode);
}

TEST(Wiring, IssueInitialRequestsFillsAllSlots) {
  DynamicGraph graph;
  Rng rng(5);
  for (int i = 0; i < 10; ++i) graph.add_node(0, 0.0);
  const NodeId owner = graph.add_node(5, 1.0);
  ChangeFeed feed;
  graph.attach_change_feed(&feed);
  detail::issue_initial_requests(graph, rng, owner);
  graph.attach_change_feed(nullptr);
  ASSERT_EQ(feed.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const GraphDelta& delta = feed.deltas()[i];
    EXPECT_EQ(delta.kind, GraphDelta::Kind::kEdgeSet);
    EXPECT_EQ(delta.node, owner);
    EXPECT_EQ(delta.index, i);
    EXPECT_NE(delta.target, owner);
  }
  EXPECT_EQ(graph.out_degree(owner), 5u);
}

TEST(Wiring, RegenerateRefillsOrphans) {
  DynamicGraph graph;
  Rng rng(6);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(graph.add_node(2, 0.0));
  // Wire nodes 0 and 1 to node 5, then kill node 5.
  graph.set_out_edge(nodes[0], 0, nodes[5]);
  graph.set_out_edge(nodes[1], 1, nodes[5]);
  const auto orphans = graph.remove_node(nodes[5]);
  ASSERT_EQ(orphans.size(), 2u);
  ChangeFeed feed;
  graph.attach_change_feed(&feed);
  detail::regenerate_requests(graph, rng, orphans);
  graph.attach_change_feed(nullptr);
  ASSERT_EQ(feed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(feed.deltas()[i].kind, GraphDelta::Kind::kEdgeSet);
    EXPECT_EQ(feed.deltas()[i].node, orphans[i].owner);
    EXPECT_EQ(feed.deltas()[i].index, orphans[i].index);
  }
  EXPECT_EQ(graph.out_degree(nodes[0]), 1u);
  EXPECT_TRUE(graph.out_target(nodes[0], 0).valid());
  EXPECT_TRUE(graph.check_consistency());
}

TEST(Wiring, RegenerateWithCapRetriesOtherDanglingSlots) {
  DynamicGraph graph;
  Rng rng(7);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(graph.add_node(3, 0.0));
  // nodes[0] has one wired slot (to the victim) and two dangling slots.
  graph.set_out_edge(nodes[0], 0, nodes[7]);
  const auto orphans = graph.remove_node(nodes[7]);
  ASSERT_EQ(orphans.size(), 1u);
  WiringLimits limits{10, 8};  // generous cap activates the retry pass
  detail::regenerate_requests(graph, rng, orphans, limits);
  // All three slots of nodes[0] should now be wired.
  EXPECT_EQ(graph.out_degree(nodes[0]), 3u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(Wiring, CapZeroNeverRetriesDanglingSlots) {
  DynamicGraph graph;
  Rng rng(8);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(graph.add_node(3, 0.0));
  graph.set_out_edge(nodes[0], 0, nodes[7]);
  const auto orphans = graph.remove_node(nodes[7]);
  detail::regenerate_requests(graph, rng, orphans, {});
  // Only the orphaned slot is refilled; the two never-wired slots stay
  // dangling (paper semantics: regeneration only replaces lost edges).
  EXPECT_EQ(graph.out_degree(nodes[0]), 1u);
}

TEST(Wiring, InitialRequestsWithTightCapLeaveDangling) {
  DynamicGraph graph;
  Rng rng(9);
  const NodeId a = graph.add_node(0, 0.0);
  const NodeId owner = graph.add_node(4, 0.0);
  WiringLimits limits{2, 16};
  detail::issue_initial_requests(graph, rng, owner, limits);
  // Only node `a` is available and it accepts at most 2 in-edges.
  EXPECT_EQ(graph.out_degree(owner), 2u);
  EXPECT_EQ(graph.in_degree(a), 2u);
}

}  // namespace
}  // namespace churnet
