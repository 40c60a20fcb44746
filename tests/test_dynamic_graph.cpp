// Tests for graph/dynamic_graph.hpp: slot reuse, generational ids, edge
// wiring, O(1) death semantics, orphan reporting, consistency invariants.
#include "graph/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "graph/change_feed.hpp"
#include "graph/snapshot.hpp"
#include "models/poisson_network.hpp"
#include "models/static_network.hpp"
#include "models/streaming_network.hpp"
#include "models/wiring.hpp"

namespace churnet {
namespace {

TEST(DynamicGraph, StartsEmpty) {
  DynamicGraph graph;
  EXPECT_EQ(graph.alive_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.total_births(), 0u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, AddNodeBasics) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(3, 1.5);
  EXPECT_TRUE(graph.is_alive(a));
  EXPECT_EQ(graph.alive_count(), 1u);
  EXPECT_EQ(graph.out_slot_count(a), 3u);
  EXPECT_EQ(graph.out_degree(a), 0u);  // slots start dangling
  EXPECT_EQ(graph.in_degree(a), 0u);
  EXPECT_DOUBLE_EQ(graph.birth_time(a), 1.5);
  EXPECT_EQ(graph.birth_seq(a), 0u);
  const NodeId b = graph.add_node(3, 2.0);
  EXPECT_EQ(graph.birth_seq(b), 1u);
  EXPECT_EQ(graph.total_births(), 2u);
}

TEST(DynamicGraph, SetAndClearOutEdge) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(2, 0.0);
  const NodeId b = graph.add_node(2, 0.0);
  graph.set_out_edge(a, 0, b);
  EXPECT_EQ(graph.out_degree(a), 1u);
  EXPECT_EQ(graph.in_degree(b), 1u);
  EXPECT_EQ(graph.degree(a), 1u);
  EXPECT_EQ(graph.degree(b), 1u);
  EXPECT_EQ(graph.out_target(a, 0), b);
  EXPECT_EQ(graph.out_target(a, 1), kInvalidNode);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_TRUE(graph.check_consistency());

  graph.clear_out_edge(a, 0);
  EXPECT_EQ(graph.out_degree(a), 0u);
  EXPECT_EQ(graph.in_degree(b), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, ParallelEdgesAllowed) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(3, 0.0);
  const NodeId b = graph.add_node(3, 0.0);
  graph.set_out_edge(a, 0, b);
  graph.set_out_edge(a, 1, b);
  graph.set_out_edge(a, 2, b);
  EXPECT_EQ(graph.out_degree(a), 3u);
  EXPECT_EQ(graph.in_degree(b), 3u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, RemoveNodeDetachesAllEdges) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(1, 0.0);
  const NodeId b = graph.add_node(1, 0.0);
  const NodeId c = graph.add_node(1, 0.0);
  graph.set_out_edge(a, 0, b);  // a -> b
  graph.set_out_edge(b, 0, c);  // b -> c
  graph.set_out_edge(c, 0, b);  // c -> b
  EXPECT_EQ(graph.edge_count(), 3u);

  const auto orphans = graph.remove_node(b);
  EXPECT_FALSE(graph.is_alive(b));
  EXPECT_EQ(graph.alive_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.out_degree(a), 0u);
  EXPECT_EQ(graph.out_degree(c), 0u);
  // Orphans: the out-slots of a and c that pointed at b.
  ASSERT_EQ(orphans.size(), 2u);
  std::set<std::uint32_t> owners;
  for (const auto& orphan : orphans) {
    owners.insert(orphan.owner.slot);
    EXPECT_EQ(orphan.index, 0u);
  }
  EXPECT_TRUE(owners.contains(a.slot));
  EXPECT_TRUE(owners.contains(c.slot));
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, RemoveNodeReportsNoOrphanForOwnEdges) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(2, 0.0);
  const NodeId b = graph.add_node(2, 0.0);
  graph.set_out_edge(a, 0, b);
  graph.set_out_edge(a, 1, b);
  const auto orphans = graph.remove_node(a);
  EXPECT_TRUE(orphans.empty());  // b loses in-edges, not out-edges
  EXPECT_EQ(graph.in_degree(b), 0u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, GenerationalIdsDetectStaleReferences) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(1, 0.0);
  graph.remove_node(a);
  EXPECT_FALSE(graph.is_alive(a));
  // The slot is recycled with a bumped generation.
  const NodeId reused = graph.add_node(1, 1.0);
  EXPECT_EQ(reused.slot, a.slot);
  EXPECT_NE(reused.generation, a.generation);
  EXPECT_FALSE(graph.is_alive(a));
  EXPECT_TRUE(graph.is_alive(reused));
}

TEST(DynamicGraph, InvalidIdNeverAlive) {
  DynamicGraph graph;
  EXPECT_FALSE(graph.is_alive(kInvalidNode));
  EXPECT_FALSE(graph.is_alive(NodeId{99, 0}));
}

TEST(DynamicGraph, RandomAliveReturnsAliveNodes) {
  DynamicGraph graph;
  Rng rng(1);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(graph.add_node(0, 0.0));
  graph.remove_node(nodes[3]);
  graph.remove_node(nodes[7]);
  for (int i = 0; i < 1000; ++i) {
    const NodeId pick = graph.random_alive(rng);
    EXPECT_TRUE(graph.is_alive(pick));
  }
}

TEST(DynamicGraph, RandomAliveIsUniform) {
  DynamicGraph graph;
  Rng rng(2);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(graph.add_node(0, 0.0));
  std::unordered_map<std::uint32_t, int> counts;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) ++counts[graph.random_alive(rng).slot];
  for (const NodeId node : nodes) {
    EXPECT_NEAR(counts[node.slot], kDraws / 5, 700);
  }
}

TEST(DynamicGraph, RandomAliveOtherExcludesNode) {
  DynamicGraph graph;
  Rng rng(3);
  const NodeId a = graph.add_node(0, 0.0);
  const NodeId b = graph.add_node(0, 0.0);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(graph.random_alive_other(rng, a), b);
    EXPECT_EQ(graph.random_alive_other(rng, b), a);
  }
}

TEST(DynamicGraph, RandomAliveOtherUniformOverRest) {
  DynamicGraph graph;
  Rng rng(4);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(graph.add_node(0, 0.0));
  std::unordered_map<std::uint32_t, int> counts;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const NodeId pick = graph.random_alive_other(rng, nodes[2]);
    EXPECT_NE(pick, nodes[2]);
    ++counts[pick.slot];
  }
  for (const NodeId node : nodes) {
    if (node == nodes[2]) continue;
    EXPECT_NEAR(counts[node.slot], kDraws / 5, 700);
  }
}

TEST(DynamicGraph, RandomAliveOtherSingletonReturnsInvalid) {
  DynamicGraph graph;
  Rng rng(5);
  const NodeId only = graph.add_node(0, 0.0);
  EXPECT_EQ(graph.random_alive_other(rng, only), kInvalidNode);
}

TEST(DynamicGraph, RandomAliveOtherWithDeadExcludeSamplesAll) {
  DynamicGraph graph;
  Rng rng(6);
  const NodeId dead = graph.add_node(0, 0.0);
  graph.remove_node(dead);
  const NodeId a = graph.add_node(0, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(graph.random_alive_other(rng, dead), a);
  }
}

TEST(DynamicGraph, AppendNeighborsBothDirections) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(1, 0.0);
  const NodeId b = graph.add_node(1, 0.0);
  const NodeId c = graph.add_node(1, 0.0);
  graph.set_out_edge(a, 0, b);
  graph.set_out_edge(c, 0, a);
  std::vector<NodeId> neighbors;
  graph.append_neighbors(a, neighbors);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_TRUE((neighbors[0] == b && neighbors[1] == c) ||
              (neighbors[0] == c && neighbors[1] == b));
}

TEST(DynamicGraph, AliveNodesMatchesLiveSet) {
  DynamicGraph graph;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(graph.add_node(0, 0.0));
  graph.remove_node(nodes[0]);
  graph.remove_node(nodes[4]);
  const auto alive = graph.alive_nodes();
  EXPECT_EQ(alive.size(), 6u);
  for (const NodeId node : alive) EXPECT_TRUE(graph.is_alive(node));
}

TEST(DynamicGraph, InListSwapEraseKeepsBackPointers) {
  // Regression shape: removing an in-edge from the middle of a long in-list
  // must fix the moved entry's back-pointer.
  DynamicGraph graph;
  const NodeId hub = graph.add_node(0, 0.0);
  std::vector<NodeId> spokes;
  for (int i = 0; i < 10; ++i) {
    const NodeId s = graph.add_node(1, 0.0);
    graph.set_out_edge(s, 0, hub);
    spokes.push_back(s);
  }
  EXPECT_EQ(graph.in_degree(hub), 10u);
  // Remove spokes in an order that exercises middle-of-list removals.
  for (const int i : {0, 5, 2, 8, 1}) {
    graph.remove_node(spokes[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(graph.check_consistency());
  }
  EXPECT_EQ(graph.in_degree(hub), 5u);
}

TEST(DynamicGraph, ClearOutEdgeMiddleOfInList) {
  DynamicGraph graph;
  const NodeId hub = graph.add_node(0, 0.0);
  std::vector<NodeId> spokes;
  for (int i = 0; i < 5; ++i) {
    const NodeId s = graph.add_node(1, 0.0);
    graph.set_out_edge(s, 0, hub);
    spokes.push_back(s);
  }
  graph.clear_out_edge(spokes[1], 0);
  EXPECT_TRUE(graph.check_consistency());
  graph.clear_out_edge(spokes[4], 0);
  EXPECT_TRUE(graph.check_consistency());
  EXPECT_EQ(graph.in_degree(hub), 3u);
}

TEST(DynamicGraph, RetargetAfterClearWorks) {
  DynamicGraph graph;
  const NodeId a = graph.add_node(1, 0.0);
  const NodeId b = graph.add_node(1, 0.0);
  const NodeId c = graph.add_node(1, 0.0);
  graph.set_out_edge(a, 0, b);
  graph.clear_out_edge(a, 0);
  graph.set_out_edge(a, 0, c);
  EXPECT_EQ(graph.out_target(a, 0), c);
  EXPECT_EQ(graph.in_degree(b), 0u);
  EXPECT_EQ(graph.in_degree(c), 1u);
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, RetiredChunksSplitBeforeTheSlabGrows) {
  // A hub's in-list climbs the capacity classes to a 128-entry chunk and
  // retires one chunk per class on the way (4 + 8 + 16 + 32 + 64 entries).
  // Once the hub dies, 252 retired entries make room for 63 first-size
  // (4-entry) in-lists: the empty classes split the larger chunks instead
  // of growing the slab.
  DynamicGraph graph;
  const NodeId hub = graph.add_node(0, 0.0);
  std::vector<NodeId> spokes;
  for (int i = 0; i < 100; ++i) {
    const NodeId spoke = graph.add_node(1, 0.0);
    graph.set_out_edge(spoke, 0, hub);
    spokes.push_back(spoke);
  }
  ASSERT_TRUE(graph.check_consistency());
  graph.remove_node(hub);
  ASSERT_TRUE(graph.check_consistency());

  const std::size_t arena = graph.arena_bytes();
  for (std::size_t i = 0; i < 63; ++i) {
    graph.set_out_edge(spokes[i], 0, spokes[i + 1]);
    ASSERT_TRUE(graph.check_consistency()) << "in-list " << i;
    EXPECT_EQ(graph.arena_bytes(), arena) << "in-list " << i;
  }
}

TEST(DynamicGraph, RegenerationChurnKeepsTheGenesisArena) {
  // SDGR warm-up: dying founders retire chunks of classes that newborns'
  // requests never ask for. Splitting them keeps every in-list inside the
  // slab genesis reserved, so no arena reallocates (and copies) after the
  // growth phase.
  StreamingConfig config;
  config.n = 20000;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 12345;
  StreamingNetwork net(config);
  net.run_growth_phase();
  const std::size_t arena = net.graph().arena_bytes();
  net.run_rounds(3ull * config.n);
  EXPECT_EQ(net.graph().arena_bytes(), arena);
  EXPECT_TRUE(net.graph().check_consistency());
}

// A graph dirtied by churn under a degree index and a change feed: out
// runs of two strides, retired in-chunks, recycled slots and generations.
DynamicGraph churned_graph(ChangeFeed& feed) {
  DynamicGraph graph;
  graph.attach_change_feed(&feed);
  Rng rng(5);
  std::vector<NodeId> nodes;
  for (std::uint32_t i = 0; i < 400; ++i) {
    nodes.push_back(graph.add_node(i % 3 == 0 ? 2 : 12, 0.5 * i));
  }
  EXPECT_TRUE(graph.extreme_degree(true).valid());  // builds the index
  for (const NodeId owner : nodes) {
    for (std::uint32_t k = 0; k < graph.out_slot_count(owner); ++k) {
      graph.set_out_edge(owner, k, graph.random_alive_other(rng, owner));
    }
  }
  RemovalScratch scratch;
  for (std::uint32_t i = 0; i < 150; ++i) {
    graph.remove_node(graph.random_alive(rng), scratch);
    graph.add_node(5, 1000.0 + i);
  }
  EXPECT_TRUE(graph.check_consistency());
  return graph;
}

void expect_same_snapshot(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  EXPECT_EQ(a.time(), b.time());
  for (std::uint32_t i = 0; i < a.node_count(); ++i) {
    ASSERT_EQ(a.node_id(i), b.node_id(i)) << i;
    ASSERT_EQ(a.birth_seq(i), b.birth_seq(i)) << i;
    ASSERT_EQ(a.age(i), b.age(i)) << i;
    const auto na = a.neighbors(i);
    const auto nb = b.neighbors(i);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end())) << i;
  }
}

TEST(DynamicGraph, ClearReturnsToTheFreshEmptyState) {
  ChangeFeed feed;
  DynamicGraph graph = churned_graph(feed);
  const std::size_t arena = graph.arena_bytes();
  graph.clear();
  EXPECT_EQ(graph.alive_count(), 0u);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_EQ(graph.total_births(), 0u);
  EXPECT_EQ(graph.slot_upper_bound(), 0u);
  EXPECT_EQ(graph.change_feed(), nullptr);
  EXPECT_FALSE(graph.extreme_degree(true).valid());
  EXPECT_EQ(graph.arena_bytes(), arena);  // capacity is kept
  EXPECT_TRUE(graph.check_consistency());
}

TEST(DynamicGraph, ModelsWarmedOnACleanedGraphEqualFreshOnes) {
  ChangeFeed feed;
  {
    StreamingConfig config;
    config.n = 300;
    config.d = 4;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = 41;
    DynamicGraph graph = churned_graph(feed);
    graph.clear();
    StreamingNetwork recycled(config, std::move(graph));
    StreamingNetwork fresh(config);
    recycled.warm_up();
    fresh.warm_up();
    recycled.run_rounds(100);
    fresh.run_rounds(100);
    EXPECT_TRUE(recycled.graph().check_consistency());
    expect_same_snapshot(recycled.snapshot(), fresh.snapshot());
  }
  {
    const PoissonConfig config =
        PoissonConfig::with_n(300, 4, EdgePolicy::kRegenerate, 43);
    DynamicGraph graph = churned_graph(feed);
    graph.clear();
    PoissonNetwork recycled(config, std::move(graph));
    PoissonNetwork fresh(config);
    recycled.warm_up();
    fresh.warm_up();
    recycled.run_events(500);
    fresh.run_events(500);
    EXPECT_TRUE(recycled.graph().check_consistency());
    expect_same_snapshot(recycled.snapshot(), fresh.snapshot());
  }
  {
    StaticConfig config;
    config.n = 300;
    config.d = 4;
    config.seed = 47;
    DynamicGraph graph = churned_graph(feed);
    graph.clear();
    const StaticNetwork recycled(config, std::move(graph));
    const StaticNetwork fresh(config);
    EXPECT_TRUE(recycled.graph().check_consistency());
    expect_same_snapshot(recycled.snapshot(), fresh.snapshot());
  }
}

// neighbor_slot_at(slot, k) is entry k of append_neighbor_slots' order for
// every alive node and every k < degree. SDG and PDG drop orphaned
// requests instead of regenerating them, so after their churn out-runs
// have dangling slots between live ones, and some nodes have degree 0.
TEST(DynamicGraph, NeighborSlotAtMatchesAppendNeighbors) {
  StreamingConfig sdg;
  sdg.n = 2000;
  sdg.d = 2;
  sdg.seed = 41;
  StreamingNetwork streaming(sdg);
  streaming.warm_up();
  PoissonNetwork poisson(PoissonConfig::with_n(2000, 2, EdgePolicy::kNone, 42));
  poisson.warm_up();
  for (const DynamicGraph* graph : {&streaming.graph(), &poisson.graph()}) {
    std::uint64_t dangling = 0;
    std::uint64_t isolated = 0;
    std::vector<std::uint32_t> neighbors;
    for (const NodeId node : graph->alive_nodes()) {
      neighbors.clear();
      graph->append_neighbor_slots(node.slot, neighbors);
      ASSERT_EQ(graph->degree(node), neighbors.size());
      dangling += graph->out_slot_count(node) - graph->out_degree(node);
      isolated += neighbors.empty();
      for (std::uint32_t k = 0; k < neighbors.size(); ++k) {
        ASSERT_EQ(graph->neighbor_slot_at(node.slot, k), neighbors[k])
            << "slot " << node.slot << " entry " << k;
      }
    }
    EXPECT_GT(dangling, 0u);
    EXPECT_GT(isolated, 0u);
  }
}

// The staged draw against random_alive_other called in turn: never the
// owner, the same targets, and the stream left in the same state. The
// batch repeats each owner (as a newborn's requests do) and holds a stale
// and an invalid id.
void expect_staged_draws_match(const DynamicGraph& graph, std::uint64_t seed) {
  const std::vector<NodeId> alive = graph.alive_nodes();
  std::vector<NodeId> owners;
  for (std::size_t i = 0; i < std::min<std::size_t>(alive.size(), 40); ++i) {
    owners.insert(owners.end(), {alive[i], alive[i]});
  }
  owners.push_back(NodeId{alive[0].slot, alive[0].generation + 1});
  owners.push_back(kInvalidNode);
  Rng staged(seed);
  Rng sequential(seed);
  std::vector<NodeId> targets(owners.size());
  graph.random_alive_others(staged, owners, targets);
  for (std::size_t i = 0; i < owners.size(); ++i) {
    ASSERT_NE(targets[i], owners[i]) << "draw " << i;
    ASSERT_EQ(targets[i], graph.random_alive_other(sequential, owners[i]))
        << "draw " << i;
  }
  EXPECT_EQ(staged.next_u64(), sequential.next_u64());
}

// The tiled wiring helpers against the one-at-a-time loop on a copy of
// the graph: a newborn's d requests, then the orphans of the death with
// the most in-edges, leave the same out-targets and the same stream.
void expect_tiled_wiring_matches(const DynamicGraph& graph, std::uint32_t d,
                                 std::uint64_t seed) {
  DynamicGraph tiled = graph;
  DynamicGraph reference = graph;
  Rng tiled_rng(seed);
  Rng reference_rng(seed);
  const NodeId born = tiled.add_node(d, 0.0);
  ASSERT_EQ(reference.add_node(d, 0.0), born);
  detail::issue_initial_requests(tiled, tiled_rng, born);
  for (std::uint32_t i = 0; i < d; ++i) {
    reference.set_out_edge(born, i,
                           reference.random_alive_other(reference_rng, born));
  }
  const std::vector<NodeId> alive = graph.alive_nodes();
  const NodeId victim = *std::max_element(
      alive.begin(), alive.end(), [&graph](NodeId a, NodeId b) {
        return graph.in_degree(a) < graph.in_degree(b);
      });
  RemovalScratch tiled_scratch;
  RemovalScratch reference_scratch;
  tiled.remove_node(victim, tiled_scratch);
  reference.remove_node(victim, reference_scratch);
  ASSERT_EQ(tiled_scratch.orphans, reference_scratch.orphans);
  detail::regenerate_requests(tiled, tiled_rng, tiled_scratch.orphans);
  for (const OutSlotRef& orphan : reference_scratch.orphans) {
    reference.set_out_edge(
        orphan.owner, orphan.index,
        reference.random_alive_other(reference_rng, orphan.owner));
  }
  EXPECT_TRUE(tiled.check_consistency());
  for (const NodeId node : reference.alive_nodes()) {
    for (std::uint32_t i = 0; i < reference.out_slot_count(node); ++i) {
      ASSERT_EQ(tiled.out_target(node, i), reference.out_target(node, i));
    }
  }
  EXPECT_EQ(tiled_rng.next_u64(), reference_rng.next_u64());
}

TEST(DynamicGraph, BatchedDrawsMatchSequentialDraws) {
  // d = 21 passes kWiringTile, so a newborn's requests and a death's
  // orphans span two tiles.
  for (const std::uint32_t d : {4u, 21u}) {
    for (const EdgePolicy policy : {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
      StreamingConfig config;
      config.n = 2000;
      config.d = d;
      config.policy = policy;
      config.seed = 51 + d;
      StreamingNetwork streaming(config);
      streaming.warm_up();
      PoissonNetwork poisson(PoissonConfig::with_n(2000, d, policy, 53 + d));
      poisson.warm_up();
      for (const DynamicGraph* graph : {&streaming.graph(), &poisson.graph()}) {
        SCOPED_TRACE(testing::Message() << "d=" << d << " policy="
                                        << static_cast<int>(policy));
        expect_staged_draws_match(*graph, 61 + d);
        expect_tiled_wiring_matches(*graph, d, 67 + d);
      }
    }
  }

  // No other node alive: the target is invalid and nothing is drawn.
  const NodeId owners[] = {kInvalidNode, NodeId{0, 0}};
  NodeId targets[2];
  DynamicGraph empty;
  Rng rng(71);
  empty.random_alive_others(rng, owners, targets);
  EXPECT_EQ(targets[0], kInvalidNode);
  EXPECT_EQ(targets[1], kInvalidNode);
  EXPECT_EQ(rng.next_u64(), Rng(71).next_u64());

  DynamicGraph one;
  const NodeId only = one.add_node(2, 0.0);
  const NodeId one_owners[] = {only, kInvalidNode};
  Rng staged(73);
  Rng sequential(73);
  one.random_alive_others(staged, one_owners, targets);
  EXPECT_EQ(targets[0], kInvalidNode);
  EXPECT_EQ(targets[1], only);
  EXPECT_EQ(one.random_alive_other(sequential, only), kInvalidNode);
  EXPECT_EQ(one.random_alive_other(sequential, kInvalidNode), only);
  EXPECT_EQ(staged.next_u64(), sequential.next_u64());
}

// Property test: random add/remove/wire churn keeps the structure
// consistent and leaves no dangling references.
class DynamicGraphChurnTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DynamicGraphChurnTest, RandomChurnPreservesInvariants) {
  Rng rng(GetParam());
  DynamicGraph graph;
  std::vector<NodeId> alive;
  constexpr int kSteps = 2000;
  for (int step = 0; step < kSteps; ++step) {
    const double action = rng.real01();
    if (action < 0.5 || alive.size() < 3) {
      const NodeId node = graph.add_node(3, static_cast<double>(step));
      // Wire as many slots as possible to random targets.
      for (std::uint32_t i = 0; i < 3; ++i) {
        const NodeId target = graph.random_alive_other(rng, node);
        if (target.valid()) graph.set_out_edge(node, i, target);
      }
      alive.push_back(node);
    } else {
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(alive.size()));
      const NodeId victim = alive[pick];
      alive[pick] = alive.back();
      alive.pop_back();
      const auto orphans = graph.remove_node(victim);
      // Regenerate some of the orphans, clear others implicitly.
      for (const auto& orphan : orphans) {
        if (!rng.bernoulli(0.5)) continue;
        const NodeId target = graph.random_alive_other(rng, orphan.owner);
        if (target.valid()) {
          graph.set_out_edge(orphan.owner, orphan.index, target);
        }
      }
    }
    if (step % 100 == 0) {
      ASSERT_TRUE(graph.check_consistency());
    }
  }
  EXPECT_TRUE(graph.check_consistency());
  EXPECT_EQ(graph.alive_count(), alive.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicGraphChurnTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace churnet
