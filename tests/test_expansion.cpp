// Tests for expansion/expansion.hpp: incremental boundary tracking, exact
// expansion on known graphs, probe sanity (upper bound property, also on
// tiny SDGR snapshots).
#include "expansion/expansion.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "baselines/static_dout.hpp"
#include "common/rng.hpp"
#include "models/streaming_network.hpp"

namespace churnet {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Snapshot path_graph(std::uint32_t n) {
  Edges edges;
  for (std::uint32_t v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Snapshot::from_edges(n, edges);
}

Snapshot cycle_graph(std::uint32_t n) {
  Edges edges;
  for (std::uint32_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Snapshot::from_edges(n, edges);
}

Snapshot complete_graph(std::uint32_t n) {
  Edges edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Snapshot::from_edges(n, edges);
}

TEST(IncrementalSet, TracksBoundaryOnPath) {
  const Snapshot snap = path_graph(5);  // 0-1-2-3-4
  IncrementalSet set(snap);
  set.add(2);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.boundary_size(), 2u);  // {1, 3}
  set.add(1);
  EXPECT_EQ(set.boundary_size(), 2u);  // {0, 3}
  set.add(0);
  EXPECT_EQ(set.boundary_size(), 1u);  // {3}
  set.add(3);
  EXPECT_EQ(set.boundary_size(), 1u);  // {4}
  set.add(4);
  EXPECT_EQ(set.boundary_size(), 0u);
  EXPECT_EQ(set.size(), 5u);
}

TEST(IncrementalSet, ClearResets) {
  const Snapshot snap = cycle_graph(6);
  IncrementalSet set(snap);
  set.add(0);
  set.add(1);
  set.clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.boundary_size(), 0u);
  set.add(3);
  EXPECT_EQ(set.boundary_size(), 2u);
  EXPECT_TRUE(set.contains(3));
  EXPECT_FALSE(set.contains(0));
}

TEST(IncrementalSet, RatioMatchesDefinition) {
  const Snapshot snap = cycle_graph(8);
  IncrementalSet set(snap);
  set.add(0);
  set.add(1);
  set.add(2);
  EXPECT_DOUBLE_EQ(set.ratio(), 2.0 / 3.0);
}

TEST(BoundarySize, MatchesManualCount) {
  const Snapshot snap =
      Snapshot::from_edges(6, Edges{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4},
                                    {4, 5}});
  const std::vector<std::uint32_t> set{0, 1, 2};
  EXPECT_EQ(boundary_size(snap, set), 1u);  // only node 3
  EXPECT_DOUBLE_EQ(expansion_ratio(snap, set), 1.0 / 3.0);
}

TEST(BoundarySize, DuplicateNeighborsCountedOnce) {
  // Parallel edges must not double-count boundary nodes.
  const Snapshot snap = Snapshot::from_edges(3, Edges{{0, 1}, {0, 1}, {1, 2}});
  const std::vector<std::uint32_t> set{0};
  EXPECT_EQ(boundary_size(snap, set), 1u);
}

TEST(ExactExpansion, CompleteGraph) {
  // K_n: any S has boundary n - |S|; min over |S| <= n/2 is at |S| = n/2.
  const Snapshot snap = complete_graph(8);
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 1.0);  // (8-4)/4
}

TEST(ExactExpansion, CompleteGraphOdd) {
  const Snapshot snap = complete_graph(7);
  // |S| = 3 (max <= 3.5): boundary 4, ratio 4/3.
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 4.0 / 3.0);
}

TEST(ExactExpansion, CycleGraph) {
  // C_n: worst set is a contiguous arc of n/2 nodes: boundary 2.
  const Snapshot snap = cycle_graph(12);
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 2.0 / 6.0);
}

TEST(ExactExpansion, PathGraph) {
  // P_n: the end-arc of n/2 nodes has boundary 1.
  const Snapshot snap = path_graph(10);
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 1.0 / 5.0);
}

TEST(ExactExpansion, DisconnectedGraphIsZero) {
  const Snapshot snap = Snapshot::from_edges(6, Edges{{0, 1}, {2, 3}, {4, 5}});
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 0.0);
}

TEST(ExactExpansion, StarGraph) {
  // Star K_{1,5}: a single leaf has boundary 1 (ratio 1); two leaves have
  // boundary 1 (the hub), ratio 1/2; three leaves: 1/3 (|S|=3 <= 3).
  const Snapshot snap =
      Snapshot::from_edges(6, Edges{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}});
  EXPECT_DOUBLE_EQ(exact_vertex_expansion(snap), 1.0 / 3.0);
}

/// A tiny SDGR snapshot (d = 4) after n + 4 churn rounds.
Snapshot tiny_sdgr_snapshot(std::uint32_t n) {
  StreamingConfig config;
  config.n = n;
  config.d = 4;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = derive_seed(12345, 500 + n, 0);
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(n + 4);
  return net.snapshot();
}

TEST(ProbeExpansion, UpperBoundsExactOnSmallGraphs) {
  Rng rng(1);
  std::vector<Snapshot> graphs;
  for (const std::uint32_t n : {8u, 12u, 16u}) graphs.push_back(cycle_graph(n));
  for (const std::uint32_t n : {12u, 16u}) {
    graphs.push_back(tiny_sdgr_snapshot(n));
  }
  for (const Snapshot& snap : graphs) {
    const double exact = exact_vertex_expansion(snap);
    ProbeOptions options;
    options.random_sets_per_size = 16;
    const ProbeResult probe = probe_expansion(snap, rng, options);
    EXPECT_GE(probe.min_ratio, exact - 1e-12) << "n=" << snap.node_count();
  }
}

TEST(ProbeExpansion, FindsTheCycleWorstCase) {
  // BFS balls on a cycle are contiguous arcs = the exact minimizers, so the
  // probe should achieve the exact value.
  Rng rng(2);
  const Snapshot snap = cycle_graph(16);
  const ProbeResult probe = probe_expansion(snap, rng, {});
  EXPECT_DOUBLE_EQ(probe.min_ratio, exact_vertex_expansion(snap));
}

TEST(ProbeExpansion, DetectsIsolatedVertex) {
  Rng rng(3);
  const Snapshot snap = Snapshot::from_edges(8, Edges{{0, 1}, {1, 2}, {2, 3},
                                                      {3, 0}, {4, 5}, {5, 6},
                                                      {6, 4}});
  // Node 7 is isolated: min ratio must be 0.
  const ProbeResult probe = probe_expansion(snap, rng, {});
  EXPECT_DOUBLE_EQ(probe.min_ratio, 0.0);
}

TEST(ProbeExpansion, RespectsSizeWindow) {
  Rng rng(4);
  const Snapshot snap = path_graph(40);
  ProbeOptions options;
  options.min_size = 10;
  options.max_size = 20;
  const ProbeResult probe = probe_expansion(snap, rng, options);
  EXPECT_GE(probe.argmin_size, 10u);
  EXPECT_LE(probe.argmin_size, 20u);
}

TEST(ProbeExpansion, StaticDoutGraphIsExpander) {
  // Lemma B.1: static d-out graphs with d >= 3 are Θ(1)-expanders w.h.p.
  Rng rng(5);
  const Snapshot snap = static_dout_snapshot(2000, 5, rng);
  ProbeOptions options;
  options.random_sets_per_size = 8;
  options.bfs_seeds = 8;
  options.greedy_seeds = 4;
  const ProbeResult probe = probe_expansion(snap, rng, options);
  EXPECT_GT(probe.min_ratio, 0.15);
  EXPECT_GT(probe.sets_probed, 1000u);
}

TEST(ProbeExpansion, ReportsArgminFamily) {
  Rng rng(6);
  const Snapshot snap = cycle_graph(20);
  const ProbeResult probe = probe_expansion(snap, rng, {});
  EXPECT_FALSE(probe.argmin_family.empty());
  EXPECT_GT(probe.argmin_size, 0u);
}

TEST(ProbeResult, ObserveTracksMinimum) {
  ProbeResult result;
  result.observe(0.5, 10, "a");
  result.observe(0.3, 20, "b");
  result.observe(0.7, 5, "c");
  EXPECT_DOUBLE_EQ(result.min_ratio, 0.3);
  EXPECT_EQ(result.argmin_size, 20u);
  EXPECT_EQ(result.argmin_family, "b");
  EXPECT_EQ(result.sets_probed, 3u);
}

}  // namespace
}  // namespace churnet
