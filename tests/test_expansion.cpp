// Tests for expansion/expansion.hpp: incremental boundary tracking, exact
// expansion on known graphs, probe sanity (upper bound property, also on
// tiny SDGR snapshots), and bit-identity of the probe against the
// rescanning reference families.
#include "expansion/expansion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "baselines/static_dout.hpp"
#include "common/rng.hpp"
#include "models/poisson_network.hpp"
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

// ---------------------------------------------------------------------------
// The probe families as they were before greedy growth scored candidates
// from running inside-counts, embedded as a reference: each greedy step
// rescans every sampled candidate's neighbor list. probe_expansion must
// match it bit for bit and leave the RNG in the same state.
// ---------------------------------------------------------------------------

class ReferenceGrowthObserver {
 public:
  ReferenceGrowthObserver(ProbeResult& result, std::uint32_t min_size,
                          std::uint32_t max_size, const char* family)
      : result_(&result),
        min_size_(min_size),
        max_size_(max_size),
        family_(family) {}

  void step(const IncrementalSet& set) {
    if (set.size() < min_size_ || set.size() > max_size_) return;
    result_->observe(set.ratio(), set.size(), family_);
  }

 private:
  ProbeResult* result_;
  std::uint32_t min_size_;
  std::uint32_t max_size_;
  const char* family_;
};

void reference_random_sets(const Snapshot& snapshot, Rng& rng,
                           const ProbeOptions& options,
                           std::uint32_t max_size, ProbeResult& result) {
  std::vector<std::uint32_t> sizes;
  const double lo = std::max<double>(1.0, options.min_size);
  const double hi = std::max<double>(lo, max_size);
  for (std::uint32_t i = 0; i < options.size_steps; ++i) {
    const double t = options.size_steps == 1
                         ? 0.0
                         : static_cast<double>(i) /
                               static_cast<double>(options.size_steps - 1);
    const auto size = static_cast<std::uint32_t>(
        std::llround(lo * std::pow(hi / lo, t)));
    if (sizes.empty() || sizes.back() != size) sizes.push_back(size);
  }
  IncrementalSet tracker(snapshot);
  for (const std::uint32_t size : sizes) {
    for (std::uint32_t rep = 0; rep < options.random_sets_per_size; ++rep) {
      tracker.clear();
      for (const std::uint64_t v :
           rng.sample_distinct(snapshot.node_count(), size)) {
        tracker.add(static_cast<std::uint32_t>(v));
      }
      result.observe(tracker.ratio(), size, "random");
    }
  }
}

void reference_bfs_balls(const Snapshot& snapshot, Rng& rng,
                         const ProbeOptions& options, std::uint32_t max_size,
                         ProbeResult& result) {
  const std::uint32_t limit = std::min(max_size, options.growth_limit);
  IncrementalSet tracker(snapshot);
  std::vector<std::uint32_t> queue;
  std::vector<bool> enqueued(snapshot.node_count(), false);
  for (std::uint32_t seed = 0; seed < options.bfs_seeds; ++seed) {
    tracker.clear();
    queue.clear();
    std::fill(enqueued.begin(), enqueued.end(), false);
    ReferenceGrowthObserver observer(result, options.min_size, max_size,
                                     "bfs");
    const auto start =
        static_cast<std::uint32_t>(rng.below(snapshot.node_count()));
    queue.push_back(start);
    enqueued[start] = true;
    std::size_t head = 0;
    while (head < queue.size() && tracker.size() < limit) {
      const std::uint32_t v = queue[head++];
      tracker.add(v);
      observer.step(tracker);
      for (const std::uint32_t w : snapshot.neighbors(v)) {
        if (!enqueued[w]) {
          enqueued[w] = true;
          queue.push_back(w);
        }
      }
    }
  }
}

void reference_age_ranges(const Snapshot& snapshot,
                          const ProbeOptions& options, std::uint32_t max_size,
                          ProbeResult& result) {
  const std::uint32_t n = snapshot.node_count();
  {
    IncrementalSet tracker(snapshot);
    ReferenceGrowthObserver observer(result, options.min_size, max_size,
                                     "age-oldest");
    for (std::uint32_t v = 0; v < n && tracker.size() < max_size; ++v) {
      tracker.add(v);
      observer.step(tracker);
    }
  }
  {
    IncrementalSet tracker(snapshot);
    ReferenceGrowthObserver observer(result, options.min_size, max_size,
                                     "age-youngest");
    for (std::uint32_t i = 0; i < n && tracker.size() < max_size; ++i) {
      tracker.add(n - 1 - i);
      observer.step(tracker);
    }
  }
}

void reference_low_degree(const Snapshot& snapshot,
                          const ProbeOptions& options, std::uint32_t max_size,
                          ProbeResult& result) {
  const std::uint32_t n = snapshot.node_count();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t v = 0; v < n; ++v) order[v] = v;
  const std::uint32_t k =
      std::min<std::uint32_t>(options.low_degree_singletons, n);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return snapshot.degree(a) < snapshot.degree(b);
                    });
  if (options.min_size <= 1) {
    for (std::uint32_t i = 0; i < k; ++i) {
      const std::uint32_t single[] = {order[i]};
      result.observe(static_cast<double>(boundary_size(snapshot, single)), 1,
                     "low-degree");
    }
  }
  std::vector<std::uint32_t> isolated;
  for (std::uint32_t v = 0; v < n; ++v) {
    if (snapshot.degree(v) == 0) isolated.push_back(v);
  }
  if (!isolated.empty() && isolated.size() >= options.min_size &&
      isolated.size() <= max_size) {
    result.observe(0.0, static_cast<std::uint32_t>(isolated.size()),
                   "isolated-set");
  }
}

void reference_greedy_growth(const Snapshot& snapshot, Rng& rng,
                             const ProbeOptions& options,
                             std::uint32_t max_size, ProbeResult& result) {
  const std::uint32_t n = snapshot.node_count();
  const std::uint32_t limit = std::min(max_size, options.growth_limit);
  IncrementalSet tracker(snapshot);
  std::vector<std::uint32_t> boundary_pool;
  for (std::uint32_t seed_index = 0; seed_index < options.greedy_seeds;
       ++seed_index) {
    tracker.clear();
    boundary_pool.clear();
    ReferenceGrowthObserver observer(result, options.min_size, max_size,
                                     "greedy");
    const auto start = static_cast<std::uint32_t>(rng.below(n));
    tracker.add(start);
    observer.step(tracker);
    for (const std::uint32_t w : snapshot.neighbors(start)) {
      boundary_pool.push_back(w);
    }
    while (tracker.size() < limit && !boundary_pool.empty()) {
      std::uint32_t best_pos = 0;
      std::uint32_t best_value = 0;
      std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
      const std::uint32_t tries = std::min<std::uint32_t>(
          options.greedy_fanout,
          static_cast<std::uint32_t>(boundary_pool.size()));
      for (std::uint32_t t = 0; t < tries; ++t) {
        const auto pos =
            static_cast<std::uint32_t>(rng.below(boundary_pool.size()));
        const std::uint32_t candidate = boundary_pool[pos];
        if (tracker.contains(candidate)) {  // stale entry
          boundary_pool[pos] = boundary_pool.back();
          boundary_pool.pop_back();
          if (boundary_pool.empty()) break;
          continue;
        }
        std::int64_t outside = 0;
        for (const std::uint32_t w : snapshot.neighbors(candidate)) {
          if (!tracker.contains(w)) ++outside;
        }
        if (outside < best_score) {
          best_score = outside;
          best_pos = pos;
          best_value = candidate;
        }
      }
      if (boundary_pool.empty()) break;
      std::uint32_t chosen = best_value;
      if (best_pos < boundary_pool.size()) {
        chosen = boundary_pool[best_pos];
        boundary_pool[best_pos] = boundary_pool.back();
      }
      boundary_pool.pop_back();
      if (tracker.contains(chosen)) continue;
      tracker.add(chosen);
      observer.step(tracker);
      for (const std::uint32_t w : snapshot.neighbors(chosen)) {
        if (!tracker.contains(w)) boundary_pool.push_back(w);
      }
    }
  }
}

ProbeResult reference_probe_expansion(const Snapshot& snapshot, Rng& rng,
                                      const ProbeOptions& options) {
  const std::uint32_t n = snapshot.node_count();
  CHURNET_EXPECTS(n >= 2);
  const std::uint32_t max_size =
      options.max_size == 0 ? n / 2 : std::min(options.max_size, n / 2);
  CHURNET_EXPECTS(options.min_size >= 1 && options.min_size <= max_size);

  ProbeResult result;
  reference_random_sets(snapshot, rng, options, max_size, result);
  if (options.bfs_seeds > 0) {
    reference_bfs_balls(snapshot, rng, options, max_size, result);
  }
  if (options.age_ranges) {
    reference_age_ranges(snapshot, options, max_size, result);
  }
  if (options.low_degree_singletons > 0) {
    reference_low_degree(snapshot, options, max_size, result);
  }
  if (options.greedy_seeds > 0) {
    reference_greedy_growth(snapshot, rng, options, max_size, result);
  }
  return result;
}

/// Runs the probe and the reference from equal RNG states and requires
/// bit-equal results and RNG states.
void expect_probe_matches_reference(const Snapshot& snap, std::uint64_t seed,
                                    const ProbeOptions& options,
                                    const std::string& label) {
  SCOPED_TRACE(label + " fanout=" + std::to_string(options.greedy_fanout));
  Rng probe_rng(seed);
  Rng reference_rng(seed);
  const ProbeResult got = probe_expansion(snap, probe_rng, options);
  const ProbeResult want =
      reference_probe_expansion(snap, reference_rng, options);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.min_ratio),
            std::bit_cast<std::uint64_t>(want.min_ratio));
  EXPECT_EQ(got.argmin_size, want.argmin_size);
  EXPECT_EQ(got.argmin_family, want.argmin_family);
  EXPECT_EQ(got.sets_probed, want.sets_probed);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(probe_rng.normal()),
            std::bit_cast<std::uint64_t>(reference_rng.normal()));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(probe_rng.next_u64(), reference_rng.next_u64());
  }
}

/// Greedy-only options: the family whose scoring changed, isolated so a
/// difference cannot hide behind another family's minimum.
ProbeOptions greedy_only(std::uint32_t fanout) {
  ProbeOptions options;
  options.random_sets_per_size = 0;
  options.bfs_seeds = 0;
  options.age_ranges = false;
  options.low_degree_singletons = 0;
  options.greedy_seeds = 6;
  options.greedy_fanout = fanout;
  return options;
}

/// A multigraph on n nodes: random edges with parallel edges and
/// self-loops; low density leaves some nodes of degree 0 or 1.
Snapshot random_multigraph(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  Edges edges;
  for (std::uint32_t k = 0; k < 2 * n; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    const auto b = static_cast<std::uint32_t>(rng.below(n));
    edges.emplace_back(a, b);
    if (k % 5 == 0) edges.emplace_back(a, b);  // parallel edge
    if (k % 9 == 0) edges.emplace_back(b, b);  // self-loop
  }
  return Snapshot::from_edges(n, edges);
}

TEST(ProbeKernel, MatchesReferenceOnMultigraphs) {
  // n = 0, 1, 2, 3 (mod 4), fanouts 1, 48 and more than any pool.
  for (const std::uint32_t n : {4u, 9u, 38u, 63u, 120u, 401u}) {
    const Snapshot snap = random_multigraph(n, 200 + n);
    for (const std::uint32_t fanout : {1u, 48u, 100000u}) {
      ProbeOptions full;
      full.greedy_fanout = fanout;
      expect_probe_matches_reference(snap, 300 + n, full,
                                     "all families n=" + std::to_string(n));
      expect_probe_matches_reference(snap, 400 + n, greedy_only(fanout),
                                     "greedy n=" + std::to_string(n));
    }
  }
}

TEST(ProbeKernel, MatchesReferenceWithDegreeZeroVertex) {
  // Node 7 is isolated, and node 3 has only a self-loop; a greedy seed
  // there ends at once.
  const Snapshot snap = Snapshot::from_edges(
      8, Edges{{0, 1}, {1, 2}, {2, 0}, {0, 1}, {3, 3}, {4, 5}, {5, 6},
               {6, 4}, {4, 4}});
  for (const std::uint32_t fanout : {1u, 48u, 100000u}) {
    expect_probe_matches_reference(snap, 51, greedy_only(fanout),
                                   "degree-0 greedy");
    ProbeOptions full;
    full.greedy_fanout = fanout;
    expect_probe_matches_reference(snap, 52, full, "degree-0 all families");
  }
}

TEST(ProbeKernel, MatchesReferenceOnWarmedSnapshots) {
  StreamingConfig sdgr;
  sdgr.n = 1000;
  sdgr.d = 4;
  sdgr.policy = EdgePolicy::kRegenerate;
  sdgr.seed = 61;
  StreamingNetwork streaming(sdgr);
  streaming.warm_up();
  const Snapshot sdgr_snap = streaming.snapshot();

  PoissonNetwork poisson(
      PoissonConfig::with_n(1000, 4, EdgePolicy::kRegenerate, 62));
  poisson.warm_up();
  const Snapshot pdgr_snap = poisson.snapshot();

  for (const std::uint32_t fanout : {1u, 48u, 100000u}) {
    ProbeOptions full;
    full.greedy_fanout = fanout;
    expect_probe_matches_reference(sdgr_snap, 63, full, "SDGR");
    expect_probe_matches_reference(pdgr_snap, 64, full, "PDGR");
    expect_probe_matches_reference(sdgr_snap, 65, greedy_only(fanout),
                                   "SDGR greedy");
    expect_probe_matches_reference(pdgr_snap, 66, greedy_only(fanout),
                                   "PDGR greedy");
  }
}

}  // namespace
}  // namespace churnet
