// Randomized stress + allocation accounting for the flat-arena
// DynamicGraph (DESIGN.md, decision 11).
//
// Part 1 interleaves thousands of add/remove/set/clear operations against a
// shadow adjacency model, asserting check_consistency(), exact edge counts
// and per-node degree invariants after every batch — the CI ASan/UBSan job
// runs this suite, so the arena recycling (strided out runs, capacity-class
// in chunks) is exercised under full memory instrumentation.
//
// Part 1 also keeps a ChangeFeed attached and replays the delta stream
// into a second, feed-only adjacency after every batch — the replayed
// adjacency must equal the shadow model's, which pins the change-feed
// contract (graph/change_feed.hpp) under the same randomized interleave.
//
// Part 2 verifies the zero-allocation contract with a counting global
// allocator: after warm-up plus one conditioning window (which absorbs any
// residual free-list high-water growth), a steady-state churn window on
// both streaming and Poisson models must perform ZERO heap allocations —
// including with a ChangeFeed attached and cleared per round (delta
// recording reuses the feed's capacity) — and make no page mapping, so
// arena growth cannot hide behind the graph's page-backed arrays
// (common/page_allocator.hpp). A second job of a sweep cell on the same
// thread then maps no graph storage at all: the worker's graph is
// recycled. A mapping at the huge-page floor carries the kernel's `hg`
// (MADV_HUGEPAGE) flag, and one below it does not.
#include "graph/dynamic_graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "engine/sweep_runner.hpp"
#include "graph/change_feed.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"

// ---- counting global allocator ---------------------------------------------
//
// Overriding the global operator new/delete pair is the portable way to
// observe every heap allocation the process makes (ASan intercepts the
// malloc underneath, so the sanitizer job still checks these paths).

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Over-aligned variants forward through the counter too, so an aligned
// allocation sneaking into the churn loop cannot dodge the assertion.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = ((size | 1) + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace churnet {
namespace {

// ---- part 1: randomized interleave against a shadow model ------------------

struct ShadowNode {
  std::vector<NodeId> out;  // kInvalidNode == dangling slot
};

class GraphStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphStressTest, InterleavedOpsPreserveInvariants) {
  Rng rng(GetParam());
  DynamicGraph graph;
  if (GetParam() % 2 == 0) graph.reserve(64, 4);  // both reserve paths
  RemovalScratch scratch;
  std::unordered_map<NodeId, ShadowNode> shadow;
  std::vector<NodeId> alive;  // insertion order; mirror of shadow keys

  // The feed-replay oracle: an adjacency reconstructed purely from the
  // recorded delta stream, which must match the shadow model after every
  // batch (the change-feed contract under the same interleave).
  ChangeFeed feed;
  graph.attach_change_feed(&feed);
  std::unordered_map<NodeId, std::vector<NodeId>> replayed;
  const auto replay_feed = [&] {
    for (const GraphDelta& delta : feed.deltas()) {
      switch (delta.kind) {
        case GraphDelta::Kind::kBirth:
          ASSERT_EQ(replayed.count(delta.node), 0u);
          replayed[delta.node].assign(delta.index, kInvalidNode);
          break;
        case GraphDelta::Kind::kDeath: {
          const auto it = replayed.find(delta.node);
          ASSERT_NE(it, replayed.end());
          // Every edge clear of a dying node precedes its kDeath.
          for (const NodeId target : it->second) {
            ASSERT_EQ(target, kInvalidNode);
          }
          replayed.erase(it);
          break;
        }
        case GraphDelta::Kind::kEdgeSet: {
          std::vector<NodeId>& out = replayed.at(delta.node);
          ASSERT_LT(delta.index, out.size());
          ASSERT_EQ(out[delta.index], kInvalidNode);
          out[delta.index] = delta.target;
          break;
        }
        case GraphDelta::Kind::kEdgeClear: {
          std::vector<NodeId>& out = replayed.at(delta.node);
          ASSERT_LT(delta.index, out.size());
          ASSERT_EQ(out[delta.index], delta.target);
          out[delta.index] = kInvalidNode;
          break;
        }
      }
    }
    feed.clear();
    ASSERT_EQ(replayed.size(), shadow.size());
    for (const auto& [node, out] : replayed) {
      const auto it = shadow.find(node);
      ASSERT_NE(it, shadow.end());
      ASSERT_EQ(out, it->second.out);
    }
  };

  const auto verify_against_shadow = [&] {
    ASSERT_TRUE(graph.check_consistency());
    ASSERT_EQ(graph.alive_count(), alive.size());
    std::uint64_t shadow_edges = 0;
    std::unordered_map<NodeId, std::uint32_t> shadow_in;
    for (const NodeId node : alive) {
      for (const NodeId target : shadow.at(node).out) {
        if (!target.valid()) continue;
        ++shadow_edges;
        ++shadow_in[target];
      }
    }
    ASSERT_EQ(graph.edge_count(), shadow_edges);
    for (const NodeId node : alive) {
      const ShadowNode& expect = shadow.at(node);
      ASSERT_TRUE(graph.is_alive(node));
      ASSERT_EQ(graph.out_slot_count(node), expect.out.size());
      std::uint32_t out_degree = 0;
      for (std::uint32_t i = 0; i < expect.out.size(); ++i) {
        ASSERT_EQ(graph.out_target(node, i), expect.out[i]);
        out_degree += expect.out[i].valid() ? 1 : 0;
      }
      ASSERT_EQ(graph.out_degree(node), out_degree);
      ASSERT_EQ(graph.in_degree(node), shadow_in[node]);
      ASSERT_EQ(graph.degree(node), out_degree + shadow_in[node]);
    }
  };

  constexpr int kOps = 6000;
  constexpr int kBatch = 200;
  for (int op = 0; op < kOps; ++op) {
    const double action = rng.real01();
    if (action < 0.35 || alive.size() < 3) {
      // Birth with a mixed stride (0..6 out-slots) to exercise several
      // per-stride free lists at once.
      const auto slots = static_cast<std::uint32_t>(rng.below(7));
      const NodeId node = graph.add_node(slots, static_cast<double>(op));
      shadow[node].out.assign(slots, kInvalidNode);
      alive.push_back(node);
      // Wire a random subset of the new slots immediately.
      for (std::uint32_t i = 0; i < slots; ++i) {
        if (!rng.bernoulli(0.7)) continue;
        const NodeId target = graph.random_alive_other(rng, node);
        if (!target.valid()) continue;
        graph.set_out_edge(node, i, target);
        shadow[node].out[i] = target;
      }
    } else if (action < 0.60) {
      // Death through the scratch API (the hot-loop path) or through the
      // vector-returning wrapper — both must report identical orphan sets.
      const std::size_t pick =
          static_cast<std::size_t>(rng.below(alive.size()));
      const NodeId victim = alive[pick];
      alive[pick] = alive.back();
      alive.pop_back();
      std::vector<OutSlotRef> orphans;
      if (rng.bernoulli(0.5)) {
        graph.remove_node(victim, scratch);
        orphans = scratch.orphans;
      } else {
        orphans = graph.remove_node(victim);
      }
      // Shadow: drop the victim and every out-slot that pointed at it.
      std::size_t shadow_orphans = 0;
      for (const NodeId node : alive) {
        for (NodeId& target : shadow.at(node).out) {
          if (target == victim) {
            target = kInvalidNode;
            ++shadow_orphans;
          }
        }
      }
      ASSERT_EQ(orphans.size(), shadow_orphans);
      for (const OutSlotRef& orphan : orphans) {
        ASSERT_TRUE(graph.is_alive(orphan.owner));
        ASSERT_EQ(graph.out_target(orphan.owner, orphan.index), kInvalidNode);
        ASSERT_EQ(shadow.at(orphan.owner).out[orphan.index], kInvalidNode);
      }
      shadow.erase(victim);
      // Regenerate a random subset of the orphans (the model layer's move).
      for (const OutSlotRef& orphan : orphans) {
        if (!rng.bernoulli(0.5)) continue;
        const NodeId target = graph.random_alive_other(rng, orphan.owner);
        if (!target.valid()) continue;
        graph.set_out_edge(orphan.owner, orphan.index, target);
        shadow.at(orphan.owner).out[orphan.index] = target;
      }
    } else if (action < 0.85) {
      // Wire a random dangling slot.
      const NodeId owner = alive[static_cast<std::size_t>(
          rng.below(alive.size()))];
      ShadowNode& node = shadow.at(owner);
      for (std::uint32_t i = 0; i < node.out.size(); ++i) {
        if (node.out[i].valid()) continue;
        const NodeId target = graph.random_alive_other(rng, owner);
        if (!target.valid()) break;
        graph.set_out_edge(owner, i, target);
        node.out[i] = target;
        break;
      }
    } else {
      // Clear a random live out-edge.
      const NodeId owner = alive[static_cast<std::size_t>(
          rng.below(alive.size()))];
      ShadowNode& node = shadow.at(owner);
      for (std::uint32_t i = 0; i < node.out.size(); ++i) {
        if (!node.out[i].valid()) continue;
        graph.clear_out_edge(owner, i);
        node.out[i] = kInvalidNode;
        break;
      }
    }
    if ((op + 1) % kBatch == 0) {
      verify_against_shadow();
      replay_feed();
    }
  }
  verify_against_shadow();
  replay_feed();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphStressTest,
                         ::testing::Values(11, 22, 33, 44));

// ---- part 2: zero-allocation steady-state churn ----------------------------

TEST(GraphAllocation, StreamingChurnLoopIsAllocationFree) {
  StreamingConfig config;
  config.n = 2000;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 7;
  StreamingNetwork net(config);
  net.warm_up();
  // Conditioning window: free lists and scratch buffers reach their
  // steady-state high-water capacities.
  net.run_rounds(2ull * config.n);

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t maps_before = page_map_count();
  net.run_rounds(4ull * config.n);
  const std::uint64_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in the steady-state streaming loop";
  EXPECT_EQ(page_map_count(), maps_before);
}

TEST(GraphAllocation, StreamingChurnWithChangeFeedIsAllocationFree) {
  StreamingConfig config;
  config.n = 2000;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 7;
  StreamingNetwork net(config);
  net.warm_up();

  // The dissemination driver's shape (protocols/dissemination.hpp): feed
  // attached after warm-up, drained and cleared every round. The
  // conditioning window lets the feed's vector reach its per-round
  // high-water capacity.
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  for (std::uint64_t round = 0; round < 2ull * config.n; ++round) {
    feed.clear();
    net.step();
  }

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t maps_before = page_map_count();
  for (std::uint64_t round = 0; round < 4ull * config.n; ++round) {
    feed.clear();
    net.step();
    ASSERT_FALSE(feed.empty());  // every streaming round churns
  }
  const std::uint64_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations while recording the change feed";
  EXPECT_EQ(page_map_count(), maps_before);
  net.attach_change_feed(nullptr);
}

TEST(GraphAllocation, PoissonChurnLoopIsAllocationFree) {
  const PoissonConfig config =
      PoissonConfig::with_n(2000, 8, EdgePolicy::kRegenerate, 7);
  PoissonNetwork net(config);
  net.warm_up();
  net.run_events(20000);  // conditioning window

  const std::uint64_t before = g_allocations.load();
  const std::uint64_t maps_before = page_map_count();
  net.run_events(20000);
  const std::uint64_t during = g_allocations.load() - before;
  EXPECT_EQ(during, 0u)
      << during << " heap allocations in the steady-state Poisson loop";
  EXPECT_EQ(page_map_count(), maps_before);
}

TEST(GraphAllocation, SecondJobOfACellOnAWorkerMapsNoGraphStorage) {
  // Cells large enough that every graph array is page-mapped; the second
  // replication on this thread must reuse the graph the first handed back.
  for (const char* scenario : {"SDGR", "PDGR"}) {
    SweepSpec spec;
    spec.scenarios = {scenario};
    spec.n_values = {6000};
    spec.d_values = {8};
    spec.replications = 2;
    const SweepPlan plan(spec, ScenarioRegistry::paper());
    plan.run_job(0);
    const std::size_t arena = SweepPlan::worker_arena_bytes();
    const std::uint64_t maps = page_map_count();
    EXPECT_GE(arena, std::size_t{6000} * 8 * 8) << scenario;
    plan.run_job(1);
    EXPECT_EQ(page_map_count(), maps) << scenario;
    EXPECT_EQ(SweepPlan::worker_arena_bytes(), arena) << scenario;
  }
}

// The VmFlags line of the /proc/self/smaps mapping that holds `address`,
// empty when none does.
std::string vm_flags_of(const void* address) {
  const auto where = reinterpret_cast<std::uintptr_t>(address);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long lo = 0;
    unsigned long hi = 0;
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= where && where < hi;
    } else if (inside && line.starts_with("VmFlags:")) {
      return line;
    }
  }
  return {};
}

bool has_vm_flag(const std::string& flags, std::string_view flag) {
  std::istringstream words(flags);
  for (std::string word; words >> word;) {
    if (word == flag) return true;
  }
  return false;
}

TEST(PageAllocator, AdvisesHugePagesAtTheFloor) {
  if (CHURNET_PAGE_ALLOCATOR_MAPS == 0) {
    GTEST_SKIP() << "AddressSanitizer build: arrays come from operator new";
  }
  if (!std::ifstream("/sys/kernel/mm/transparent_hugepage/enabled")) {
    GTEST_SKIP() << "the kernel has no transparent huge pages";
  }
  PageVector<std::byte> large;
  large.reserve(kHugePageAdviceBytes);
  PageVector<std::byte> small;
  small.reserve(std::size_t{1} << 20);
  const std::string large_flags = vm_flags_of(large.data());
  const std::string small_flags = vm_flags_of(small.data());
  ASSERT_FALSE(large_flags.empty());
  ASSERT_FALSE(small_flags.empty());
  EXPECT_TRUE(has_vm_flag(large_flags, "hg")) << large_flags;
  EXPECT_FALSE(has_vm_flag(small_flags, "hg")) << small_flags;
}

}  // namespace
}  // namespace churnet
