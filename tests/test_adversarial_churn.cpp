// Tests for adversarial and correlated churn (churn/adversary.hpp,
// churn/burst_churn.hpp) and their spec-grammar surface:
//
//   * differential oracles: every AdversaryPolicy rule is checked against
//     an independent reference implementation on a shadow adjacency (a
//     second GraphReadView), and against the live DynamicGraph through
//     DynamicGraphView — the selections must agree exactly. The graph's
//     degree index is checked against the reference slot scan under random
//     mutation and at every death of live SDG/SDGR/PDG/PDGR runs;
//   * integration oracles: network-level runs assert the per-death
//     invariants (maxdeg victims really have maximum degree, streaming
//     keeps its pinned size and round schedule), and the streaming age
//     ring's tombstones reproduce the suffix-shift ring pop for pop;
//   * byte-identity: budget-0 adversarial runs reproduce the base regime's
//     graph bit-for-bit, and adversarial/burst sweeps are thread-count
//     invariant (1-thread CSV == 8-thread CSV);
//   * burst laws: massfail/flashcrowd burst sizes are exact per burst and
//     the pre-burst population tracks the closed-form fixed point;
//   * allocation hygiene: steady-state BurstChurn::next, degree-rule
//     selection and warmed adversarial networks never touch the global
//     allocator (counting operator new, same pattern as
//     test_graph_stress.cpp);
//   * grammar: the new spellings parse/round-trip, malformed ones are
//     rejected with actionable reasons, and the catalog, the known-name
//     list and the factory stay mutually complete.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "churn/adversary.hpp"
#include "churn/burst_churn.hpp"
#include "churn/churn_spec.hpp"
#include "common/rng.hpp"
#include "common/specgram.hpp"
#include "engine/scenario.hpp"
#include "engine/sweep_service.hpp"
#include "models/graph_view.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"

// ---- counting global allocator ---------------------------------------------
//
// Replicated from test_graph_stress.cpp (each test file is its own
// executable, so the override is per-binary): every heap allocation in the
// process bumps one atomic, letting steady-state paths assert a delta of
// zero.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
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

// ---- reference scan for the degree rules -----------------------------------

/// Reference oracle for the degree rules: slot-ascending scan with strict
/// improvement, written independently of the graph's degree index.
template <typename AliveAt, typename DegreeOf>
NodeId scan_extreme_degree(std::uint32_t slot_bound, const AliveAt& alive_at,
                           const DegreeOf& degree_of, bool maximize) {
  NodeId best = kInvalidNode;
  long long best_score = 0;
  for (std::uint32_t slot = 0; slot < slot_bound; ++slot) {
    const NodeId id = alive_at(slot);
    if (!id.valid()) continue;
    const auto degree = static_cast<long long>(degree_of(id));
    const long long score = maximize ? degree : -degree;
    if (!best.valid() || score > best_score) {
      best = id;
      best_score = score;
    }
  }
  return best;
}

/// The reference scan over a live graph's own degree() counts.
NodeId reference_extreme_degree(const DynamicGraph& graph, bool maximize) {
  return scan_extreme_degree(
      graph.slot_upper_bound(),
      [&graph](std::uint32_t slot) {
        return graph.slot_alive(slot) ? graph.alive_id_at(slot)
                                      : kInvalidNode;
      },
      [&graph](NodeId id) { return graph.degree(id); }, maximize);
}

// ---- shadow adjacency: an independent GraphReadView ------------------------

/// A GraphReadView backed by plain vectors — no DynamicGraph machinery —
/// so policy selections can be checked against reference implementations
/// and against the production adapter on mirrored topology. Its degree
/// question is answered by the reference scan.
class ShadowView final : public GraphReadView {
 public:
  explicit ShadowView(std::uint32_t slots) : alive_(slots), adj_(slots) {}

  /// Mirrors the alive part of a DynamicGraph (ids keep slot+generation).
  static ShadowView mirror(const DynamicGraph& graph) {
    ShadowView shadow(graph.slot_upper_bound());
    std::vector<NodeId> neighbors;
    for (const NodeId node : graph.alive_nodes()) {
      shadow.alive_[node.slot] = node;
      neighbors.clear();
      graph.append_neighbors(node, neighbors);
      shadow.adj_[node.slot] = neighbors;
    }
    return shadow;
  }

  void birth(NodeId id) { alive_[id.slot] = id; }

  void link(NodeId a, NodeId b) {
    adj_[a.slot].push_back(b);
    adj_[b.slot].push_back(a);
  }

  void kill(NodeId id) {
    alive_[id.slot] = kInvalidNode;
    for (const NodeId peer : adj_[id.slot]) {
      auto& list = adj_[peer.slot];
      list.erase(std::remove(list.begin(), list.end(), id), list.end());
    }
    adj_[id.slot].clear();
  }

  std::uint64_t alive_count() const override {
    std::uint64_t count = 0;
    for (const NodeId id : alive_) count += id.valid();
    return count;
  }

  std::uint32_t slot_upper_bound() const override {
    return static_cast<std::uint32_t>(alive_.size());
  }

  NodeId alive_at(std::uint32_t slot) const override { return alive_[slot]; }

  NodeId extreme_degree(bool maximize) const override {
    return scan_extreme_degree(
        slot_upper_bound(), [this](std::uint32_t slot) { return alive_[slot]; },
        [this](NodeId id) { return adj_[id.slot].size(); }, maximize);
  }

  void append_neighbors(NodeId node,
                        std::vector<NodeId>& out) const override {
    out.insert(out.end(), adj_[node.slot].begin(), adj_[node.slot].end());
  }

 private:
  std::vector<NodeId> alive_;            // invalid == dead slot
  std::vector<std::vector<NodeId>> adj_;  // symmetric neighbor lists
};

NodeId at(std::uint32_t slot) { return NodeId{slot, 0}; }

// ---- differential oracles: degree rules -------------------------------------

TEST(AdversaryPolicy, MaxDegreePicksHubSmallestSlotOnTies) {
  ShadowView view(6);
  for (std::uint32_t s = 0; s < 6; ++s) view.birth(at(s));
  // Degrees: 0:2, 1:3, 2:1, 3:3, 4:2, 5:1 — slots 1 and 3 tie at the top.
  view.link(at(0), at(1));
  view.link(at(1), at(3));
  view.link(at(1), at(4));
  view.link(at(3), at(2));
  view.link(at(3), at(5));
  view.link(at(0), at(4));

  AdversaryPolicy max_policy({AdversaryRule::kMaxDegree, 1.0}, 7);
  EXPECT_EQ(max_policy.select(view), at(1));  // smallest slot among the tie

  AdversaryPolicy min_policy({AdversaryRule::kMinDegree, 1.0}, 7);
  EXPECT_EQ(min_policy.select(view), at(2));  // degree 1, beats slot 5

  // The live graph's degree index breaks the same ties.
  DynamicGraph graph;
  for (std::uint32_t s = 0; s < 6; ++s) ASSERT_EQ(graph.add_node(3, 0.0), at(s));
  std::uint32_t used[6] = {};
  for (const auto& [a, b] : {std::pair{0u, 1u}, {1u, 3u}, {1u, 4u}, {3u, 2u},
                             {3u, 5u}, {0u, 4u}}) {
    graph.set_out_edge(at(a), used[a]++, at(b));
  }
  EXPECT_EQ(graph.extreme_degree(/*maximize=*/true), at(1));
  EXPECT_EQ(graph.extreme_degree(/*maximize=*/false), at(2));
}

TEST(AdversaryPolicy, DegreeRulesMatchReferenceAcrossRandomKillSequences) {
  // The live graph's degree index against the reference scan under random
  // births, wirings, unwirings and kills (with slot reuse), the index
  // switched on either before any edge exists or at the first selection.
  constexpr std::uint32_t kOutSlots = 6;
  Rng rng(99);
  RemovalScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    DynamicGraph graph;
    const std::uint32_t nodes = 20 + static_cast<std::uint32_t>(
                                         rng.below(30));
    for (std::uint32_t s = 0; s < nodes; ++s) graph.add_node(kOutSlots, 0.0);
    const bool maximize = (trial % 2) == 0;
    if (trial % 4 < 2) (void)graph.extreme_degree(maximize);
    const auto wire_one = [&] {
      const NodeId owner = graph.random_alive(rng);
      const auto index = static_cast<std::uint32_t>(rng.below(kOutSlots));
      if (graph.out_target(owner, index).valid()) return;
      const NodeId target = graph.random_alive_other(rng, owner);
      if (target.valid()) graph.set_out_edge(owner, index, target);
    };
    for (std::uint32_t e = 0; e < 2 * nodes; ++e) wire_one();

    AdversaryPolicy policy(
        {maximize ? AdversaryRule::kMaxDegree : AdversaryRule::kMinDegree,
         1.0},
        1234);
    const DynamicGraphView view(graph);
    // Kill down to a handful of nodes, mutating between kills and
    // checking every selection.
    while (graph.alive_count() > 3) {
      for (int op = 0; op < 4; ++op) {
        const std::uint64_t kind = rng.below(8);
        if (kind == 0) {
          graph.add_node(kOutSlots, 0.0);
        } else if (kind < 6) {
          wire_one();
        } else {
          const NodeId owner = graph.random_alive(rng);
          const auto index = static_cast<std::uint32_t>(rng.below(kOutSlots));
          if (graph.out_target(owner, index).valid()) {
            graph.clear_out_edge(owner, index);
          }
        }
      }
      const NodeId expected = reference_extreme_degree(graph, maximize);
      const NodeId chosen = policy.select(view);
      ASSERT_EQ(chosen, expected);
      graph.remove_node(chosen, scratch);
      policy.on_death(chosen);
      ASSERT_TRUE(graph.check_consistency());
    }
  }
}

TEST(AdversaryPolicy, SelectionsAgreeBetweenShadowAndDynamicGraphView) {
  // Same topology, two independent GraphReadView implementations, same
  // seed: the determinism contract says the selections must be identical.
  PoissonConfig config = PoissonConfig::with_n(300, 6, EdgePolicy::kRegenerate,
                                               42);
  PoissonNetwork net(config);
  net.warm_up(5.0);
  const DynamicGraphView live(net.graph());
  const ShadowView shadow = ShadowView::mirror(net.graph());
  ASSERT_EQ(live.alive_count(), shadow.alive_count());

  for (const AdversaryRule rule :
       {AdversaryRule::kMaxDegree, AdversaryRule::kMinDegree,
        AdversaryRule::kCutSet, AdversaryRule::kEclipse}) {
    AdversaryPolicy on_live({rule, 1.0}, 555);
    AdversaryPolicy on_shadow({rule, 1.0}, 555);
    EXPECT_EQ(on_live.select(live), on_shadow.select(shadow))
        << "rule " << static_cast<int>(rule);
  }
}

// ---- differential oracles: eclipse and cutset -------------------------------

TEST(AdversaryPolicy, EclipseStarvesOnePersistentTarget) {
  ShadowView view(8);
  for (std::uint32_t s = 0; s < 8; ++s) view.birth(at(s));
  for (std::uint32_t s = 1; s < 8; ++s) view.link(at(0), at(s));  // star
  view.link(at(3), at(5));

  AdversaryPolicy policy({AdversaryRule::kEclipse, 1.0}, 11);
  const NodeId first = policy.select(view);
  const NodeId target = policy.eclipse_target();
  ASSERT_TRUE(target.valid());

  // Victims are always the target's smallest alive neighbor, and the
  // target survives until its neighborhood is gone.
  std::vector<NodeId> neighbors;
  view.append_neighbors(target, neighbors);
  ASSERT_FALSE(neighbors.empty());
  EXPECT_EQ(first, *std::min_element(neighbors.begin(), neighbors.end()));

  while (true) {
    neighbors.clear();
    view.append_neighbors(target, neighbors);
    if (neighbors.empty()) break;
    const NodeId victim = policy.select(view);
    EXPECT_EQ(policy.eclipse_target(), target);  // target is persistent
    EXPECT_EQ(victim,
              *std::min_element(neighbors.begin(), neighbors.end()));
    EXPECT_NE(victim, target);
    view.kill(victim);
    policy.on_death(victim);
  }
  // Eclipse achieved: the isolated target is spared; the next kill falls
  // on the smallest other alive node.
  const NodeId after = policy.select(view);
  EXPECT_NE(after, target);
  view.kill(after);
  policy.on_death(after);
  // Once the target itself dies, the policy re-targets a live node.
  view.kill(target);
  policy.on_death(target);
  EXPECT_EQ(policy.eclipse_target(), kInvalidNode);
  const NodeId fresh = policy.select(view);
  EXPECT_TRUE(fresh.valid());
  EXPECT_TRUE(view.alive_at(policy.eclipse_target().slot).valid());
  EXPECT_NE(policy.eclipse_target(), target);
  (void)fresh;
}

TEST(AdversaryPolicy, CutsetServesBoundaryOfSmallBall) {
  // Two cliques of 6 bridged by one edge: every grown ball stays inside
  // one clique (ball target = ceil(sqrt(12)) = 4 <= 6), so its boundary
  // members must each keep a neighbor outside the ball.
  ShadowView view(12);
  for (std::uint32_t s = 0; s < 12; ++s) view.birth(at(s));
  for (std::uint32_t a = 0; a < 6; ++a) {
    for (std::uint32_t b = a + 1; b < 6; ++b) view.link(at(a), at(b));
  }
  for (std::uint32_t a = 6; a < 12; ++a) {
    for (std::uint32_t b = a + 1; b < 12; ++b) view.link(at(a), at(b));
  }
  view.link(at(0), at(6));  // the bridge

  AdversaryPolicy policy({AdversaryRule::kCutSet, 1.0}, 3);
  const NodeId victim = policy.select(view);
  const std::vector<NodeId> ball = policy.cutset_ball();
  const std::vector<NodeId> boundary = policy.cutset_boundary();
  ASSERT_FALSE(ball.empty());
  ASSERT_FALSE(boundary.empty());
  EXPECT_EQ(victim, boundary.front());  // queue is served in id order
  EXPECT_TRUE(std::is_sorted(boundary.begin(), boundary.end()));

  // Every boundary member really sits on the cut: it has a neighbor
  // outside the ball.
  const auto in_ball = [&](NodeId id) {
    return std::find(ball.begin(), ball.end(), id) != ball.end();
  };
  for (const NodeId member : boundary) {
    EXPECT_TRUE(in_ball(member));
    std::vector<NodeId> neighbors;
    view.append_neighbors(member, neighbors);
    EXPECT_TRUE(std::any_of(neighbors.begin(), neighbors.end(),
                            [&](NodeId peer) { return !in_ball(peer); }))
        << "boundary node without an outside edge";
  }

  // Served victims skip nodes that died of other causes in between.
  if (boundary.size() >= 2) {
    const NodeId second = boundary[1];
    view.kill(victim);
    policy.on_death(victim);
    view.kill(second);
    policy.on_death(second);
    const NodeId next = policy.select(view);
    EXPECT_NE(next, second);
    EXPECT_TRUE(view.alive_at(next.slot) == next);
  }
}

// ---- budget semantics -------------------------------------------------------

TEST(AdversaryPolicy, BudgetBoundariesDrawNothingAndInteriorMatchesRate) {
  AdversaryPolicy zero({AdversaryRule::kMaxDegree, 0.0}, 5);
  AdversaryPolicy one({AdversaryRule::kMaxDegree, 1.0}, 5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(zero.take_death());
    EXPECT_TRUE(one.take_death());
  }
  AdversaryPolicy partial({AdversaryRule::kMaxDegree, 0.3}, 5);
  int taken = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) taken += partial.take_death();
  const double fraction = static_cast<double>(taken) / kTrials;
  EXPECT_NEAR(fraction, 0.3, 0.02);
}

// ---- integration oracles on the real networks -------------------------------

/// (node, total degree) of every alive node, taken before a step: the
/// graph the step's victim is chosen from (a Poisson step is one event,
/// and a streaming round's death comes before its birth).
std::vector<std::pair<NodeId, std::uint32_t>> alive_degrees(
    const DynamicGraph& graph) {
  std::vector<std::pair<NodeId, std::uint32_t>> degrees;
  for (const NodeId node : graph.alive_nodes()) {
    degrees.emplace_back(node, graph.degree(node));
  }
  return degrees;
}

std::uint32_t degree_in(
    const std::vector<std::pair<NodeId, std::uint32_t>>& degrees,
    NodeId node) {
  const auto it = std::find_if(degrees.begin(), degrees.end(),
                               [node](const auto& entry) {
                                 return entry.first == node;
                               });
  EXPECT_NE(it, degrees.end());
  return it == degrees.end() ? 0 : it->second;
}

TEST(AdversarialNetworks, PoissonMaxdegKillsTheCurrentHub) {
  PoissonConfig config = PoissonConfig::with_n(250, 4, EdgePolicy::kRegenerate,
                                               9);
  config.churn = *ChurnSpec::parse("maxdeg(1)");
  PoissonNetwork net(config);
  net.warm_up(3.0);

  int deaths = 0;
  for (int event = 0; event < 400; ++event) {
    const auto before = alive_degrees(net.graph());
    const auto report = net.step();
    if (report.kind != ChurnEvent::Kind::kDeath) continue;
    // The maxdeg invariant on the graph the victim was chosen from: no
    // alive node has a strictly larger degree, and no smaller slot ties
    // the victim's.
    const NodeId victim = report.node;
    const std::uint32_t victim_degree = degree_in(before, victim);
    for (const auto& [node, degree] : before) {
      EXPECT_LE(degree, victim_degree);
      if (node.slot < victim.slot) {
        EXPECT_LT(degree, victim_degree);
      }
    }
    ++deaths;
  }
  EXPECT_GT(deaths, 50);
}

TEST(AdversarialNetworks, StreamingMaxdegKeepsScheduleAndKillsHubs) {
  StreamingConfig config;
  config.n = 120;
  config.d = 4;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 21;
  config.churn = *ChurnSpec::parse("maxdeg(1)");
  StreamingNetwork net(config);
  net.warm_up();
  ASSERT_EQ(net.graph().alive_count(), config.n);

  int deaths = 0;
  const std::uint64_t start_round = net.round();
  for (int round = 0; round < 200; ++round) {
    const auto before = alive_degrees(net.graph());
    const auto report = net.step();
    if (!report.died.has_value()) continue;
    const std::uint32_t victim_degree = degree_in(before, *report.died);
    for (const auto& [node, degree] : before) {
      EXPECT_LE(degree, victim_degree);
    }
    ++deaths;
  }
  // The round schedule is untouched: one death + one birth per round, the
  // population stays pinned at n.
  EXPECT_EQ(net.round(), start_round + 200);
  EXPECT_EQ(deaths, 200);
  EXPECT_EQ(net.graph().alive_count(), config.n);
}

// ---- the degree index on live networks --------------------------------------

/// Steps `net` while checking, before every step, that the graph's degree
/// index answers both degree questions exactly as the reference scan. A
/// Poisson step is one event and a streaming round's death comes before its
/// birth, so every adversarial death is checked on the very state its
/// victim was chosen from; under a full budget the victim the feed names
/// must be the reference's.
void check_index_at_every_death(AnyNetwork& net, bool maximize, double budget,
                                int steps, const std::string& label) {
  int deaths = 0;
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  for (int i = 0; i < steps; ++i) {
    const DynamicGraph& graph = net.graph();
    for (const bool rule_max : {true, false}) {
      ASSERT_EQ(graph.extreme_degree(rule_max),
                reference_extreme_degree(graph, rule_max))
          << label << (rule_max ? " max" : " min") << " at death " << deaths;
    }
    const NodeId expected = reference_extreme_degree(graph, maximize);
    feed.clear();
    net.step();
    for (const GraphDelta& delta : feed.deltas()) {
      if (delta.kind != GraphDelta::Kind::kDeath) continue;
      if (budget >= 1.0) {
        EXPECT_EQ(delta.node, expected) << label;
      }
      ++deaths;
    }
  }
  net.attach_change_feed(nullptr);
  EXPECT_GT(deaths, steps / 4) << label;
  EXPECT_TRUE(net.graph().check_consistency()) << label;
}

TEST(DegreeIndex, MatchesReferenceAtEveryDeathOfLiveNetworks) {
  const ScenarioRegistry& registry = ScenarioRegistry::extended();
  int seed = 0;
  for (const char* model : {"SDG", "SDGR", "PDG", "PDGR"}) {
    for (const char* rule : {"maxdeg", "mindeg"}) {
      for (const double budget : {0.25, 1.0}) {
        std::ostringstream churn;
        churn << rule << '(' << budget << ')';
        ScenarioParams params;
        params.n = 150;
        params.d = 4;
        params.seed = static_cast<std::uint64_t>(100 + seed++);
        params.churn = churn.str();
        AnyNetwork net = registry.at(model).make_warmed(params);
        check_index_at_every_death(net, std::string(rule) == "maxdeg",
                                   budget, 400,
                                   std::string(model) + "+" + churn.str());
      }
    }
  }
}

TEST(DegreeIndex, MatchesReferenceUnderBoundedInDegree) {
  // Bounded wiring leaves requests dangling and retries them, so degrees
  // move through set_out_edge calls the unbounded path never makes.
  ScenarioParams params;
  params.n = 150;
  params.d = 6;
  params.seed = 77;
  params.max_in_degree = 7;
  params.churn = "mindeg(1)";
  AnyNetwork net = ScenarioRegistry::extended().at("PDGR").make_warmed(params);
  check_index_at_every_death(net, /*maximize=*/false, 1.0, 600,
                             "PDGR+mindeg(1) max_in_degree 7");
}

TEST(DegreeIndex, BulkGenesisRebuildsAnActiveIndex) {
  // Switch the index on over the empty graph, so the streaming growth
  // phase (bulk-wired: no feed, unbounded) must rebuild it.
  ScenarioParams params;
  params.n = 150;
  params.d = 4;
  params.seed = 5;
  params.churn = "maxdeg(0.25)";
  AnyNetwork net = ScenarioRegistry::extended().at("SDGR").make(params);
  EXPECT_FALSE(net.graph().extreme_degree(true).valid());
  net.warm_up();
  ASSERT_TRUE(net.graph().check_consistency());
  check_index_at_every_death(net, /*maximize=*/true, 0.25, 400,
                             "SDGR+maxdeg(0.25) index before genesis");
}

// ---- the streaming ring: tombstones vs the suffix-shift reference ----------

/// The streaming age ring as it was before tombstones: an adversarial
/// removal shifts the younger suffix one place toward the head. Kept as the
/// reference the tombstone ring must reproduce pop for pop.
class SuffixShiftRing {
 public:
  explicit SuffixShiftRing(std::uint32_t n) : n_(n), ring_(n) {}

  std::uint32_t size() const { return size_; }

  /// The member of age rank `rank` (0 = oldest).
  NodeId at(std::uint32_t rank) const { return ring_[(head_ + rank) % n_]; }

  void push_newest(NodeId id) {
    ring_[(head_ + size_) % n_] = id;
    ++size_;
  }

  NodeId pop_oldest() {
    const NodeId oldest = ring_[head_];
    head_ = (head_ + 1) % n_;
    --size_;
    return oldest;
  }

  void remove(NodeId id) {
    for (std::uint32_t i = 0; i < size_; ++i) {
      if (at(i) != id) continue;
      for (std::uint32_t j = i + 1; j < size_; ++j) {
        const std::uint32_t from = (head_ + j) % n_;
        ring_[from == 0 ? n_ - 1 : from - 1] = ring_[from];
      }
      --size_;
      return;
    }
    FAIL() << "victim not in the reference ring";
  }

 private:
  std::uint32_t n_;
  std::vector<NodeId> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

TEST(StreamingRing, TombstonesMatchSuffixShiftReferenceThroughCompactions) {
  // Random adversarial victims (any age) mixed with FIFO deaths, slots
  // recycled with bumped generations as the graph does: every FIFO victim
  // must be the reference's oldest member, across many 2n compactions.
  constexpr std::uint32_t kN = 37;
  for (const double budget : {0.1, 0.5, 1.0}) {
    StreamingChurn churn(kN);
    churn.set_adversary({AdversaryRule::kMaxDegree, budget}, 99, "maxdeg");
    SuffixShiftRing reference(kN);
    Rng rng(7);
    std::vector<std::uint32_t> generation(kN, 0);
    std::vector<std::uint32_t> free_slots;
    std::uint32_t next_slot = 0;
    std::uint64_t adversarial = 0;
    for (std::uint32_t round = 0; round < 200 * kN; ++round) {
      ChurnProcess::Step step = churn.next(reference.size());
      if (!step.is_birth) {
        NodeId victim;
        if (step.victim == ChurnProcess::Victim::kAdversarial) {
          victim = reference.at(static_cast<std::uint32_t>(
              rng.below(reference.size())));
          reference.remove(victim);
          ++adversarial;
        } else {
          ASSERT_EQ(step.victim, ChurnProcess::Victim::kScheduled);
          victim = reference.pop_oldest();
          ASSERT_EQ(step.victim_id, victim) << "round " << round;
        }
        churn.on_death(victim, step.time);
        ++generation[victim.slot];
        free_slots.push_back(victim.slot);
        step = churn.next(reference.size());
      }
      ASSERT_TRUE(step.is_birth);
      std::uint32_t slot = next_slot;
      if (free_slots.empty()) {
        ++next_slot;
      } else {
        slot = free_slots.back();
        free_slots.pop_back();
      }
      const NodeId born{slot, generation[slot]};
      churn.on_birth(born, step.time);
      reference.push_newest(born);
      ASSERT_EQ(churn.alive(), reference.size());
    }
    // Enough tombstones for at least ten compactions of the 2n ring.
    EXPECT_GT(adversarial, 10u * kN) << "budget " << budget;
  }
}

// ---- byte-identity: budget 0 == base regime ---------------------------------

std::uint64_t graph_fingerprint(const DynamicGraph& graph) {
  // FNV-1a over (id, birth_seq, out-targets) of every alive node — the
  // same observable-surface checksum bench_perf_suite pins.
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  const auto add = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (const NodeId node : graph.alive_nodes()) {
    add((static_cast<std::uint64_t>(node.slot) << 32) | node.generation);
    add(graph.birth_seq(node));
    for (std::uint32_t i = 0; i < graph.out_slot_count(node); ++i) {
      const NodeId target = graph.out_target(node, i);
      add((static_cast<std::uint64_t>(target.slot) << 32) |
          target.generation);
    }
  }
  return hash;
}

TEST(AdversarialNetworks, PoissonBudgetZeroIsByteIdenticalToPoisson) {
  for (const char* rule : {"maxdeg(0)", "mindeg(0)", "cutset(0)",
                           "eclipse(0)"}) {
    PoissonConfig base = PoissonConfig::with_n(200, 5, EdgePolicy::kRegenerate,
                                               31);
    PoissonConfig adv = base;
    adv.churn = *ChurnSpec::parse(rule);
    PoissonNetwork base_net(base);
    PoissonNetwork adv_net(adv);
    base_net.warm_up(4.0);
    adv_net.warm_up(4.0);
    base_net.run_events(500);
    adv_net.run_events(500);
    EXPECT_EQ(graph_fingerprint(base_net.graph()),
              graph_fingerprint(adv_net.graph()))
        << rule;
    EXPECT_EQ(base_net.now(), adv_net.now()) << rule;
  }
}

TEST(AdversarialNetworks, StreamingBudgetZeroIsByteIdenticalToStream) {
  StreamingConfig base;
  base.n = 150;
  base.d = 5;
  base.policy = EdgePolicy::kRegenerate;
  base.seed = 77;
  StreamingConfig adv = base;
  adv.churn = *ChurnSpec::parse("cutset(0)");
  StreamingNetwork base_net(base);
  StreamingNetwork adv_net(adv);
  base_net.warm_up();
  adv_net.warm_up();
  base_net.run_rounds(300);
  adv_net.run_rounds(300);
  EXPECT_EQ(graph_fingerprint(base_net.graph()),
            graph_fingerprint(adv_net.graph()));
  EXPECT_EQ(base_net.round(), adv_net.round());
}

// ---- thread-count invariance ------------------------------------------------

TEST(AdversarialSweeps, CsvIsIdenticalAtOneAndEightThreads) {
  SweepSpec spec;
  spec.scenarios = {"SDGR+maxdeg(1)", "PDGR+eclipse(0.5)",
                    "PDGR+cutset(0.5)", "PDGR+massfail(0.2,1)",
                    "PDGR+flashcrowd(0.25,1)"};
  spec.n_values = {200};
  spec.d_values = {4};
  spec.metrics = {"alive", "isolated", "completion_step", "final_fraction"};
  spec.replications = 2;
  spec.base_seed = 4242;
  const auto csv_at = [&spec](unsigned threads) {
    std::ostringstream os;
    SweepService(spec, {.threads = threads}).run().write_csv(os);
    return os.str();
  };
  const std::string t1 = csv_at(1);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, csv_at(8));
}

// ---- burst churn: exact sizes and closed-form trajectory --------------------

/// Drives a BurstChurn standalone against a population counter, recording
/// the pre-burst population and checking each burst's event count.
struct BurstRun {
  double mean_pre_burst = 0.0;
  std::uint64_t bursts = 0;
};

BurstRun drive_bursts(BurstChurn& churn, double frac,
                      std::uint64_t population, std::uint64_t target_bursts,
                      bool expect_births) {
  BurstRun run;
  double pre_burst_sum = 0.0;
  while (run.bursts < target_bursts) {
    const std::uint64_t before = population;
    const std::uint64_t bursts_before = churn.bursts_fired();
    ChurnProcess::Step step = churn.next(population);
    if (churn.bursts_fired() > bursts_before) {
      // A burst begins: size was fixed from the pre-burst population, and
      // every burst event shares the boundary timestamp and direction.
      const std::uint64_t size = churn.last_burst_size();
      EXPECT_EQ(size, static_cast<std::uint64_t>(
                          frac * static_cast<double>(before)));
      pre_burst_sum += static_cast<double>(before);
      ++run.bursts;
      const double burst_time = step.time;
      for (std::uint64_t i = 0; i < size; ++i) {
        if (i > 0) step = churn.next(population);
        EXPECT_EQ(step.time, burst_time);  // one timestamp per burst
        EXPECT_EQ(step.is_birth, expect_births);
        EXPECT_EQ(step.victim, ChurnProcess::Victim::kUniform);
        population += step.is_birth ? 1 : std::uint64_t(-1);
      }
      continue;
    }
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  run.mean_pre_burst = pre_burst_sum / static_cast<double>(run.bursts);
  return run;
}

TEST(BurstChurn, MassfailBurstsAreExactAndTrackTheFixedPoint) {
  constexpr std::uint64_t kN = 2000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kMassFail, 0.3, 1.0, 1.0, mu, 17);
  EXPECT_EQ(churn.name(), "massfail(0.30,1.00)");
  const BurstRun run = drive_bursts(churn, 0.3, kN, 60, /*expect_births=*/false);
  // Fixed point of N |-> ((1-p)N - n)e^{-T} + n at p=0.3, T=1:
  // N_b = n(1-e^{-1})/(1-0.7e^{-1}) ~ 0.8513n.
  const double expected =
      static_cast<double>(kN) * (1.0 - std::exp(-1.0)) /
      (1.0 - 0.7 * std::exp(-1.0));
  EXPECT_NEAR(run.mean_pre_burst / expected, 1.0, 0.08);
}

TEST(BurstChurn, FlashcrowdBurstsAreExactAndTrackTheFixedPoint) {
  constexpr std::uint64_t kN = 2000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kFlashCrowd, 0.25, 1.0, 1.0, mu, 23);
  EXPECT_EQ(churn.name(), "flashcrowd(0.25,1.00)");
  const BurstRun run = drive_bursts(churn, 0.25, kN, 60, /*expect_births=*/true);
  // Fixed point with growth factor (1+f), f=0.25, T=1 (converges because
  // (1+f)e^{-T} < 1, which ChurnSpec::parse requires of every flashcrowd
  // spec): N_b = n(1-e^{-1})/(1-1.25e^{-1}) ~ 1.170n.
  const double expected =
      static_cast<double>(kN) * (1.0 - std::exp(-1.0)) /
      (1.0 - 1.25 * std::exp(-1.0));
  EXPECT_NEAR(run.mean_pre_burst / expected, 1.0, 0.08);
}

TEST(BurstChurn, BaselineBetweenBurstsIsTheJumpChainMix) {
  // Between bursts, births arrive with probability lambda/(lambda+N*mu)
  // per event; at N pinned near n = lambda/mu that is ~1/2.
  constexpr std::uint64_t kN = 5000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn churn(BurstChurn::Kind::kMassFail, 0.1, 50.0, 1.0, mu, 3);
  std::uint64_t population = kN;
  std::uint64_t births = 0, events = 0;
  while (events < 30000 && churn.bursts_fired() == 0) {
    const ChurnProcess::Step step = churn.next(population);
    births += step.is_birth;
    population += step.is_birth ? 1 : std::uint64_t(-1);
    ++events;
  }
  ASSERT_EQ(churn.bursts_fired(), 0u);  // period 50 lifetimes: no burst yet
  const double fraction =
      static_cast<double>(births) / static_cast<double>(events);
  EXPECT_NEAR(fraction, 0.5, 0.02);
}

TEST(BurstChurn, PoissonNetworkRealizesBurstDeathsAtOneTimestamp) {
  PoissonConfig config = PoissonConfig::with_n(400, 3, EdgePolicy::kRegenerate,
                                               13);
  config.churn = *ChurnSpec::parse("massfail(0.2,1)");
  PoissonNetwork net(config);
  net.warm_up(2.0);
  // Count deaths per timestamp; burst instants must carry mass >= 2 while
  // baseline timestamps are unique (continuous distributions).
  std::vector<std::pair<double, int>> death_clusters;
  const double horizon = net.now() + 3.0 * 400.0;  // three burst periods
  for (;;) {
    const auto event = net.step();
    if (event.time > horizon) break;
    if (event.kind != ChurnEvent::Kind::kDeath) continue;
    if (!death_clusters.empty() && death_clusters.back().first == event.time) {
      ++death_clusters.back().second;
    } else {
      death_clusters.push_back({event.time, 1});
    }
  }
  int bursts_seen = 0;
  for (const auto& [time, count] : death_clusters) {
    if (count >= 2) ++bursts_seen;
  }
  EXPECT_GE(bursts_seen, 2);
  EXPECT_LE(bursts_seen, 4);
}

// ---- allocation hygiene -----------------------------------------------------

TEST(AdversarialChurnAllocation, SteadyStatePathsAllocateNothing) {
  constexpr std::uint64_t kN = 1000;
  const double mu = 1.0 / static_cast<double>(kN);
  BurstChurn bursts(BurstChurn::Kind::kMassFail, 0.2, 1.0, 1.0, mu, 29);
  std::uint64_t population = kN;
  // Warm one full period so the burst path has executed at least once.
  for (int i = 0; i < 5000; ++i) {
    const ChurnProcess::Step step = bursts.next(population);
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  ShadowView view(64);
  for (std::uint32_t s = 0; s < 64; ++s) view.birth(at(s));
  for (std::uint32_t s = 0; s < 63; ++s) view.link(at(s), at(s + 1));
  AdversaryPolicy maxdeg({AdversaryRule::kMaxDegree, 0.5}, 101);
  (void)maxdeg.select(view);  // warm any lazy scratch

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 20000; ++i) {
    const ChurnProcess::Step step = bursts.next(population);
    population += step.is_birth ? 1 : std::uint64_t(-1);
  }
  for (int i = 0; i < 500; ++i) {
    (void)maxdeg.take_death();
    (void)maxdeg.select(view);
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state burst/selection path touched the allocator";

  // Warmed adversarial networks: the degree index, the tombstone ring and
  // the cutset queue all reach their high-water capacities in the
  // conditioning window and recycle them afterwards.
  const ScenarioRegistry& registry = ScenarioRegistry::extended();
  for (const char* model : {"PDGR", "SDGR"}) {
    for (const char* rule : {"maxdeg(1)", "mindeg(1)", "cutset(1)"}) {
      ScenarioParams params;
      params.n = 1000;
      params.d = 8;
      params.seed = 41;
      params.churn = rule;
      AnyNetwork net = registry.at(model).make_warmed(params);
      for (int i = 0; i < 8000; ++i) net.step();  // conditioning window
      const std::uint64_t start =
          g_allocations.load(std::memory_order_relaxed);
      for (int i = 0; i < 4000; ++i) net.step();
      EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - start, 0u)
          << model << "+" << rule << " touched the allocator";
    }
  }
}

// ---- spec grammar -----------------------------------------------------------

TEST(AdversarialChurnSpec, ParsesDocumentedFormsAndDefaults) {
  const ChurnSpec maxdeg = *ChurnSpec::parse("maxdeg(0.5)");
  EXPECT_EQ(maxdeg.kind, ChurnSpec::Kind::kMaxDeg);
  EXPECT_DOUBLE_EQ(maxdeg.a, 0.5);
  EXPECT_TRUE(maxdeg.adversarial());
  EXPECT_EQ(maxdeg.adversary_config().rule, AdversaryRule::kMaxDegree);
  EXPECT_DOUBLE_EQ(maxdeg.adversary_config().budget, 0.5);

  EXPECT_EQ(ChurnSpec::parse("mindeg(0.25)")->adversary_config().rule,
            AdversaryRule::kMinDegree);
  EXPECT_EQ(ChurnSpec::parse("cutset")->adversary_config().rule,
            AdversaryRule::kCutSet);
  EXPECT_EQ(ChurnSpec::parse("ECLIPSE( 0.75 )")->adversary_config().rule,
            AdversaryRule::kEclipse);

  // Omitted budgets default to 1 (a fully adversarial regime).
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("maxdeg")->a, 1.0);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("eclipse()")->a, 1.0);

  const ChurnSpec massfail = *ChurnSpec::parse("massfail(0.3,2)");
  EXPECT_EQ(massfail.kind, ChurnSpec::Kind::kMassFail);
  EXPECT_DOUBLE_EQ(massfail.a, 0.3);
  EXPECT_DOUBLE_EQ(massfail.b, 2.0);
  EXPECT_FALSE(massfail.adversarial());
  EXPECT_TRUE(massfail.continuous());

  // Burst defaults: fraction 0.1, period 1 lifetime.
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("massfail")->a, 0.1);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("massfail")->b, 1.0);
  EXPECT_DOUBLE_EQ(ChurnSpec::parse("flashcrowd(0.5)")->b, 1.0);
}

TEST(AdversarialChurnSpec, CanonicalRoundTrips) {
  for (const char* text :
       {"maxdeg(0.5)", "mindeg(1)", "cutset(0.25)", "eclipse(0.75)",
        "massfail(0.1,1)", "flashcrowd(0.25,2)", "massfail(0.501,1)"}) {
    const ChurnSpec spec = *ChurnSpec::parse(text);
    const std::optional<ChurnSpec> reparsed =
        ChurnSpec::parse(spec.canonical());
    ASSERT_TRUE(reparsed.has_value()) << spec.canonical();
    EXPECT_EQ(*reparsed, spec) << spec.canonical();
  }
  // Two decimals would label massfail(0.501,1) like massfail(0.5,1).
  EXPECT_EQ(ChurnSpec::parse("massfail(0.501,1)")->canonical(),
            "massfail(0.501,1.00)");
  EXPECT_NE(ChurnSpec::parse("massfail(0.501,1)")->canonical(),
            ChurnSpec::parse("massfail(0.5,1)")->canonical());
  // A burst process names the period it was given, not period/mu*mu
  // (0.7 / 0.005 * 0.005 is 0.7000000000000001).
  const ChurnSpec massfail = *ChurnSpec::parse("massfail(0.1,0.7)");
  EXPECT_EQ(make_churn_process(massfail, 1.0, 0.005, 7)->name(),
            massfail.canonical());
}

TEST(AdversarialChurnSpec, RejectsMalformedSpecsWithClearErrors) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(ChurnSpec::parse(text, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
    return error;
  };
  // Wrong arity.
  EXPECT_NE(error_of("maxdeg(0.5,2)").find("argument"), std::string::npos);
  EXPECT_NE(error_of("massfail(0.1,1,2)").find("argument"),
            std::string::npos);
  // Out-of-range budgets (and NaN, rejected by the negated-predicate
  // checks).
  EXPECT_NE(error_of("maxdeg(1.5)").find("budget must be in [0,1]"),
            std::string::npos);
  EXPECT_NE(error_of("mindeg(-0.1)").find("budget must be in [0,1]"),
            std::string::npos);
  EXPECT_NE(error_of("eclipse(nan)").find("budget"), std::string::npos);
  // Burst parameters out of range.
  EXPECT_NE(error_of("massfail(1,1)").find("fraction must be in (0,1)"),
            std::string::npos);
  EXPECT_NE(error_of("massfail(0)").find("fraction"), std::string::npos);
  EXPECT_NE(error_of("massfail(0.1,0)").find("period"), std::string::npos);
  EXPECT_NE(error_of("flashcrowd(0)").find("burst fraction"),
            std::string::npos);
  EXPECT_NE(error_of("flashcrowd(0.2,-1)").find("period"),
            std::string::npos);
  // A flashcrowd whose burst tops grow without bound ((1+f)e^-T >= 1).
  for (const char* text :
       {"flashcrowd(100,1)", "flashcrowd(1e9,1)", "flashcrowd(0.5,1e-300)"}) {
    EXPECT_NE(error_of(text).find("no stationary population"),
              std::string::npos)
        << text;
  }
  // Burst periods far below a lifetime would stall the sampler at its
  // burst boundaries (flashcrowd(1e-300,2e-300) is stationary); the bound
  // is 0.01 lifetimes, and exactly 0.01 parses.
  EXPECT_NE(error_of("massfail(0.5,1e-300)")
                .find("massfail period must be at least 0.01 lifetimes"),
            std::string::npos);
  EXPECT_NE(error_of("flashcrowd(1e-300,2e-300)")
                .find("flashcrowd period must be at least 0.01 lifetimes"),
            std::string::npos);
  EXPECT_TRUE(ChurnSpec::parse("massfail(0.5,0.01)").has_value());
  EXPECT_TRUE(ChurnSpec::parse("flashcrowd(0.001,0.01)").has_value());
  // Unknown names list the full catalog.
  const std::string unknown = error_of("sybil(0.5)");
  EXPECT_NE(unknown.find("unknown churn regime"), std::string::npos);
  EXPECT_NE(unknown.find("maxdeg"), std::string::npos);
  EXPECT_NE(unknown.find("flashcrowd"), std::string::npos);
}

TEST(AdversarialChurnSpecDeathTest, IncompatibleModelSpecPairsAbort) {
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  // Streaming models accept adversarial specs but not burst regimes (the
  // round schedule is size-pinned).
  EXPECT_DEATH(
      registry.at("SDGR").with_churn(*ChurnSpec::parse("massfail(0.1,1)")),
      "streaming models take only");
  // Baselines take no churn spec at all.
  EXPECT_DEATH(
      registry.at("static-dout").with_churn(*ChurnSpec::parse("maxdeg(1)")),
      "no churn spec");
}

TEST(BurstChurnDeathTest, ConstructorRejectsDegenerateParameters) {
  // A massfail fraction of 1 would fix a burst size that kills into an
  // empty graph; non-positive periods would live-lock the boundary loop.
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kMassFail, 1.0, 1.0, 1.0, 0.01, 1),
      "frac");
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kFlashCrowd, 0.0, 1.0, 1.0, 0.01, 1),
      "frac");
  EXPECT_DEATH(
      BurstChurn(BurstChurn::Kind::kMassFail, 0.5, 0.0, 1.0, 0.01, 1),
      "period");
}

// ---- catalog completeness ---------------------------------------------------

TEST(AdversarialChurnSpec, CatalogKnownNamesAndFactoryStayComplete) {
  const auto catalog = ChurnSpec::catalog();
  const std::vector<std::string> names = ChurnSpec::known_names();

  // Every known name has exactly one catalog row, and every catalog row's
  // call name is known — the two listings cannot drift apart.
  for (const std::string& name : names) {
    int rows = 0;
    for (const auto& [spelling, description] : catalog) {
      if (spec_call_name(spelling) == name) ++rows;
    }
    EXPECT_EQ(rows, 1) << "catalog rows for '" << name << "'";
    EXPECT_TRUE(ChurnSpec::is_known_name(name)) << name;
  }
  for (const auto& [spelling, description] : catalog) {
    const std::string call = spec_call_name(spelling);
    EXPECT_TRUE(std::find(names.begin(), names.end(), call) != names.end())
        << "catalog spelling '" << spelling << "' not a known name";
    EXPECT_FALSE(description.empty()) << spelling;
  }

  // Every known name parses bare (documented defaults), and for every
  // continuous regime the factory-built process reports the canonical
  // spelling as its name (the ProcessNamesMatchCanonicalSpecs contract,
  // extended to the adversarial and burst regimes).
  for (const std::string& name : names) {
    const std::optional<ChurnSpec> spec = ChurnSpec::parse(name);
    ASSERT_TRUE(spec.has_value()) << name;
    if (!spec->continuous()) continue;  // "stream" is built by the model
    const auto process = make_churn_process(*spec, 1.0, 0.001, 7);
    ASSERT_NE(process, nullptr) << name;
    EXPECT_EQ(process->name(), spec->canonical()) << name;
  }
}

}  // namespace
}  // namespace churnet
