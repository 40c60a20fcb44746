// Equivalence proof for the ChurnProcess refactor: the four paper models
// (SDG, SDGR, PDG, PDGR) built through the pluggable churn layer are
// bit-identical to the pre-refactor simulators — same seeds, same churn
// event sequences, same graphs, same flood traces.
//
// The reference implementations below are verbatim copies of the
// pre-refactor StreamingNetwork::step() and PoissonNetwork event loop (the
// simulators owned their churn objects and inlined the round/event
// structure). They drive the same primitives (StreamingChurn's
// round-structured API, PoissonChurn's raw jump chain, the shared wiring
// helpers) in the exact pre-refactor order, so any divergence in the
// refactored paths — an extra RNG draw, a reordered mutation, a changed
// timestamp — shows up as a hard mismatch here.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "churn/poisson_churn.hpp"
#include "churn/streaming_churn.hpp"
#include "engine/scenario.hpp"
#include "graph/dynamic_graph.hpp"
#include "graph/snapshot.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"
#include "models/wiring.hpp"
#include "protocols/dissemination.hpp"

namespace churnet {
namespace {

// ---- pre-refactor reference simulators -------------------------------------

/// The seed repository's StreamingNetwork (PR 1 state): owns a
/// StreamingChurn and drives it through begin_round()/record_birth().
class ReferenceStreamingNetwork {
 public:
  using flood_semantics = StreamingFloodSemantics;

  explicit ReferenceStreamingNetwork(StreamingConfig config)
      : config_(config), churn_(config.n), rng_(config.seed) {}

  struct RoundReport {
    std::uint64_t round = 0;
    NodeId born;
    std::optional<NodeId> died;
  };

  RoundReport step() {
    RoundReport report;
    const std::optional<NodeId> victim = churn_.begin_round();
    const double time_of_round = static_cast<double>(churn_.round());

    const WiringLimits limits{config_.max_in_degree, 8};
    if (victim.has_value()) {
      report.died = victim;
      const std::vector<OutSlotRef> orphans = graph_.remove_node(*victim);
      if (config_.policy == EdgePolicy::kRegenerate) {
        detail::regenerate_requests(graph_, rng_, orphans, limits);
      }
    }

    const NodeId born = graph_.add_node(config_.d, time_of_round);
    detail::issue_initial_requests(graph_, rng_, born, limits);
    churn_.record_birth(born);

    report.round = churn_.round();
    report.born = born;
    return report;
  }

  void run_rounds(std::uint64_t rounds) {
    for (std::uint64_t i = 0; i < rounds; ++i) step();
  }
  void run_until(double time) {
    while (now() < time) step();
  }
  void warm_up() { run_rounds(2ull * config_.n); }

  Snapshot snapshot() const { return Snapshot::capture(graph_, now()); }
  const DynamicGraph& graph() const { return graph_; }
  double now() const { return static_cast<double>(churn_.round()); }
  Rng& rng() { return rng_; }
  void attach_change_feed(ChangeFeed* feed) {
    graph_.attach_change_feed(feed);
  }

 private:
  StreamingConfig config_;
  StreamingChurn churn_;
  DynamicGraph graph_;
  Rng rng_;
};

/// The seed repository's PoissonNetwork (PR 1 state): owns a PoissonChurn
/// seeded Rng(seed).next_u64() and applies raw ChurnEvents.
class ReferencePoissonNetwork {
 public:
  using flood_semantics = DiscretizedFloodSemantics;

  explicit ReferencePoissonNetwork(PoissonConfig config)
      : config_(config),
        churn_(config.lambda, config.mu, Rng(config.seed).next_u64()),
        rng_(config.seed + 0x51ED270B9F9B42A5ULL) {}

  struct EventReport {
    ChurnEvent::Kind kind = ChurnEvent::Kind::kBirth;
    double time = 0.0;
    NodeId node;
  };

  EventReport step() {
    ChurnEvent event;
    if (pending_valid_) {
      event = pending_;
      pending_valid_ = false;
    } else {
      event = churn_.next(graph_.alive_count());
    }
    return apply(event);
  }

  void run_until(double time) {
    for (;;) {
      if (!pending_valid_) {
        pending_ = churn_.next(graph_.alive_count());
        pending_valid_ = true;
      }
      if (pending_.time > time) break;
      pending_valid_ = false;
      apply(pending_);
    }
    now_ = time;
  }
  void warm_up(double multiple = 10.0) {
    run_until(now_ + multiple / config_.mu);
  }

  Snapshot snapshot() const { return Snapshot::capture(graph_, now_); }
  const DynamicGraph& graph() const { return graph_; }
  double now() const { return now_; }
  Rng& rng() { return rng_; }
  void attach_change_feed(ChangeFeed* feed) {
    graph_.attach_change_feed(feed);
  }

 private:
  EventReport apply(const ChurnEvent& event) {
    now_ = event.time;
    EventReport report;
    report.kind = event.kind;
    report.time = event.time;

    const WiringLimits limits{config_.max_in_degree, 8};
    if (event.kind == ChurnEvent::Kind::kBirth) {
      const NodeId born = graph_.add_node(config_.d, event.time);
      detail::issue_initial_requests(graph_, rng_, born, limits);
      report.node = born;
      return report;
    }
    const NodeId victim = graph_.random_alive(rng_);
    const std::vector<OutSlotRef> orphans = graph_.remove_node(victim);
    if (config_.policy == EdgePolicy::kRegenerate) {
      detail::regenerate_requests(graph_, rng_, orphans, limits);
    }
    report.node = victim;
    return report;
  }

  PoissonConfig config_;
  PoissonChurn churn_;
  DynamicGraph graph_;
  Rng rng_;
  double now_ = 0.0;
  bool pending_valid_ = false;
  ChurnEvent pending_{};
};

// ---- comparison helpers ----------------------------------------------------

/// Full out-edge table of the alive graph: (owner, slot targets...) for
/// every alive node. Captures topology exactly (including dangling slots
/// and parallel edges), so equality here is graph identity.
std::vector<std::vector<NodeId>> edge_table(const DynamicGraph& graph) {
  std::vector<std::vector<NodeId>> table;
  for (const NodeId node : graph.alive_nodes()) {
    std::vector<NodeId> row{node};
    for (std::uint32_t i = 0; i < graph.out_slot_count(node); ++i) {
      row.push_back(graph.out_target(node, i));
    }
    table.push_back(std::move(row));
  }
  return table;
}

void expect_same_trace(const FloodTrace& a, const FloodTrace& b) {
  EXPECT_EQ(a.informed_per_step, b.informed_per_step);
  EXPECT_EQ(a.alive_per_step, b.alive_per_step);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completion_step, b.completion_step);
  EXPECT_EQ(a.died_out, b.died_out);
  EXPECT_EQ(a.peak_informed, b.peak_informed);
  EXPECT_DOUBLE_EQ(a.final_fraction, b.final_fraction);
}

// ---- streaming equivalence (SDG, SDGR) -------------------------------------

class StreamingEquivalence : public ::testing::TestWithParam<EdgePolicy> {};

TEST_P(StreamingEquivalence, RoundReportsAndGraphsBitIdentical) {
  for (const std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    StreamingConfig config;
    config.n = 120;
    config.d = 5;
    config.policy = GetParam();
    config.seed = seed;
    StreamingNetwork refactored(config);
    ReferenceStreamingNetwork reference(config);

    for (std::uint64_t round = 1; round <= 4ull * config.n; ++round) {
      const auto a = refactored.step();
      const auto b = reference.step();
      ASSERT_EQ(a.round, b.round) << "seed " << seed;
      ASSERT_EQ(a.born, b.born) << "round " << round;
      ASSERT_EQ(a.died.has_value(), b.died.has_value()) << "round " << round;
      if (a.died.has_value()) ASSERT_EQ(*a.died, *b.died);
    }
    EXPECT_EQ(edge_table(refactored.graph()), edge_table(reference.graph()));
    // The wiring RNG streams stayed in lockstep too.
    EXPECT_EQ(refactored.rng().next_u64(), reference.rng().next_u64());
  }
}

TEST_P(StreamingEquivalence, FloodTracesBitIdentical) {
  for (const std::uint64_t seed : {3ull, 42ull}) {
    StreamingConfig config;
    config.n = 150;
    config.d = 8;
    config.policy = GetParam();
    config.seed = seed;
    StreamingNetwork refactored(config);
    ReferenceStreamingNetwork reference(config);
    refactored.warm_up();
    reference.warm_up();

    const FloodTrace a = flood_dynamic(refactored, {});
    const FloodTrace b = flood_dynamic(reference, {});
    expect_same_trace(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, StreamingEquivalence,
                         ::testing::Values(EdgePolicy::kNone,
                                           EdgePolicy::kRegenerate),
                         [](const auto& info) {
                           return info.param == EdgePolicy::kNone ? "SDG"
                                                                  : "SDGR";
                         });

// ---- Poisson equivalence (PDG, PDGR) ---------------------------------------

class PoissonEquivalence : public ::testing::TestWithParam<EdgePolicy> {};

TEST_P(PoissonEquivalence, EventSequencesAndGraphsBitIdentical) {
  for (const std::uint64_t seed : {1ull, 99ull, 987654321ull}) {
    const PoissonConfig config =
        PoissonConfig::with_n(200, 6, GetParam(), seed);
    PoissonNetwork refactored(config);
    ReferencePoissonNetwork reference(config);

    for (int event = 0; event < 4000; ++event) {
      const auto a = refactored.step();
      const auto b = reference.step();
      ASSERT_EQ(a.kind, b.kind) << "seed " << seed << " event " << event;
      ASSERT_DOUBLE_EQ(a.time, b.time) << "event " << event;
      ASSERT_EQ(a.node, b.node) << "event " << event;
    }
    EXPECT_DOUBLE_EQ(refactored.now(), reference.now());
    EXPECT_EQ(edge_table(refactored.graph()), edge_table(reference.graph()));
    EXPECT_EQ(refactored.rng().next_u64(), reference.rng().next_u64());
  }
}

TEST_P(PoissonEquivalence, WarmUpAndFloodTracesBitIdentical) {
  for (const std::uint64_t seed : {5ull, 77ull}) {
    const PoissonConfig config =
        PoissonConfig::with_n(250, 8, GetParam(), seed);
    PoissonNetwork refactored(config);
    ReferencePoissonNetwork reference(config);
    refactored.warm_up();
    reference.warm_up();
    ASSERT_DOUBLE_EQ(refactored.now(), reference.now());
    EXPECT_EQ(edge_table(refactored.graph()), edge_table(reference.graph()));

    const FloodTrace a = flood_dynamic(refactored, {});
    const FloodTrace b = flood_dynamic(reference, {});
    expect_same_trace(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PoissonEquivalence,
                         ::testing::Values(EdgePolicy::kNone,
                                           EdgePolicy::kRegenerate),
                         [](const auto& info) {
                           return info.param == EdgePolicy::kNone ? "PDG"
                                                                  : "PDGR";
                         });

// ---- scenario-layer equivalence --------------------------------------------

TEST(ScenarioChurnEquivalence, PaperScenariosMatchReferenceSimulators) {
  ScenarioParams params;
  params.n = 180;
  params.d = 7;
  params.seed = 2024;

  {
    AnyNetwork sdgr = ScenarioRegistry::paper().at("SDGR").make_warmed(params);
    StreamingConfig config;
    config.n = params.n;
    config.d = params.d;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = params.seed;
    ReferenceStreamingNetwork reference(config);
    reference.warm_up();
    EXPECT_EQ(edge_table(sdgr.graph()), edge_table(reference.graph()));
    expect_same_trace(sdgr.flood(), flood_dynamic(reference, {}));
  }
  {
    AnyNetwork pdgr = ScenarioRegistry::paper().at("PDGR").make_warmed(params);
    const PoissonConfig config = PoissonConfig::with_n(
        params.n, params.d, EdgePolicy::kRegenerate, params.seed);
    ReferencePoissonNetwork reference(config);
    reference.warm_up();
    EXPECT_EQ(edge_table(pdgr.graph()), edge_table(reference.graph()));
    expect_same_trace(pdgr.flood(), flood_dynamic(reference, {}));
  }
}

}  // namespace
}  // namespace churnet
