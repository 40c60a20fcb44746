// Proof that the dissemination driver's two candidate representations
// agree on plain flooding: FloodProtocol runs on the slot path (candidate
// bits, the summary-level commit, slot-ordered frontiers), while
// LossyProtocol(FloodProtocol, 1.0) runs the same messages through the
// pair path (propose(), StepView::send, commit in propose order). Both
// must give the same event sequence (per-step informed and alive counts),
// the same terminal state and informed set, and the same ProtocolStats,
// on all four paper scenarios (streaming Def. 3.3 and discretized Def. 4.3
// semantics) and on the churn-free baselines (BFS semantics).
//
// The gossip samplers get the same treatment against reference copies
// kept below: PUSH, PULL and PUSH-PULL as they were when every caller's
// neighbor list was built with append_neighbors and each contact was sent
// as soon as it was drawn.
//
// The comparison is exact equality, never tolerance: the two runs use two
// networks built from the same seed, which evolve identically because
// neither path consumes network randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

struct EquivalenceParam {
  const char* scenario;
  std::uint32_t n;
  std::uint32_t d;
  std::uint64_t seed;
  std::uint32_t sources;
  std::uint64_t max_steps;  // 0 = no cap (FloodOptions' default)
};

std::string param_name(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  const EquivalenceParam& param = info.param;
  std::string scenario = param.scenario;
  for (char& c : scenario) {
    if (c == '-') c = '_';
  }
  return scenario + "_n" + std::to_string(param.n) + "_d" +
         std::to_string(param.d) + "_s" + std::to_string(param.seed) +
         (param.sources > 1 ? "_src" + std::to_string(param.sources) : "") +
         (param.max_steps == 0 ? "_nocap" : "");
}

class ProtocolFloodEquivalence
    : public ::testing::TestWithParam<EquivalenceParam> {
 protected:
  ScenarioParams scenario_params() const {
    const EquivalenceParam& param = GetParam();
    ScenarioParams params;
    params.n = param.n;
    params.d = param.d;
    params.seed = param.seed;
    return params;
  }
};

TEST_P(ProtocolFloodEquivalence, SlotPathMatchesPairPathBitForBit) {
  const EquivalenceParam& param = GetParam();
  const Scenario scenario = ScenarioRegistry::paper().resolve(param.scenario);
  const ScenarioParams params = scenario_params();

  ProtocolOptions options;
  if (param.max_steps != 0) options.flood.max_steps = param.max_steps;
  options.sources = param.sources;
  options.seed = 77;

  // The wrapper draws extra sources from its own stream, seeded with
  // derive_seed(seed, 0, 0); seeding the bare protocol with that value
  // makes both runs start from the same sources.
  ProtocolOptions slot_options = options;
  slot_options.seed = derive_seed(options.seed, 0, 0);
  AnyNetwork slot_net = scenario.make_warmed(params);
  FloodProtocol flood;
  ASSERT_EQ(flood.candidates(), Candidates::kSlotSet);
  ProtocolScratch slot_scratch;
  const ProtocolResult slot =
      slot_net.disseminate(flood, slot_options, slot_scratch);

  AnyNetwork pair_net = scenario.make_warmed(params);
  LossyProtocol lossless(std::make_unique<FloodProtocol>(), 1.0);
  ASSERT_EQ(lossless.candidates(), Candidates::kFirstPerReceiver);
  ProtocolScratch pair_scratch;
  const ProtocolResult pair =
      pair_net.disseminate(lossless, options, pair_scratch);

  // Event sequence: the full per-step series, not just the endpoints.
  ASSERT_EQ(slot.trace.informed_per_step, pair.trace.informed_per_step);
  ASSERT_EQ(slot.trace.alive_per_step, pair.trace.alive_per_step);
  EXPECT_EQ(slot.trace.steps, pair.trace.steps);
  EXPECT_EQ(slot.trace.completed, pair.trace.completed);
  EXPECT_EQ(slot.trace.completion_step, pair.trace.completion_step);
  EXPECT_EQ(slot.trace.died_out, pair.trace.died_out);
  EXPECT_EQ(slot.trace.die_out_step, pair.trace.die_out_step);
  EXPECT_EQ(slot.trace.peak_informed, pair.trace.peak_informed);
  EXPECT_DOUBLE_EQ(slot.trace.final_fraction, pair.trace.final_fraction);

  // Every message-accounting field.
  EXPECT_EQ(slot.stats.messages_sent, pair.stats.messages_sent);
  EXPECT_EQ(slot.stats.overhead_messages, pair.stats.overhead_messages);
  EXPECT_EQ(slot.stats.lost_messages, pair.stats.lost_messages);
  EXPECT_EQ(slot.stats.useful_deliveries, pair.stats.useful_deliveries);
  EXPECT_EQ(slot.stats.duplicate_deliveries,
            pair.stats.duplicate_deliveries);
  EXPECT_EQ(slot.stats.rounds, pair.stats.rounds);
  EXPECT_EQ(slot.stats.completed, pair.stats.completed);
  EXPECT_DOUBLE_EQ(slot.stats.final_coverage, pair.stats.final_coverage);

  // Informed sets: slot-for-slot identical terminal membership.
  const std::uint32_t bound = std::max(slot_net.graph().slot_upper_bound(),
                                       pair_net.graph().slot_upper_bound());
  for (std::uint32_t slot_index = 0; slot_index < bound; ++slot_index) {
    const NodeId id{slot_index, 0};  // membership is slot-indexed
    ASSERT_EQ(slot_scratch.flood.is_informed(id),
              pair_scratch.flood.is_informed(id))
        << "slot " << slot_index;
  }
  EXPECT_EQ(slot_scratch.flood.informed_count(),
            pair_scratch.flood.informed_count());

  // The networks themselves evolved identically: neither path consumed
  // network randomness beyond the shared source-selection path.
  EXPECT_EQ(slot_net.graph().alive_count(), pair_net.graph().alive_count());
  EXPECT_EQ(slot_net.graph().total_births(),
            pair_net.graph().total_births());

  // Flood accounting invariants: the slot path keeps no inform-order list;
  // on the pair path every node informed after the sources cost exactly
  // one useful delivery, and nothing was lost.
  EXPECT_TRUE(slot_scratch.informed.empty());
  EXPECT_EQ(pair.stats.useful_deliveries,
            pair_scratch.informed.size() - pair.trace.informed_per_step[0]);
  EXPECT_EQ(pair.stats.lost_messages, 0u);
  EXPECT_EQ(slot.stats.rounds, slot.trace.steps);
  EXPECT_EQ(slot.stats.completed, slot.trace.completed);
  EXPECT_DOUBLE_EQ(slot.stats.final_coverage, slot.trace.final_fraction);
}

TEST_P(ProtocolFloodEquivalence, ScratchAndProtocolReuseStaysIdentical) {
  // One (protocol, scratch) pair across replications must behave exactly
  // like fresh objects: the epoch-stamped reset is complete.
  const EquivalenceParam& param = GetParam();
  const Scenario scenario = ScenarioRegistry::paper().resolve(param.scenario);
  const ScenarioParams params = scenario_params();

  ProtocolOptions options;
  options.flood.max_steps = 40;
  options.sources = param.sources;

  FloodProtocol reused_protocol;
  ProtocolScratch reused_scratch;
  for (int warm = 0; warm < 2; ++warm) {  // dirty the reused state
    AnyNetwork net = scenario.make_warmed(params);
    net.disseminate(reused_protocol, options, reused_scratch);
  }
  AnyNetwork reused_net = scenario.make_warmed(params);
  const ProtocolResult reused =
      reused_net.disseminate(reused_protocol, options, reused_scratch);

  AnyNetwork fresh_net = scenario.make_warmed(params);
  FloodProtocol fresh_protocol;
  const ProtocolResult fresh = fresh_net.disseminate(fresh_protocol, options);

  EXPECT_EQ(reused.trace.informed_per_step, fresh.trace.informed_per_step);
  EXPECT_EQ(reused.stats.messages_sent, fresh.stats.messages_sent);
  EXPECT_EQ(reused.stats.useful_deliveries, fresh.stats.useful_deliveries);
  EXPECT_EQ(reused.stats.duplicate_deliveries,
            fresh.stats.duplicate_deliveries);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolFloodEquivalence,
    ::testing::Values(
        // The four paper scenarios: streaming + discretized semantics.
        EquivalenceParam{"SDG", 60, 2, 1, 1, 80},
        EquivalenceParam{"SDG", 250, 4, 2, 1, 80},
        EquivalenceParam{"SDGR", 120, 3, 3, 1, 80},
        EquivalenceParam{"SDGR", 500, 8, 4, 1, 80},
        EquivalenceParam{"PDG", 60, 2, 5, 1, 80},
        EquivalenceParam{"PDG", 250, 6, 6, 1, 80},
        EquivalenceParam{"PDGR", 120, 4, 7, 1, 80},
        EquivalenceParam{"PDGR", 500, 8, 8, 1, 80},
        // Churn-free BFS semantics (uniform source via the network RNG).
        EquivalenceParam{"static-dout", 300, 4, 9, 1, 80},
        EquivalenceParam{"erdos-renyi", 300, 6, 10, 1, 80},
        // Extra sources drawn from the protocol RNG.
        EquivalenceParam{"PDGR", 300, 6, 11, 3, 80},
        // A warmed SDG run to completion with no step cap: thousands of
        // steps waiting for the isolated nodes to die, frontiers of
        // thousands of nodes, and a bulk-wired genesis of one radix block.
        EquivalenceParam{"SDG", 20000, 8, 12, 1, 0}),
    param_name);

TEST(ProtocolEquivalence, UnboundedTtlIsBitIdenticalToFlood) {
  // A TTL no run can exhaust degenerates to full flooding.
  ScenarioParams params;
  params.n = 250;
  params.d = 4;
  params.seed = 12;
  for (const char* name : {"SDGR", "PDGR"}) {
    const Scenario& scenario = ScenarioRegistry::paper().at(name);

    AnyNetwork flood_net = scenario.make_warmed(params);
    FloodProtocol flood;
    const ProtocolResult flood_result = flood_net.disseminate(flood);

    AnyNetwork ttl_net = scenario.make_warmed(params);
    TtlFloodProtocol ttl(1u << 30);
    const ProtocolResult ttl_result = ttl_net.disseminate(ttl);

    EXPECT_EQ(ttl_result.trace.informed_per_step,
              flood_result.trace.informed_per_step)
        << name;
    EXPECT_EQ(ttl_result.stats.messages_sent,
              flood_result.stats.messages_sent)
        << name;
  }
}

// ---- gossip samplers against the neighbor-list reference -------------------

// The gossip samplers before contacts were drawn by index: each caller's
// neighbor list is built with append_neighbors, a contact is a uniform
// index into it, and every contact is sent as soon as it is drawn.
class ReferencePush final : public DisseminationProtocol {
 public:
  explicit ReferencePush(std::uint32_t fanout) : fanout_(fanout) {}
  std::string name() const override { return "reference-push"; }
  void propose(StepView& view) override {
    const DynamicGraph& graph = view.graph();
    std::vector<NodeId>& neighbors = view.neighbor_buffer();
    for (const NodeId u : view.informed()) {
      if (!graph.is_alive(u)) continue;
      neighbors.clear();
      graph.append_neighbors(u, neighbors);
      if (neighbors.empty()) continue;
      for (std::uint32_t k = 0; k < fanout_; ++k) {
        const NodeId v = neighbors[static_cast<std::size_t>(
            rng_.below(neighbors.size()))];
        view.send(u, v);
      }
    }
  }

 private:
  std::uint32_t fanout_;
};

class ReferencePull final : public DisseminationProtocol {
 public:
  explicit ReferencePull(std::uint32_t fanout) : fanout_(fanout) {}
  std::string name() const override { return "reference-pull"; }
  void propose(StepView& view) override {
    const DynamicGraph& graph = view.graph();
    std::vector<NodeId>& neighbors = view.neighbor_buffer();
    std::vector<NodeId>& alive = view.alive_buffer();
    alive.clear();
    graph.append_alive_nodes(alive);
    for (const NodeId v : alive) {
      if (view.is_informed(v)) continue;
      neighbors.clear();
      graph.append_neighbors(v, neighbors);
      if (neighbors.empty()) continue;
      for (std::uint32_t k = 0; k < fanout_; ++k) {
        const NodeId u = neighbors[static_cast<std::size_t>(
            rng_.below(neighbors.size()))];
        if (view.is_informed(u)) {
          view.send(u, v);
        } else {
          view.count_overhead();
        }
      }
    }
  }

 private:
  std::uint32_t fanout_;
};

class ReferencePushPull final : public DisseminationProtocol {
 public:
  explicit ReferencePushPull(std::uint32_t fanout) : fanout_(fanout) {}
  std::string name() const override { return "reference-push-pull"; }
  void propose(StepView& view) override {
    const DynamicGraph& graph = view.graph();
    std::vector<NodeId>& neighbors = view.neighbor_buffer();
    std::vector<NodeId>& alive = view.alive_buffer();
    alive.clear();
    graph.append_alive_nodes(alive);
    for (const NodeId v : alive) {
      neighbors.clear();
      graph.append_neighbors(v, neighbors);
      if (neighbors.empty()) continue;
      const bool caller_informed = view.is_informed(v);
      for (std::uint32_t k = 0; k < fanout_; ++k) {
        const NodeId u = neighbors[static_cast<std::size_t>(
            rng_.below(neighbors.size()))];
        if (caller_informed) {
          view.send(v, u);
        } else if (view.is_informed(u)) {
          view.send(u, v);
        } else {
          view.count_overhead();
        }
      }
    }
  }

 private:
  std::uint32_t fanout_;
};

/// The reference twin of a gossip spec: the same kind, fanout and loss
/// wrapper around a reference sampler.
std::unique_ptr<DisseminationProtocol> make_reference(
    const ProtocolSpec& spec) {
  std::unique_ptr<DisseminationProtocol> base;
  switch (spec.kind) {
    case ProtocolSpec::Kind::kPush:
      base = std::make_unique<ReferencePush>(spec.fanout);
      break;
    case ProtocolSpec::Kind::kPull:
      base = std::make_unique<ReferencePull>(spec.fanout);
      break;
    case ProtocolSpec::Kind::kPushPull:
      base = std::make_unique<ReferencePushPull>(spec.fanout);
      break;
    default:
      ADD_FAILURE() << "not a gossip spec: " << spec.canonical();
      return nullptr;
  }
  if (!spec.lossy()) return base;
  return std::make_unique<LossyProtocol>(std::move(base), spec.loss_q);
}

/// The next draws of a copy of `rng`: equal for equal stream states.
std::vector<std::uint64_t> next_draws(const Rng& rng) {
  Rng copy = rng;
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 4; ++i) draws.push_back(copy.next_u64());
  return draws;
}

/// The RNG streams a protocol drew from: its own, plus the inner
/// protocol's behind a loss wrapper.
std::vector<std::uint64_t> protocol_streams(DisseminationProtocol& protocol) {
  std::vector<std::uint64_t> draws = next_draws(protocol.rng());
  if (const auto* lossy = dynamic_cast<const LossyProtocol*>(&protocol)) {
    // inner() is a const view of an object the wrapper owns mutably;
    // rng() only hands out the stream, which next_draws copies.
    auto& inner = const_cast<DisseminationProtocol&>(lossy->inner());
    for (const std::uint64_t draw : next_draws(inner.rng())) {
      draws.push_back(draw);
    }
  }
  return draws;
}

using GossipParam = std::tuple<std::string, std::string>;

class GossipSamplerEquivalence
    : public ::testing::TestWithParam<GossipParam> {};

TEST_P(GossipSamplerEquivalence, IndexDrawsMatchNeighborListsBitForBit) {
  const auto& [scenario_name, protocol_text] = GetParam();
  const Scenario scenario = ScenarioRegistry::paper().resolve(scenario_name);
  ScenarioParams params;
  params.n = 2000;
  params.d = 4;
  params.seed = 2025;
  const std::optional<ProtocolSpec> spec = ProtocolSpec::parse(protocol_text);
  ASSERT_TRUE(spec.has_value()) << protocol_text;
  ProtocolOptions options = protocol_options(*spec, 99);
  options.flood.max_steps = 400;

  AnyNetwork net = scenario.make_warmed(params);
  const std::unique_ptr<DisseminationProtocol> protocol = make_protocol(*spec);
  ProtocolScratch scratch;
  const ProtocolResult result = net.disseminate(*protocol, options, scratch);

  AnyNetwork ref_net = scenario.make_warmed(params);
  const std::unique_ptr<DisseminationProtocol> reference =
      make_reference(*spec);
  ASSERT_NE(reference, nullptr);
  ProtocolScratch ref_scratch;
  const ProtocolResult ref =
      ref_net.disseminate(*reference, options, ref_scratch);

  // Every FloodTrace field.
  ASSERT_EQ(result.trace.informed_per_step, ref.trace.informed_per_step);
  ASSERT_EQ(result.trace.alive_per_step, ref.trace.alive_per_step);
  EXPECT_EQ(result.trace.steps, ref.trace.steps);
  EXPECT_EQ(result.trace.completed, ref.trace.completed);
  EXPECT_EQ(result.trace.completion_step, ref.trace.completion_step);
  EXPECT_EQ(result.trace.died_out, ref.trace.died_out);
  EXPECT_EQ(result.trace.die_out_step, ref.trace.die_out_step);
  EXPECT_EQ(result.trace.peak_informed, ref.trace.peak_informed);
  EXPECT_EQ(result.trace.final_fraction, ref.trace.final_fraction);

  // Every ProtocolStats field.
  EXPECT_EQ(result.stats.messages_sent, ref.stats.messages_sent);
  EXPECT_EQ(result.stats.overhead_messages, ref.stats.overhead_messages);
  EXPECT_EQ(result.stats.lost_messages, ref.stats.lost_messages);
  EXPECT_EQ(result.stats.useful_deliveries, ref.stats.useful_deliveries);
  EXPECT_EQ(result.stats.duplicate_deliveries,
            ref.stats.duplicate_deliveries);
  EXPECT_EQ(result.stats.rounds, ref.stats.rounds);
  EXPECT_EQ(result.stats.completed, ref.stats.completed);
  EXPECT_EQ(result.stats.final_coverage, ref.stats.final_coverage);

  // The terminal informed set, slot for slot, and the inform order.
  const std::uint32_t bound = std::max(net.graph().slot_upper_bound(),
                                       ref_net.graph().slot_upper_bound());
  for (std::uint32_t slot_index = 0; slot_index < bound; ++slot_index) {
    ASSERT_EQ(scratch.flood.is_informed_slot(slot_index),
              ref_scratch.flood.is_informed_slot(slot_index))
        << "slot " << slot_index;
  }
  EXPECT_EQ(scratch.flood.informed_count(), ref_scratch.flood.informed_count());
  EXPECT_EQ(scratch.informed, ref_scratch.informed);

  // The protocol streams stopped at the same state: no draw moved.
  EXPECT_EQ(protocol_streams(*protocol), protocol_streams(*reference));

  // The runs did gossip: some message was sent and some node informed.
  EXPECT_GT(result.stats.messages_sent, 0u);
  EXPECT_GT(result.stats.useful_deliveries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GossipSamplerEquivalence,
    ::testing::Combine(
        ::testing::Values<std::string>("SDG", "SDGR", "PDG", "PDGR",
                                       "erdos-renyi"),
        ::testing::Values<std::string>("push(1)", "push(3)", "pull(2)",
                                       "push-pull(2)",
                                       "push(2)+lossy(0.8)+sources(4)")),
    [](const ::testing::TestParamInfo<GossipParam>& info) {
      std::string name =
          std::get<0>(info.param) + "_" + std::get<1>(info.param);
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace churnet
