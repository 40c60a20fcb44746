// The tentpole proof for the bitset frontier rewrite: the word-packed
// FloodScratch (common/bitset64.hpp) behind flood_dynamic and the
// dissemination driver must be bit-identical to the epoch-stamped
// stamp-array path it replaced, on all four paper scenarios and both
// static baselines: same event sequence (per-step informed/alive series)
// and same terminal informed set.
//
// Two independent proofs:
//
//   1. A live oracle: the pre-rewrite stamp-array scratch + driver,
//      embedded verbatim below (LegacyFloodScratch / legacy_flood_dynamic,
//      recovered from the repo history), run side-by-side with the bitset
//      path on identically seeded networks.
//   2. Pinned checksums: FNV-1a digests of the full trace + stats +
//      terminal informed set, captured from the last stamp-array build.
//      These catch any in-tandem drift the live oracle cannot (both
//      drivers changing together), and pin the dissemination path too
//      (gossip protocols share the candidate/commit machinery).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

// ---------------------------------------------------------------------------
// The pre-rewrite driver, embedded as a live oracle. This is the exact
// stamp-array FloodScratch and flood_dynamic step loop the bitset path
// replaced (only renamed, and reading churn from a change feed of its own
// where it used network callbacks); it shares FloodTrace/FloodOptions/
// semantics with the current code, which did not change.
// ---------------------------------------------------------------------------

class LegacyFloodScratch {
 public:
  void begin_trial(std::uint32_t slot_bound) {
    ensure(slot_bound);
    ++informed_epoch_;
    informed_count_ = 0;
    frontier.clear();
    created.clear();
    candidates.clear();
    deaths_.clear();
    ++death_epoch_;
  }

  bool is_informed(NodeId node) const {
    return node.slot < informed_stamp_.size() &&
           informed_stamp_[node.slot] == informed_epoch_;
  }
  bool mark_informed(NodeId node) {
    ensure(node.slot + 1);
    if (informed_stamp_[node.slot] == informed_epoch_) return false;
    informed_stamp_[node.slot] = informed_epoch_;
    ++informed_count_;
    return true;
  }
  void unmark_informed(NodeId node) {
    if (!is_informed(node)) return;
    informed_stamp_[node.slot] = 0;
    CHURNET_ASSERT(informed_count_ > 0);
    --informed_count_;
  }
  std::uint64_t informed_count() const { return informed_count_; }

  void begin_step() { ++candidate_epoch_; }
  bool mark_candidate(NodeId node) {
    ensure(node.slot + 1);
    if (candidate_stamp_[node.slot] == candidate_epoch_) return false;
    candidate_stamp_[node.slot] = candidate_epoch_;
    return true;
  }

  void clear_deaths() {
    deaths_.clear();
    ++death_epoch_;
  }
  void note_death(NodeId node) {
    ensure(node.slot + 1);
    death_stamp_[node.slot] = death_epoch_;
    deaths_.push_back(node);
  }
  bool died_this_step(NodeId node) const {
    return node.slot < death_stamp_.size() &&
           death_stamp_[node.slot] == death_epoch_;
  }
  const std::vector<NodeId>& deaths() const { return deaths_; }

  std::vector<NodeId> frontier;
  std::vector<NodeId> neighbors;
  std::vector<CreatedEdge> created;
  std::vector<std::pair<NodeId, NodeId>> candidates;

 private:
  void ensure(std::uint32_t slot_bound) {
    if (slot_bound <= informed_stamp_.size()) return;
    const std::size_t size = std::max<std::size_t>(
        slot_bound, informed_stamp_.size() + informed_stamp_.size() / 2);
    informed_stamp_.resize(size, 0);
    candidate_stamp_.resize(size, 0);
    death_stamp_.resize(size, 0);
  }

  std::vector<std::uint64_t> informed_stamp_;
  std::vector<std::uint64_t> candidate_stamp_;
  std::vector<std::uint64_t> death_stamp_;
  std::vector<NodeId> deaths_;
  std::uint64_t informed_epoch_ = 0;
  std::uint64_t candidate_epoch_ = 0;
  std::uint64_t death_epoch_ = 0;
  std::uint64_t informed_count_ = 0;
};

template <typename Net>
FloodTrace legacy_flood_dynamic(Net& net, const FloodOptions& options,
                                LegacyFloodScratch& scratch) {
  using Semantics = typename Net::flood_semantics;
  FloodTrace trace;
  scratch.begin_trial(net.graph().slot_upper_bound());

  NodeId source = kInvalidNode;
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  const auto drain_feed = [&] {
    for (const GraphDelta& delta : feed.deltas()) {
      if (delta.kind == GraphDelta::Kind::kBirth) {
        if (!source.valid()) source = delta.node;
      } else if (delta.kind == GraphDelta::Kind::kDeath) {
        scratch.note_death(delta.node);
      } else if (delta.kind == GraphDelta::Kind::kEdgeSet) {
        scratch.created.push_back({delta.node, delta.target});
      }
    }
    feed.clear();
  };

  if constexpr (Semantics::kSourceIsNewborn) {
    while (!source.valid()) {
      net.step();
      drain_feed();
    }
  } else {
    CHURNET_EXPECTS(net.graph().alive_count() > 0);
    source = net.graph().random_alive(net.rng());
  }
  scratch.created.clear();
  scratch.clear_deaths();
  scratch.mark_informed(source);
  scratch.frontier.push_back(source);

  trace.peak_informed = 1;
  detail_flood::record_step(trace, options, 1, net.graph().alive_count());

  for (std::uint64_t step = 1; step <= options.max_steps; ++step) {
    const DynamicGraph& graph = net.graph();

    scratch.candidates.clear();
    if constexpr (!Semantics::kPairCandidates) scratch.begin_step();
    auto consider = [&scratch](NodeId sender, NodeId receiver) {
      if constexpr (Semantics::kPairCandidates) {
        scratch.candidates.emplace_back(sender, receiver);
      } else {
        if (scratch.mark_candidate(receiver)) {
          scratch.candidates.emplace_back(sender, receiver);
        }
      }
    };
    for (const NodeId u : scratch.frontier) {
      if (!graph.is_alive(u)) continue;
      scratch.neighbors.clear();
      graph.append_neighbors(u, scratch.neighbors);
      for (const NodeId v : scratch.neighbors) {
        if (!scratch.is_informed(v)) consider(u, v);
      }
    }
    for (const CreatedEdge& edge : scratch.created) {
      if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) {
        continue;
      }
      const bool owner_informed = scratch.is_informed(edge.owner);
      const bool target_informed = scratch.is_informed(edge.target);
      if (owner_informed && !target_informed) {
        consider(edge.owner, edge.target);
      } else if (target_informed && !owner_informed) {
        consider(edge.target, edge.owner);
      }
    }
    scratch.created.clear();
    scratch.clear_deaths();

    Semantics::advance(net);
    drain_feed();

    for (const NodeId dead : scratch.deaths()) {
      scratch.unmark_informed(dead);
    }

    scratch.frontier.clear();
    for (const auto& [u, v] : scratch.candidates) {
      if constexpr (Semantics::kPairCandidates) {
        if (scratch.died_this_step(u) || scratch.died_this_step(v)) continue;
        CHURNET_ASSERT(net.graph().is_alive(v));
      } else {
        if (!net.graph().is_alive(v)) continue;
      }
      if (scratch.mark_informed(v)) scratch.frontier.push_back(v);
    }

    trace.steps = step;
    const std::uint64_t informed_count = scratch.informed_count();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    detail_flood::record_step(trace, options, informed_count, alive_count);
    trace.final_fraction = alive_count == 0
                               ? 0.0
                               : static_cast<double>(informed_count) /
                                     static_cast<double>(alive_count);

    if (Semantics::completed(informed_count, alive_count)) {
      trace.completed = true;
      trace.completion_step = step;
      break;
    }
    if (informed_count == 0) {
      trace.died_out = true;
      trace.die_out_step = step;
      if (options.stop_on_die_out) break;
    }
    if (options.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.stop_at_fraction) {
      break;
    }
    if constexpr (Semantics::kChurnFree) {
      if (scratch.frontier.empty()) break;
    }
  }

  net.attach_change_feed(nullptr);
  return trace;
}

// ---------------------------------------------------------------------------
// Live-oracle comparison: bitset path vs legacy stamp-array path on
// identically seeded concrete networks.
// ---------------------------------------------------------------------------

void expect_traces_equal(const FloodTrace& bitset, const FloodTrace& legacy) {
  ASSERT_EQ(bitset.informed_per_step, legacy.informed_per_step);
  ASSERT_EQ(bitset.alive_per_step, legacy.alive_per_step);
  EXPECT_EQ(bitset.steps, legacy.steps);
  EXPECT_EQ(bitset.completed, legacy.completed);
  EXPECT_EQ(bitset.completion_step, legacy.completion_step);
  EXPECT_EQ(bitset.died_out, legacy.died_out);
  EXPECT_EQ(bitset.die_out_step, legacy.die_out_step);
  EXPECT_EQ(bitset.peak_informed, legacy.peak_informed);
  EXPECT_DOUBLE_EQ(bitset.final_fraction, legacy.final_fraction);
}

/// Runs both drivers on two networks built by `make_net` (same seed, so
/// they evolve identically: neither driver consumes network randomness
/// beyond the shared source-selection path) and requires equality of the
/// full event sequence and the terminal informed set, slot for slot.
template <typename MakeNet>
void expect_bitset_matches_legacy(const MakeNet& make_net) {
  const FloodOptions options;

  auto legacy_net = make_net();
  LegacyFloodScratch legacy_scratch;
  const FloodTrace legacy =
      legacy_flood_dynamic(legacy_net, options, legacy_scratch);

  auto bitset_net = make_net();
  ProtocolScratch bitset_scratch;
  const FloodTrace bitset =
      flood_dynamic(bitset_net, options, bitset_scratch);

  expect_traces_equal(bitset, legacy);

  const std::uint32_t bound =
      std::max(legacy_net.graph().slot_upper_bound(),
               bitset_net.graph().slot_upper_bound());
  for (std::uint32_t slot = 0; slot < bound; ++slot) {
    const NodeId id{slot, 0};  // both membership sets are slot-indexed
    ASSERT_EQ(bitset_scratch.flood.is_informed(id),
              legacy_scratch.is_informed(id))
        << "slot " << slot;
  }
  EXPECT_EQ(bitset_scratch.flood.informed_count(),
            legacy_scratch.informed_count());
  EXPECT_EQ(bitset_net.graph().alive_count(),
            legacy_net.graph().alive_count());
}

std::string oracle_param_name(
    const ::testing::TestParamInfo<const char*>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class BitsetFloodOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(BitsetFloodOracle, MatchesStampArrayPathBitForBit) {
  const std::string name = GetParam();
  if (name == "SDG" || name == "SDGR") {
    StreamingConfig config;
    config.n = 600;
    config.d = 4;
    config.policy =
        name == "SDG" ? EdgePolicy::kNone : EdgePolicy::kRegenerate;
    config.seed = 1234;
    expect_bitset_matches_legacy(
        [&config] {
          StreamingNetwork net(config);
          net.warm_up();
          return net;
        });
  } else if (name == "PDG" || name == "PDGR") {
    const PoissonConfig config = PoissonConfig::with_n(
        300, 5, name == "PDG" ? EdgePolicy::kNone : EdgePolicy::kRegenerate,
        987);
    expect_bitset_matches_legacy(
        [&config] {
          PoissonNetwork net(config);
          net.warm_up();
          return net;
        });
  } else {
    StaticConfig config;
    config.n = 800;
    config.d = 4;
    config.topology = name == "static-dout"
                          ? StaticConfig::Topology::kDOut
                          : StaticConfig::Topology::kErdosRenyi;
    config.seed = 4321;
    expect_bitset_matches_legacy(
        [&config] { return StaticNetwork(config); });
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, BitsetFloodOracle,
    ::testing::Values("SDG", "SDGR", "PDG", "PDGR", "static-dout",
                      "erdos-renyi"),
    oracle_param_name);

// ---------------------------------------------------------------------------
// Pinned checksums, captured from the last stamp-array build. The digest
// covers the full trace (every per-step informed/alive count), the
// message-complexity stats (dissemination pins) and the terminal informed
// set in alive-node order, so any behavioral drift — even one applied to
// oracle and subject in tandem — flips the constant.
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  void add_double(double value) {
    if (std::isnan(value)) {
      add(0x7FF8DEADBEEF0000ULL);  // one canonical NaN
      return;
    }
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
};

void add_trace(Fnv& fnv, const FloodTrace& trace) {
  fnv.add(trace.steps);
  fnv.add(trace.completed ? 1 : 0);
  fnv.add(trace.completion_step);
  fnv.add(trace.died_out ? 1 : 0);
  fnv.add(trace.die_out_step);
  fnv.add(trace.peak_informed);
  fnv.add_double(trace.final_fraction);
  for (const std::uint64_t v : trace.informed_per_step) fnv.add(v);
  for (const std::uint64_t v : trace.alive_per_step) fnv.add(v);
}

void add_stats(Fnv& fnv, const ProtocolStats& stats) {
  fnv.add(stats.messages_sent);
  fnv.add(stats.overhead_messages);
  fnv.add(stats.lost_messages);
  fnv.add(stats.useful_deliveries);
  fnv.add(stats.duplicate_deliveries);
}

void add_terminal_informed(Fnv& fnv, const DynamicGraph& graph,
                           const FloodScratch& scratch) {
  for (const NodeId node : graph.alive_nodes()) {
    if (!scratch.is_informed(node)) continue;
    fnv.add((static_cast<std::uint64_t>(node.slot) << 32) | node.generation);
  }
}

std::uint64_t flood_checksum(const char* scenario_name, std::uint32_t n,
                             std::uint32_t d, std::uint64_t seed) {
  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  AnyNetwork net =
      ScenarioRegistry::paper().at(scenario_name).make_warmed(params);
  ProtocolScratch scratch;
  const FloodOptions options;
  const FloodTrace trace = net.flood(options, scratch);
  Fnv fnv;
  add_trace(fnv, trace);
  add_terminal_informed(fnv, net.graph(), scratch.flood);
  return fnv.hash;
}

std::uint64_t gossip_checksum(const char* scenario_name,
                              const char* protocol_text, std::uint32_t n,
                              std::uint32_t d, std::uint64_t net_seed,
                              std::uint64_t proto_seed) {
  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = net_seed;
  AnyNetwork net =
      ScenarioRegistry::paper().at(scenario_name).make_warmed(params);
  const ProtocolSpec spec = *ProtocolSpec::parse(protocol_text);
  std::unique_ptr<DisseminationProtocol> protocol = make_protocol(spec);
  const ProtocolOptions options = protocol_options(spec, proto_seed);
  ProtocolScratch scratch;
  const ProtocolResult result = net.disseminate(*protocol, options, scratch);
  Fnv fnv;
  add_trace(fnv, result.trace);
  add_stats(fnv, result.stats);
  add_terminal_informed(fnv, net.graph(), scratch.flood);
  return fnv.hash;
}

TEST(BitsetFloodPins, FloodMatchesStampArrayBuildOnAllScenarios) {
  struct Pin {
    const char* scenario;
    std::uint64_t checksum;
  };
  // n=600, d=4, seed=1234 on every scenario; constants captured from the
  // pre-rewrite build.
  const Pin kPins[] = {
      {"SDG", 0xbf10d346a574f7aaULL},
      {"SDGR", 0x513974ac2ced4d0fULL},
      {"PDG", 0xf585014a3d65583eULL},
      {"PDGR", 0xfa3aa17c23690838ULL},
      {"static-dout", 0x174d64f878ea6648ULL},
      {"erdos-renyi", 0xaba951962e3b43d7ULL},
  };
  for (const Pin& pin : kPins) {
    EXPECT_EQ(flood_checksum(pin.scenario, 600, 4, 1234), pin.checksum)
        << pin.scenario;
  }
}

TEST(BitsetFloodPins, DisseminationMatchesStampArrayBuild) {
  struct Pin {
    const char* scenario;
    const char* protocol;
    std::uint32_t n;
    std::uint32_t d;
    std::uint64_t net_seed;
    std::uint64_t proto_seed;
    std::uint64_t checksum;
  };
  const Pin kPins[] = {
      {"SDGR", "flood", 500, 4, 99, 777, 0x287c4b29ab7c50bdULL},
      {"SDGR", "ttl(3)", 500, 4, 99, 777, 0x91ab65c9ddedd027ULL},
      {"SDGR", "push(3)", 500, 4, 99, 777, 0x8bd58d8967d1d51dULL},
      {"SDGR", "pull(2)", 500, 4, 99, 777, 0x5055dac39042aa34ULL},
      {"SDGR", "push-pull(2)", 500, 4, 99, 777, 0xf8f4d6eabd5cb56dULL},
      {"SDGR", "flood+lossy(0.9)", 500, 4, 99, 777, 0x6d25478d32bc6b74ULL},
      {"PDG", "flood", 300, 5, 7, 3, 0x59338870afcd4868ULL},
      {"PDG", "push(2)", 300, 5, 7, 3, 0xf159e7e7a867ab4cULL},
  };
  for (const Pin& pin : kPins) {
    EXPECT_EQ(gossip_checksum(pin.scenario, pin.protocol, pin.n, pin.d,
                              pin.net_seed, pin.proto_seed),
              pin.checksum)
        << pin.scenario << " " << pin.protocol;
  }
}

// ---------------------------------------------------------------------------
// Genesis bulk wiring: run_growth_phase must leave the graph (and the
// network RNG) in exactly the state n sequential growth rounds produce —
// same neighbor lists in the same order, same pool layout consequences.
// ---------------------------------------------------------------------------

TEST(BulkGenesisWiring, MatchesSequentialGrowthExactly) {
  // n = 2000 fits one radix block of 2^15 slots; n = 40000 spans two, so
  // the per-block carve of the in-pool is checked across blocks.
  for (const std::uint32_t n : {2000u, 40000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    StreamingConfig config;
    config.n = n;
    config.d = 6;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = 20240815;

    StreamingNetwork sequential(config);
    sequential.run_rounds(config.n);

    StreamingNetwork bulk(config);
    bulk.run_growth_phase();

    ASSERT_TRUE(bulk.graph().check_consistency());
    ASSERT_EQ(bulk.graph().alive_count(), sequential.graph().alive_count());
    ASSERT_EQ(bulk.graph().slot_upper_bound(),
              sequential.graph().slot_upper_bound());

    // Neighbor lists in order cover both pools: out-run contents plus
    // in-list insertion order (and with it every in_pos back-pointer).
    std::vector<NodeId> expected;
    std::vector<NodeId> actual;
    for (const NodeId node : sequential.graph().alive_nodes()) {
      ASSERT_TRUE(bulk.graph().is_alive(node));
      expected.clear();
      actual.clear();
      sequential.graph().append_neighbors(node, expected);
      bulk.graph().append_neighbors(node, actual);
      ASSERT_EQ(actual, expected) << "slot " << node.slot;
    }

    // The replay consumed the identical RNG draw sequence, so continuing
    // both networks must keep them in lockstep through real churn.
    sequential.run_rounds(config.n);
    bulk.run_rounds(config.n);
    ASSERT_EQ(bulk.graph().alive_count(), sequential.graph().alive_count());
    for (const NodeId node : sequential.graph().alive_nodes()) {
      ASSERT_TRUE(bulk.graph().is_alive(node));
      expected.clear();
      actual.clear();
      sequential.graph().append_neighbors(node, expected);
      bulk.graph().append_neighbors(node, actual);
      ASSERT_EQ(actual, expected) << "slot " << node.slot;
    }
  }
}

TEST(BulkGenesisWiring, HookedAndBoundedDegreeNetworksFallBackUnchanged) {
  // run_growth_phase must refuse the bulk path whenever it could be
  // observed (hooks) or wrong (bounded in-degree) — warm_up on such a
  // network still matches a from-scratch sequential run.
  StreamingConfig config;
  config.n = 500;
  config.d = 4;
  config.policy = EdgePolicy::kNone;
  config.seed = 77;
  config.max_in_degree = 12;

  StreamingNetwork sequential(config);
  sequential.run_rounds(config.n);

  StreamingNetwork bulk(config);
  bulk.run_growth_phase();

  ASSERT_EQ(bulk.graph().alive_count(), sequential.graph().alive_count());
  std::vector<NodeId> expected;
  std::vector<NodeId> actual;
  for (const NodeId node : sequential.graph().alive_nodes()) {
    expected.clear();
    actual.clear();
    sequential.graph().append_neighbors(node, expected);
    bulk.graph().append_neighbors(node, actual);
    ASSERT_EQ(actual, expected) << "slot " << node.slot;
  }
}

}  // namespace
}  // namespace churnet
