// Equivalence tests: the optimized incremental flooding drivers must match
// naive reference implementations of the paper's definitions step for
// step. The references recompute the full boundary from scratch at every
// step (O(|I| * deg) per step); the drivers examine only frontier and
// freshly created edges. Any divergence indicates a frontier bookkeeping
// bug.
//
// Determinism caveat: flooding drivers do not consume network randomness,
// so two networks with the same config evolve identically, and the traces
// are comparable step by step.
#include <gtest/gtest.h>

#include <unordered_set>

#include "benchutil/experiment.hpp"
#include "churnet/churnet.hpp"

namespace churnet {
namespace {

/// Reference implementation of Def. 3.3 (synchronous streaming flooding).
std::vector<std::uint64_t> naive_flood_streaming(StreamingNetwork& net,
                                                 std::uint64_t max_steps) {
  std::vector<std::uint64_t> informed_per_step;
  const auto source_round = net.step();
  std::unordered_set<NodeId> informed{source_round.born};
  informed_per_step.push_back(informed.size());
  std::vector<NodeId> scratch;
  for (std::uint64_t step = 1; step <= max_steps; ++step) {
    // Full boundary of I_{t-1} in G_{t-1}: scan every informed node.
    std::unordered_set<NodeId> next = informed;
    for (const NodeId u : informed) {
      scratch.clear();
      net.graph().append_neighbors(u, scratch);
      for (const NodeId v : scratch) next.insert(v);
    }
    const auto report = net.step();
    if (report.died.has_value()) next.erase(*report.died);
    informed = std::move(next);
    informed_per_step.push_back(informed.size());
    if (informed.size() + 1 >= net.graph().alive_count()) break;
    if (informed.empty()) break;
  }
  net.attach_change_feed(nullptr);
  return informed_per_step;
}

/// Reference implementation of Def. 4.3 (discretized Poisson flooding).
std::vector<std::uint64_t> naive_flood_poisson(PoissonNetwork& net,
                                               std::uint64_t max_steps) {
  std::vector<std::uint64_t> informed_per_step;
  std::unordered_set<NodeId> deaths;
  ChangeFeed feed;
  net.attach_change_feed(&feed);

  NodeId source;
  for (;;) {
    const auto event = net.step();
    if (event.kind == ChurnEvent::Kind::kBirth) {
      source = event.node;
      break;
    }
  }
  std::unordered_set<NodeId> informed{source};
  informed_per_step.push_back(informed.size());
  double clock = net.now();
  std::vector<NodeId> scratch;
  for (std::uint64_t step = 1; step <= max_steps; ++step) {
    // Candidates: every (u in I_T, v adjacent in E_T) pair.
    std::vector<std::pair<NodeId, NodeId>> candidates;
    for (const NodeId u : informed) {
      scratch.clear();
      net.graph().append_neighbors(u, scratch);
      for (const NodeId v : scratch) {
        if (!informed.contains(v)) candidates.emplace_back(u, v);
      }
    }
    deaths.clear();
    feed.clear();
    net.run_until(clock + 1.0);
    clock += 1.0;
    for (const GraphDelta& delta : feed.deltas()) {
      if (delta.kind == GraphDelta::Kind::kDeath) deaths.insert(delta.node);
    }
    for (const NodeId dead : deaths) informed.erase(dead);
    for (const auto& [u, v] : candidates) {
      if (deaths.contains(u) || deaths.contains(v)) continue;
      informed.insert(v);
    }
    informed_per_step.push_back(informed.size());
    if (informed.size() == net.graph().alive_count()) break;
    if (informed.empty()) break;
  }
  net.attach_change_feed(nullptr);
  return informed_per_step;
}

struct EquivalenceParam {
  std::uint32_t n;
  std::uint32_t d;
  EdgePolicy policy;
  std::uint64_t seed;
};

std::string param_name(
    const ::testing::TestParamInfo<EquivalenceParam>& info) {
  return "n" + std::to_string(info.param.n) + "_d" +
         std::to_string(info.param.d) +
         (info.param.policy == EdgePolicy::kRegenerate ? "_regen" : "_none") +
         "_s" + std::to_string(info.param.seed);
}

class FloodEquivalence : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(FloodEquivalence, StreamingDriverMatchesNaiveReference) {
  const EquivalenceParam param = GetParam();
  StreamingConfig config;
  config.n = param.n;
  config.d = param.d;
  config.policy = param.policy;
  config.seed = param.seed;
  constexpr std::uint64_t kMaxSteps = 60;

  StreamingNetwork incremental_net(config);
  incremental_net.warm_up();
  FloodOptions options;
  options.max_steps = kMaxSteps;
  options.stop_on_die_out = true;
  const FloodTrace trace = flood_dynamic(incremental_net, options);

  StreamingNetwork naive_net(config);
  naive_net.warm_up();
  const auto reference = naive_flood_streaming(naive_net, kMaxSteps);

  ASSERT_EQ(trace.informed_per_step.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(trace.informed_per_step[t], reference[t]) << "step " << t;
  }
}

TEST_P(FloodEquivalence, PoissonDriverMatchesNaiveReference) {
  const EquivalenceParam param = GetParam();
  const PoissonConfig config =
      PoissonConfig::with_n(param.n, param.d, param.policy, param.seed);
  constexpr std::uint64_t kMaxSteps = 40;

  PoissonNetwork incremental_net(config);
  incremental_net.warm_up(6.0);
  FloodOptions options;
  options.max_steps = kMaxSteps;
  options.stop_on_die_out = true;
  const FloodTrace trace = flood_dynamic(incremental_net, options);

  PoissonNetwork naive_net(config);
  naive_net.warm_up(6.0);
  const auto reference = naive_flood_poisson(naive_net, kMaxSteps);

  ASSERT_EQ(trace.informed_per_step.size(), reference.size());
  for (std::size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(trace.informed_per_step[t], reference[t]) << "step " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FloodEquivalence,
    ::testing::Values(
        EquivalenceParam{60, 1, EdgePolicy::kNone, 1},
        EquivalenceParam{60, 2, EdgePolicy::kRegenerate, 2},
        EquivalenceParam{120, 3, EdgePolicy::kNone, 3},
        EquivalenceParam{120, 4, EdgePolicy::kRegenerate, 4},
        EquivalenceParam{250, 2, EdgePolicy::kNone, 5},
        EquivalenceParam{250, 6, EdgePolicy::kRegenerate, 6},
        EquivalenceParam{500, 8, EdgePolicy::kNone, 7},
        EquivalenceParam{500, 8, EdgePolicy::kRegenerate, 8},
        EquivalenceParam{250, 1, EdgePolicy::kNone, 9},
        EquivalenceParam{250, 12, EdgePolicy::kRegenerate, 10}),
    param_name);

}  // namespace
}  // namespace churnet
