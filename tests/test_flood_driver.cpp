// Equivalence tests for plain flooding through the dissemination driver
// (flood_dynamic, protocols/dissemination.hpp): it must reproduce the seed
// repo's dedicated streaming and Poisson drivers bit-for-bit at fixed
// seeds. The reference implementations below are
// verbatim copies of those seed drivers (unordered_set bookkeeping, no
// scratch reuse), except that they read created edges and deaths from a
// change feed of their own instead of network callbacks; the traces — full
// per-step series included — must match exactly because neither
// implementation consumes network randomness.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

struct RefCreatedEdge {
  NodeId owner;
  NodeId target;
};

void ref_record_step(FloodTrace& trace, const FloodOptions& options,
                     std::uint64_t informed, std::uint64_t alive) {
  if (!options.record_series) return;
  trace.informed_per_step.push_back(informed);
  trace.alive_per_step.push_back(alive);
}

/// Moves the edges created (and, with `deaths`, the nodes that died) since
/// the last drain out of `feed`.
void drain_feed(ChangeFeed& feed, std::vector<RefCreatedEdge>& created,
                std::unordered_set<NodeId>* deaths = nullptr) {
  for (const GraphDelta& delta : feed.deltas()) {
    if (delta.kind == GraphDelta::Kind::kEdgeSet) {
      created.push_back({delta.node, delta.target});
    } else if (delta.kind == GraphDelta::Kind::kDeath && deaths != nullptr) {
      deaths->insert(delta.node);
    }
  }
  feed.clear();
}

/// Verbatim copy of the seed repo's flood_streaming.
FloodTrace seed_flood_streaming(StreamingNetwork& net,
                                const FloodOptions& options) {
  FloodTrace trace;
  std::vector<RefCreatedEdge> created;
  ChangeFeed feed;
  net.attach_change_feed(&feed);

  const auto source_round = net.step();
  feed.clear();
  const NodeId source = source_round.born;
  std::unordered_set<NodeId> informed{source};
  std::vector<NodeId> frontier{source};
  created.clear();

  trace.peak_informed = 1;
  ref_record_step(trace, options, 1, net.graph().alive_count());

  std::vector<NodeId> newly;
  std::unordered_set<NodeId> newly_set;
  std::vector<NodeId> neighbor_scratch;
  for (std::uint64_t step = 1; step <= options.max_steps; ++step) {
    const DynamicGraph& graph = net.graph();

    newly.clear();
    newly_set.clear();
    auto consider = [&](NodeId candidate) {
      if (informed.contains(candidate)) return;
      if (newly_set.insert(candidate).second) newly.push_back(candidate);
    };
    for (const NodeId u : frontier) {
      if (!graph.is_alive(u)) continue;
      neighbor_scratch.clear();
      graph.append_neighbors(u, neighbor_scratch);
      for (const NodeId v : neighbor_scratch) consider(v);
    }
    for (const RefCreatedEdge& edge : created) {
      if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) continue;
      const bool owner_informed = informed.contains(edge.owner);
      const bool target_informed = informed.contains(edge.target);
      if (owner_informed && !target_informed) consider(edge.target);
      if (target_informed && !owner_informed) consider(edge.owner);
    }
    created.clear();

    const auto report = net.step();
    drain_feed(feed, created);
    if (report.died.has_value()) informed.erase(*report.died);

    frontier.clear();
    for (const NodeId v : newly) {
      if (!net.graph().is_alive(v)) continue;
      if (informed.insert(v).second) frontier.push_back(v);
    }

    trace.steps = step;
    const std::uint64_t informed_count = informed.size();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    ref_record_step(trace, options, informed_count, alive_count);
    trace.final_fraction = alive_count == 0
                               ? 0.0
                               : static_cast<double>(informed_count) /
                                     static_cast<double>(alive_count);

    if (informed_count + 1 >= alive_count && alive_count >= 2) {
      trace.completed = true;
      trace.completion_step = step;
      break;
    }
    if (informed.empty()) {
      trace.died_out = true;
      trace.die_out_step = step;
      if (options.stop_on_die_out) break;
    }
    if (options.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.stop_at_fraction) {
      break;
    }
  }

  net.attach_change_feed(nullptr);
  return trace;
}

/// Verbatim copy of the seed repo's flood_poisson_discretized.
FloodTrace seed_flood_poisson_discretized(PoissonNetwork& net,
                                          const FloodOptions& options) {
  FloodTrace trace;
  std::vector<RefCreatedEdge> created;
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
  feed.clear();
  std::unordered_set<NodeId> informed{source};
  std::vector<NodeId> frontier{source};
  created.clear();
  deaths.clear();
  double clock = net.now();

  trace.peak_informed = 1;
  ref_record_step(trace, options, 1, net.graph().alive_count());

  std::vector<std::pair<NodeId, NodeId>> candidates;
  std::vector<NodeId> neighbor_scratch;
  for (std::uint64_t step = 1; step <= options.max_steps; ++step) {
    const DynamicGraph& graph = net.graph();
    candidates.clear();
    for (const NodeId u : frontier) {
      if (!graph.is_alive(u)) continue;
      neighbor_scratch.clear();
      graph.append_neighbors(u, neighbor_scratch);
      for (const NodeId v : neighbor_scratch) {
        if (!informed.contains(v)) candidates.emplace_back(u, v);
      }
    }
    for (const RefCreatedEdge& edge : created) {
      if (!graph.is_alive(edge.owner) || !graph.is_alive(edge.target)) continue;
      const bool owner_informed = informed.contains(edge.owner);
      const bool target_informed = informed.contains(edge.target);
      if (owner_informed && !target_informed) {
        candidates.emplace_back(edge.owner, edge.target);
      } else if (target_informed && !owner_informed) {
        candidates.emplace_back(edge.target, edge.owner);
      }
    }
    created.clear();
    deaths.clear();

    net.run_until(clock + 1.0);
    clock += 1.0;
    drain_feed(feed, created, &deaths);

    for (const NodeId dead : deaths) informed.erase(dead);

    frontier.clear();
    for (const auto& [u, v] : candidates) {
      if (deaths.contains(u) || deaths.contains(v)) continue;
      if (informed.insert(v).second) frontier.push_back(v);
    }

    trace.steps = step;
    const std::uint64_t informed_count = informed.size();
    const std::uint64_t alive_count = net.graph().alive_count();
    trace.peak_informed = std::max(trace.peak_informed, informed_count);
    ref_record_step(trace, options, informed_count, alive_count);
    trace.final_fraction = alive_count == 0
                               ? 0.0
                               : static_cast<double>(informed_count) /
                                     static_cast<double>(alive_count);

    if (informed_count == alive_count && alive_count > 0) {
      trace.completed = true;
      trace.completion_step = step;
      break;
    }
    if (informed.empty()) {
      trace.died_out = true;
      trace.die_out_step = step;
      if (options.stop_on_die_out) break;
    }
    if (options.stop_at_fraction < 1.0 &&
        trace.final_fraction >= options.stop_at_fraction) {
      break;
    }
  }

  net.attach_change_feed(nullptr);
  return trace;
}

void expect_traces_identical(const FloodTrace& a, const FloodTrace& b) {
  EXPECT_EQ(a.informed_per_step, b.informed_per_step);
  EXPECT_EQ(a.alive_per_step, b.alive_per_step);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.completion_step, b.completion_step);
  EXPECT_EQ(a.died_out, b.died_out);
  EXPECT_EQ(a.die_out_step, b.die_out_step);
  EXPECT_EQ(a.peak_informed, b.peak_informed);
  EXPECT_DOUBLE_EQ(a.final_fraction, b.final_fraction);
}

TEST(FloodDriver, MatchesSeedStreamingDriverBitForBit) {
  for (const EdgePolicy policy : {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    for (const std::uint64_t seed : {7ull, 1234ull, 99991ull}) {
      StreamingConfig config;
      config.n = 400;
      config.d = policy == EdgePolicy::kRegenerate ? 21 : 6;
      config.policy = policy;
      config.seed = seed;

      StreamingNetwork reference_net(config);
      reference_net.warm_up();
      const FloodTrace expected = seed_flood_streaming(reference_net, {});

      StreamingNetwork net(config);
      net.warm_up();
      const FloodTrace actual = flood_dynamic(net);

      SCOPED_TRACE(testing::Message()
                   << "policy=" << static_cast<int>(policy)
                   << " seed=" << seed);
      expect_traces_identical(expected, actual);
    }
  }
}

TEST(FloodDriver, MatchesSeedPoissonDriverBitForBit) {
  for (const EdgePolicy policy : {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    for (const std::uint64_t seed : {7ull, 1234ull, 99991ull}) {
      const std::uint32_t d = policy == EdgePolicy::kRegenerate ? 35 : 8;
      const auto config = PoissonConfig::with_n(400, d, policy, seed);

      PoissonNetwork reference_net(config);
      reference_net.warm_up(5.0);
      const FloodTrace expected = seed_flood_poisson_discretized(
          reference_net, {});

      PoissonNetwork net(config);
      net.warm_up(5.0);
      const FloodTrace actual = flood_dynamic(net, {});

      SCOPED_TRACE(testing::Message()
                   << "policy=" << static_cast<int>(policy)
                   << " seed=" << seed);
      expect_traces_identical(expected, actual);
    }
  }
}

TEST(FloodDriver, MatchesSeedDriversWithEarlyStopOptions) {
  FloodOptions options;
  options.stop_at_fraction = 0.5;
  options.max_steps = 200;

  StreamingConfig sconfig;
  sconfig.n = 500;
  sconfig.d = 8;
  sconfig.policy = EdgePolicy::kRegenerate;
  sconfig.seed = 42;
  StreamingNetwork sref(sconfig);
  sref.warm_up();
  StreamingNetwork snet(sconfig);
  snet.warm_up();
  expect_traces_identical(seed_flood_streaming(sref, options),
                          flood_dynamic(snet, options));

  const auto pconfig =
      PoissonConfig::with_n(500, 12, EdgePolicy::kRegenerate, 42);
  PoissonNetwork pref(pconfig);
  pref.warm_up(5.0);
  PoissonNetwork pnet(pconfig);
  pnet.warm_up(5.0);
  expect_traces_identical(seed_flood_poisson_discretized(pref, options),
                          flood_dynamic(pnet, options));
}

TEST(FloodDriver, ScratchReuseAcrossTrialsDoesNotChangeTraces) {
  ProtocolScratch scratch;
  for (int trial = 0; trial < 3; ++trial) {
    StreamingConfig config;
    config.n = 300;
    config.d = 21;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = 100 + static_cast<std::uint64_t>(trial);

    StreamingNetwork fresh(config);
    fresh.warm_up();
    const FloodTrace expected = flood_dynamic(fresh, {});

    StreamingNetwork reused(config);
    reused.warm_up();
    const FloodTrace actual = flood_dynamic(reused, {}, scratch);
    expect_traces_identical(expected, actual);
  }
  // Mixing models through the same scratch is fine too.
  PoissonNetwork pnet(PoissonConfig::with_n(300, 35, EdgePolicy::kRegenerate,
                                            5));
  pnet.warm_up(5.0);
  PoissonNetwork pref(PoissonConfig::with_n(300, 35, EdgePolicy::kRegenerate,
                                            5));
  pref.warm_up(5.0);
  expect_traces_identical(flood_dynamic(pref, {}),
                          flood_dynamic(pnet, {}, scratch));
}

// ---- the driver's change feed ----------------------------------------------

// The driver watches churn through a feed of its own, attached for one run
// only: on return the graph carries no feed, so the next run (or an
// observation window) can attach one.
TEST(FloodDriver, DetachesItsFeedOnReturn) {
  StreamingConfig config;
  config.n = 200;
  config.d = 4;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 31;
  StreamingNetwork net(config);
  net.warm_up();
  for (int run = 0; run < 2; ++run) {
    EXPECT_GT(flood_dynamic(net, {}).steps, 0u);
    EXPECT_EQ(net.graph().change_feed(), nullptr);
  }

  AnyNetwork erased{
      PoissonNetwork(PoissonConfig::with_n(200, 4, EdgePolicy::kNone, 32))};
  erased.warm_up();
  PushProtocol push(2);
  EXPECT_GT(erased.disseminate(push).trace.steps, 0u);
  EXPECT_EQ(erased.graph().change_feed(), nullptr);
}

// A graph holds one feed, so disseminating while a caller's feed is
// attached is a contract violation, not a silent detach.
TEST(FloodDriverDeathTest, CallerFeedAttachedAborts) {
  StreamingConfig config;
  config.n = 100;
  config.d = 4;
  config.seed = 33;
  StreamingNetwork net(config);
  net.warm_up();
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  EXPECT_DEATH(flood_dynamic(net, {}), "change_feed");
}

// ---- the slot-path commit --------------------------------------------------

// FloodScratch::commit_candidates walks only the candidate words its
// summary level flags. Against a dense AND-NOT reference kept here, random
// marks and deaths over slot bounds that are not multiples of 64 or 4096,
// with the scratch grown between steps and by a death past the bound while
// marks are pending (a node born and killed within one interval), must
// give the same frontier (in slot order), informed set and count — and
// leave no candidate or summary bit behind.
TEST(FloodScratchCommit, SummaryCommitMatchesDenseAndNot) {
  Rng rng(90);
  std::uint32_t bound = 3 * 4096 + 77;
  FloodScratch scratch;
  scratch.begin_trial(bound);
  std::vector<char> informed(bound, 0);
  std::uint64_t informed_count = 0;
  std::vector<std::uint32_t> frontier;
  for (int step = 0; step < 48; ++step) {
    if (step % 8 == 3) {
      bound += 4096 + 65 + static_cast<std::uint32_t>(rng.below(64));
      scratch.ensure_slots(bound);
      informed.resize(bound, 0);
    }
    // Candidates: uninformed slots, drawn with repeats; dense steps and
    // sparse steps alternate so whole summary words are both hit and
    // skipped.
    std::vector<char> cand(bound, 0);
    const std::uint64_t draws = rng.below(step % 2 == 0 ? bound : 40);
    for (std::uint64_t i = 0; i < draws; ++i) {
      const auto slot = static_cast<std::uint32_t>(rng.below(bound));
      if (informed[slot] != 0) continue;
      cand[slot] = 1;
      scratch.mark_candidate_slot(slot);
    }

    // Deaths: any slot, candidate or informed (the driver un-informs).
    scratch.clear_deaths();
    if (step % 8 == 7) {
      bound += 4096 + 65 + static_cast<std::uint32_t>(rng.below(64));
      informed.resize(bound, 0);
      cand.resize(bound, 0);
      scratch.note_death(NodeId{bound - 1, 0});
    }
    std::vector<char> dead(bound, 0);
    if (step % 8 == 7) dead[bound - 1] = 1;
    const std::uint64_t deaths = rng.below(bound / 16);
    for (std::uint64_t i = 0; i < deaths; ++i) {
      const auto slot = static_cast<std::uint32_t>(rng.below(bound));
      dead[slot] = 1;
      scratch.note_death(NodeId{slot, 0});
      scratch.unmark_informed(NodeId{slot, 0});
      if (informed[slot] != 0) {
        informed[slot] = 0;
        --informed_count;
      }
    }

    std::vector<std::uint32_t> expected;
    std::uint64_t distinct = 0;
    for (std::uint32_t slot = 0; slot < bound; ++slot) {
      if (cand[slot] == 0) continue;
      ++distinct;
      if (dead[slot] != 0) continue;
      informed[slot] = 1;
      ++informed_count;
      expected.push_back(slot);
    }

    frontier.clear();
    EXPECT_EQ(scratch.commit_candidates(frontier), distinct)
        << "step " << step;
    ASSERT_EQ(frontier, expected) << "step " << step;
    EXPECT_EQ(scratch.informed_count(), informed_count) << "step " << step;
    for (std::uint32_t slot = 0; slot < bound; ++slot) {
      ASSERT_EQ(scratch.is_informed_slot(slot), informed[slot] != 0)
          << "step " << step << " slot " << slot;
    }
    EXPECT_TRUE(scratch.candidates_empty()) << "step " << step;
  }
}

}  // namespace
}  // namespace churnet
