// Tests for the unified DynamicNetwork model layer: concept satisfaction,
// the type-erased AnyNetwork wrapper, StreamingNetwork::run_until, and the
// StaticNetwork baselines.
#include <gtest/gtest.h>

#include <algorithm>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

// The concept is the contract every model layer builds on: check it at
// compile time for all models and the erased wrapper.
static_assert(DynamicNetwork<StreamingNetwork>);
static_assert(DynamicNetwork<PoissonNetwork>);
static_assert(DynamicNetwork<StaticNetwork>);
static_assert(DynamicNetwork<AnyNetwork>);
static_assert(FloodableNetwork<StreamingNetwork>);
static_assert(FloodableNetwork<PoissonNetwork>);
static_assert(FloodableNetwork<StaticNetwork>);

TEST(StreamingRunUntil, AdvancesWholeRoundsToTheBarrier) {
  StreamingConfig config;
  config.n = 50;
  config.d = 4;
  config.seed = 3;
  StreamingNetwork net(config);
  net.run_until(5.0);
  EXPECT_EQ(net.round(), 5u);
  net.run_until(5.0);  // idempotent at the barrier
  EXPECT_EQ(net.round(), 5u);
  net.run_until(7.5);  // partial rounds round up
  EXPECT_EQ(net.round(), 8u);
}

TEST(AnyNetwork, ForwardsToWrappedModelIdentically) {
  StreamingConfig config;
  config.n = 100;
  config.d = 6;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 11;

  StreamingNetwork typed(config);
  AnyNetwork erased{StreamingNetwork(config)};
  ASSERT_TRUE(erased.valid());

  typed.warm_up();
  erased.warm_up();
  EXPECT_EQ(erased.graph().alive_count(), typed.graph().alive_count());
  EXPECT_DOUBLE_EQ(erased.now(), typed.now());

  typed.run_until(typed.now() + 10.0);
  erased.run_until(erased.now() + 10.0);
  EXPECT_DOUBLE_EQ(erased.now(), typed.now());
  EXPECT_EQ(erased.graph().edge_count(), typed.graph().edge_count());

  const Snapshot st = typed.snapshot();
  const Snapshot se = erased.snapshot();
  EXPECT_EQ(se.node_count(), st.node_count());
  EXPECT_EQ(se.edge_count(), st.edge_count());

  // A change feed passes through the erasure.
  ChangeFeed feed;
  erased.attach_change_feed(&feed);
  erased.step();
  erased.attach_change_feed(nullptr);
  EXPECT_EQ(std::count_if(feed.deltas().begin(), feed.deltas().end(),
                          [](const GraphDelta& delta) {
                            return delta.kind == GraphDelta::Kind::kBirth;
                          }),
            1);

  // Typed access recovers the model; wrong types yield nullptr.
  EXPECT_NE(erased.get_if<StreamingNetwork>(), nullptr);
  EXPECT_EQ(erased.get_if<PoissonNetwork>(), nullptr);
}

TEST(AnyNetwork, FloodMatchesTypedDriver) {
  const auto config = PoissonConfig::with_n(250, 35, EdgePolicy::kRegenerate,
                                            21);
  PoissonNetwork typed(config);
  typed.warm_up(5.0);
  const FloodTrace expected = flood_dynamic(typed, {});

  // Advance the erased network exactly like `typed` (warm_up(5.0) via
  // typed access; the erased warm_up() would run 10 expected lifetimes).
  AnyNetwork fresh{PoissonNetwork(config)};
  fresh.get_if<PoissonNetwork>()->warm_up(5.0);
  const FloodTrace actual = fresh.flood();

  EXPECT_EQ(actual.informed_per_step, expected.informed_per_step);
  EXPECT_EQ(actual.alive_per_step, expected.alive_per_step);
  EXPECT_EQ(actual.completed, expected.completed);
  EXPECT_EQ(actual.completion_step, expected.completion_step);
}

TEST(StaticNetwork, DOutTopologyIsFrozen) {
  StaticConfig config;
  config.n = 500;
  config.d = 8;
  config.seed = 5;
  StaticNetwork net(config);
  EXPECT_EQ(net.graph().alive_count(), 500u);
  EXPECT_EQ(net.graph().edge_count(), 500u * 8u);
  const std::uint64_t edges_before = net.graph().edge_count();
  net.warm_up();  // no-op
  net.run_until(25.0);
  EXPECT_EQ(net.graph().alive_count(), 500u);
  EXPECT_EQ(net.graph().edge_count(), edges_before);
  EXPECT_DOUBLE_EQ(net.now(), 25.0);
}

TEST(StaticNetwork, FloodIsBfsRounds) {
  StaticConfig config;
  config.n = 400;
  config.d = 8;
  config.seed = 17;
  StaticNetwork net(config);
  ProtocolScratch scratch;
  const FloodTrace trace = flood_dynamic(net, {}, scratch);
  // d-out with d = 8 is connected w.h.p.; flooding must complete in a few
  // rounds and the series must be monotone on a frozen graph.
  EXPECT_TRUE(trace.completed);
  EXPECT_LT(trace.completion_step, 20u);
  EXPECT_EQ(trace.informed_per_step.front(), 1u);
  EXPECT_EQ(trace.informed_per_step.back(), 400u);
  for (std::size_t i = 1; i < trace.informed_per_step.size(); ++i) {
    EXPECT_GE(trace.informed_per_step[i], trace.informed_per_step[i - 1]);
    EXPECT_EQ(trace.alive_per_step[i], 400u);
  }
}

TEST(StaticNetwork, ErdosRenyiMatchesTargetDensity) {
  StaticConfig config;
  config.n = 2000;
  config.d = 8;
  config.topology = StaticConfig::Topology::kErdosRenyi;
  config.seed = 23;
  StaticNetwork net(config);
  EXPECT_EQ(net.graph().alive_count(), 2000u);
  // p = 2d/n -> expected n*d = 16000 edges; 6 sigma is ~ +-760.
  const double edges = static_cast<double>(net.graph().edge_count());
  EXPECT_GT(edges, 16000.0 - 800.0);
  EXPECT_LT(edges, 16000.0 + 800.0);
  // Well above the connectivity threshold: flooding completes.
  ProtocolScratch scratch;
  const FloodTrace trace = flood_dynamic(net, {}, scratch);
  EXPECT_TRUE(trace.completed);
}

TEST(StaticNetwork, FloodStopsAtFrontierExhaustionWhenDisconnected) {
  // d = 1 ER on 2000 nodes is far below the connectivity threshold: the
  // flood must stop when its component is exhausted (BFS fixed point),
  // not spin to the default 1,000,000-step cap.
  StaticConfig config;
  config.n = 2000;
  config.d = 1;
  config.topology = StaticConfig::Topology::kErdosRenyi;
  config.seed = 7;
  StaticNetwork net(config);
  ProtocolScratch scratch;
  const FloodTrace trace = flood_dynamic(net, {}, scratch);
  EXPECT_FALSE(trace.completed);
  EXPECT_LT(trace.steps, 200u);  // component diameter, not max_steps
  EXPECT_LT(trace.final_fraction, 1.0);
  EXPECT_GT(trace.final_fraction, 0.0);
}

TEST(StaticNetwork, DeterministicForSameSeed) {
  StaticConfig config;
  config.n = 300;
  config.d = 5;
  config.topology = StaticConfig::Topology::kErdosRenyi;
  config.seed = 99;
  StaticNetwork a(config);
  StaticNetwork b(config);
  EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
  ProtocolScratch sa, sb;
  const FloodTrace ta = flood_dynamic(a, {}, sa);
  const FloodTrace tb = flood_dynamic(b, {}, sb);
  EXPECT_EQ(ta.informed_per_step, tb.informed_per_step);
}

}  // namespace
}  // namespace churnet
