// Behavioral tests for the dissemination protocols (protocols/gossip.hpp)
// and the generic driver (protocols/dissemination.hpp): gossip spreads and
// completes where it should, TTL caps reach, the lossy wrapper drops the
// right fraction, multi-source starts seed the informed set, and the
// message accounting stays internally consistent on every path.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

AnyNetwork make_static(std::uint32_t n, std::uint32_t d,
                       std::uint64_t seed) {
  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  return ScenarioRegistry::paper().at("static-dout").make_warmed(params);
}

AnyNetwork make_pdgr(std::uint32_t n, std::uint32_t d, std::uint64_t seed) {
  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  return ScenarioRegistry::paper().at("PDGR").make_warmed(params);
}

/// Accounting identity every run must satisfy: sent = lost + delivered +
/// dropped-by-churn, and informs = sources + useful deliveries.
void expect_consistent(const ProtocolResult& result,
                       std::uint64_t sources = 1) {
  const ProtocolStats& s = result.stats;
  EXPECT_EQ(s.messages_sent,
            s.lost_messages + s.deliveries() + s.dropped_by_churn());
  EXPECT_EQ(s.total_messages(), s.messages_sent + s.overhead_messages);
  EXPECT_EQ(s.rounds, result.trace.steps);
  EXPECT_EQ(s.completed, result.trace.completed);
  // peak informed can never exceed sources + everything usefully delivered.
  EXPECT_LE(result.trace.peak_informed, sources + s.useful_deliveries);
}

TEST(PushProtocol, CompletesOnStaticGraphWithBoundedMessageRate) {
  AnyNetwork net = make_static(400, 8, 21);
  PushProtocol push(3);
  ProtocolOptions options;
  options.flood.max_steps = 200;
  options.seed = 7;
  const ProtocolResult result = net.disseminate(push, options);

  EXPECT_TRUE(result.trace.completed);
  expect_consistent(result);
  // Every round, each informed node sends at most fanout messages: the
  // total is bounded by fanout * sum_t |I_t| over the recorded rounds.
  std::uint64_t informed_rounds = 0;
  for (const std::uint64_t informed : result.trace.informed_per_step) {
    informed_rounds += informed;
  }
  EXPECT_LE(result.stats.messages_sent, 3 * informed_rounds);
  EXPECT_GT(result.stats.duplicate_deliveries, 0u);  // push is oblivious
  EXPECT_EQ(result.stats.overhead_messages, 0u);     // push never probes
}

TEST(PushProtocol, LargerFanoutSpreadsFasterOnAverage) {
  // Not a per-seed guarantee, so compare a few seeds' totals.
  std::uint64_t rounds_k1 = 0;
  std::uint64_t rounds_k4 = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ProtocolOptions options;
    options.flood.max_steps = 400;
    options.seed = seed;
    AnyNetwork net1 = make_static(300, 6, seed);
    PushProtocol push1(1);
    rounds_k1 += net1.disseminate(push1, options).trace.steps;
    AnyNetwork net4 = make_static(300, 6, seed);
    PushProtocol push4(4);
    rounds_k4 += net4.disseminate(push4, options).trace.steps;
  }
  EXPECT_LT(rounds_k4, rounds_k1);
}

TEST(PullProtocol, CompletesOnStaticGraphAndCountsProbes) {
  AnyNetwork net = make_static(400, 8, 22);
  PullProtocol pull(1);
  ProtocolOptions options;
  options.flood.max_steps = 400;
  options.seed = 9;
  const ProtocolResult result = net.disseminate(pull, options);

  EXPECT_TRUE(result.trace.completed);
  expect_consistent(result);
  // Early rounds are dominated by probes that find nothing.
  EXPECT_GT(result.stats.overhead_messages, result.stats.useful_deliveries);
  // Each delivery's receiver is the puller itself and distinct pullers are
  // distinct uninformed nodes, so at fanout 1 every delivery is useful.
  EXPECT_EQ(result.stats.duplicate_deliveries, 0u);
  EXPECT_EQ(result.stats.lost_messages, 0u);
}

TEST(PushPullProtocol, CompletesAndBeatsPushAloneOnRounds) {
  std::uint64_t push_rounds = 0;
  std::uint64_t pushpull_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ProtocolOptions options;
    options.flood.max_steps = 400;
    options.seed = seed + 100;
    AnyNetwork net1 = make_static(300, 6, seed);
    PushProtocol push(1);
    push_rounds += net1.disseminate(push, options).trace.steps;
    AnyNetwork net2 = make_static(300, 6, seed);
    PushPullProtocol pushpull(1);
    const ProtocolResult result = net2.disseminate(pushpull, options);
    pushpull_rounds += result.trace.steps;
    EXPECT_TRUE(result.trace.completed) << seed;
    expect_consistent(result);
  }
  EXPECT_LE(pushpull_rounds, push_rounds);
}

TEST(PushProtocol, SpreadsUnderChurn) {
  AnyNetwork net = make_pdgr(400, 8, 23);
  PushProtocol push(2);
  ProtocolOptions options;
  options.flood.max_steps = 200;
  options.flood.stop_on_die_out = false;
  options.seed = 11;
  const ProtocolResult result = net.disseminate(push, options);
  // PDGR regenerates edges, so PUSH reaches (nearly) everyone despite
  // churn; completion is the discretized all-alive-informed predicate.
  EXPECT_GT(result.stats.final_coverage, 0.9);
  expect_consistent(result);
}

TEST(TtlProtocol, ZeroTtlNeverSpreadsBeyondTheSources) {
  AnyNetwork net = make_static(200, 6, 24);
  TtlFloodProtocol ttl(0);
  ProtocolOptions options;
  options.flood.max_steps = 50;
  const ProtocolResult result = net.disseminate(ttl, options);
  EXPECT_EQ(result.stats.messages_sent, 0u);
  EXPECT_EQ(result.stats.useful_deliveries, 0u);
  EXPECT_EQ(result.trace.peak_informed, 1u);
  EXPECT_FALSE(result.trace.completed);
  // Frontier-driven + churn-free: the driver stops at the fixed point
  // instead of burning max_steps.
  EXPECT_LT(result.trace.steps, 50u);
}

TEST(TtlProtocol, HopBoundCapsReachOnStaticGraph) {
  // On a churn-free graph, ttl(h) informs exactly the h-hop BFS ball of
  // the source: compare against the full flood restricted to h steps.
  ScenarioParams params;
  params.n = 300;
  params.d = 3;
  params.seed = 25;
  const Scenario& scenario = ScenarioRegistry::paper().at("static-dout");

  constexpr std::uint32_t kTtl = 3;
  AnyNetwork ttl_net = scenario.make_warmed(params);
  TtlFloodProtocol ttl(kTtl);
  ProtocolOptions ttl_options;
  ttl_options.flood.max_steps = 50;
  const ProtocolResult ttl_result = ttl_net.disseminate(ttl, ttl_options);

  AnyNetwork flood_net = scenario.make_warmed(params);
  FloodProtocol flood;
  ProtocolOptions flood_options;
  flood_options.flood.max_steps = kTtl;  // flood cut at h steps == h hops
  const ProtocolResult flood_result =
      flood_net.disseminate(flood, flood_options);

  EXPECT_EQ(ttl_result.trace.peak_informed,
            flood_result.trace.peak_informed);
  // TTL keeps going but cannot pass the ball boundary.
  EXPECT_LT(ttl_result.trace.final_fraction, 1.0);
  EXPECT_FALSE(ttl_result.trace.completed);
}

TEST(LossyProtocol, DropsTheExpectedFractionOfMessages) {
  constexpr double kQ = 0.6;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    AnyNetwork net = make_static(300, 6, seed);
    LossyProtocol lossy(std::make_unique<PushProtocol>(2), kQ);
    ProtocolOptions options;
    options.flood.max_steps = 60;
    options.seed = seed;
    const ProtocolResult result = net.disseminate(lossy, options);
    expect_consistent(result);
    sent += result.stats.messages_sent;
    lost += result.stats.lost_messages;
  }
  ASSERT_GT(sent, 1000u);
  const double loss_rate = static_cast<double>(lost) /
                           static_cast<double>(sent);
  // Binomial(sent, 0.4) concentrates tightly at this sample size.
  EXPECT_NEAR(loss_rate, 1.0 - kQ, 0.05);
}

TEST(LossyProtocol, SlowsFloodingWithoutChangingTheNetwork) {
  ScenarioParams params;
  params.n = 400;
  params.d = 6;
  params.seed = 26;
  const Scenario& scenario = ScenarioRegistry::paper().at("SDGR");

  AnyNetwork clean_net = scenario.make_warmed(params);
  FloodProtocol flood;
  const ProtocolResult clean = clean_net.disseminate(flood);

  AnyNetwork lossy_net = scenario.make_warmed(params);
  LossyProtocol lossy(std::make_unique<FloodProtocol>(), 0.5);
  ProtocolOptions options;
  options.seed = 3;
  const ProtocolResult dropped = lossy_net.disseminate(lossy, options);

  ASSERT_TRUE(clean.trace.completed);
  EXPECT_GT(dropped.stats.lost_messages, 0u);
  // Flooding retries every boundary edge each step, so it still finishes,
  // just later.
  EXPECT_TRUE(dropped.trace.completed);
  EXPECT_GE(dropped.trace.completion_step, clean.trace.completion_step);
  // Protocol randomness never touches the network stream: both runs saw
  // the same streaming schedule (exactly one birth per round), the lossy
  // one just ran longer.
  EXPECT_EQ(lossy_net.graph().total_births() -
                clean_net.graph().total_births(),
            dropped.trace.steps - clean.trace.steps);
}

TEST(Dissemination, MultiSourceStartsSeedTheInformedSet) {
  AnyNetwork net = make_static(200, 4, 27);
  FloodProtocol flood;
  ProtocolOptions options;
  options.sources = 5;
  options.seed = 13;
  const ProtocolResult result = net.disseminate(flood, options);
  ASSERT_FALSE(result.trace.informed_per_step.empty());
  EXPECT_EQ(result.trace.informed_per_step[0], 5u);
  expect_consistent(result, 5);
  EXPECT_TRUE(result.trace.completed);
}

TEST(Dissemination, SourceCountIsCappedAtAliveCount) {
  AnyNetwork net = make_static(30, 3, 28);
  FloodProtocol flood;
  ProtocolOptions options;
  options.sources = 1000;  // > n: everyone starts informed
  options.seed = 14;
  const ProtocolResult result = net.disseminate(flood, options);
  ASSERT_FALSE(result.trace.informed_per_step.empty());
  EXPECT_EQ(result.trace.informed_per_step[0], 30u);
  EXPECT_TRUE(result.trace.completed);
  EXPECT_EQ(result.trace.completion_step, 1u);
}

TEST(Dissemination, MultiSourceFloodCompletesFasterUnderChurn) {
  std::uint64_t single = 0;
  std::uint64_t multi = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ScenarioParams params;
    params.n = 400;
    params.d = 4;
    params.seed = seed;
    const Scenario& scenario = ScenarioRegistry::paper().at("PDGR");
    AnyNetwork net1 = scenario.make_warmed(params);
    FloodProtocol flood1;
    single += net1.disseminate(flood1).trace.steps;
    AnyNetwork net2 = scenario.make_warmed(params);
    FloodProtocol flood2;
    ProtocolOptions options;
    options.sources = 16;
    options.seed = seed;
    multi += net2.disseminate(flood2, options).trace.steps;
  }
  EXPECT_LE(multi, single);
}

TEST(Dissemination, GossipTerminatesOnDisconnectedChurnFreeNetworks) {
  // A sparse Erdos-Renyi draw is disconnected: gossip saturates the
  // source's component and can never complete. The driver must detect the
  // exhausted boundary on an idle round and stop — not burn max_steps.
  ScenarioParams params;
  params.n = 300;
  params.d = 1;  // p = 2/n: many isolated nodes, far below connectivity
  params.seed = 33;
  const Scenario& scenario = ScenarioRegistry::paper().at("erdos-renyi");
  for (const char* spec_text : {"push(2)", "pull(1)", "push-pull(1)"}) {
    AnyNetwork net = scenario.make_warmed(params);
    const auto protocol = make_protocol(*ProtocolSpec::parse(spec_text));
    ProtocolOptions options;
    options.flood.max_steps = 100000;
    options.seed = 17;
    const ProtocolResult result = net.disseminate(*protocol, options);
    EXPECT_FALSE(result.trace.completed) << spec_text;
    EXPECT_LT(result.trace.final_fraction, 1.0) << spec_text;
    EXPECT_LT(result.trace.steps, 5000u) << spec_text;  // break fired
  }
}

TEST(Dissemination, ProtocolRunsAreSeedDeterministic) {
  // Same (network seed, protocol seed) => identical run; different
  // protocol seed => (almost surely) different gossip choices.
  const auto run = [](std::uint64_t protocol_seed) {
    AnyNetwork net = make_pdgr(300, 6, 31);
    PushProtocol push(2);
    ProtocolOptions options;
    options.flood.max_steps = 80;
    options.seed = protocol_seed;
    return net.disseminate(push, options);
  };
  const ProtocolResult a = run(5);
  const ProtocolResult b = run(5);
  EXPECT_EQ(a.trace.informed_per_step, b.trace.informed_per_step);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.duplicate_deliveries, b.stats.duplicate_deliveries);

  const ProtocolResult c = run(6);
  EXPECT_NE(a.trace.informed_per_step, c.trace.informed_per_step);
}

TEST(Dissemination, MakeProtocolBuildsTheSpecdProtocol) {
  const auto flood = make_protocol(*ProtocolSpec::parse("flood"));
  EXPECT_EQ(flood->name(), "flood");
  EXPECT_EQ(flood->candidates(), Candidates::kSlotSet);

  const auto push = make_protocol(*ProtocolSpec::parse("push(3)"));
  EXPECT_EQ(push->name(), "push(3)");
  EXPECT_EQ(push->candidates(), Candidates::kEvery);

  const auto lossy =
      make_protocol(*ProtocolSpec::parse("ttl(4)+lossy(0.8)"));
  EXPECT_EQ(lossy->name(), "ttl(4)+lossy(0.80)");
  EXPECT_DOUBLE_EQ(lossy->delivery_probability(), 0.8);
  EXPECT_EQ(lossy->candidates(), Candidates::kFirstPerReceiver);
  // A lossy link needs one coin per send, so flood leaves the slot set.
  EXPECT_EQ(make_protocol(*ProtocolSpec::parse("flood+lossy(0.5)"))
                ->candidates(),
            Candidates::kFirstPerReceiver);

  // sources is a driver option: protocol_options forwards it.
  const auto spec = *ProtocolSpec::parse("push-pull(2)+sources(4)");
  const ProtocolOptions options = protocol_options(spec, 99);
  EXPECT_EQ(options.sources, 4u);
  EXPECT_EQ(options.seed, 99u);
  EXPECT_EQ(make_protocol(spec)->name(), "push-pull(2)");
}

}  // namespace
}  // namespace churnet
