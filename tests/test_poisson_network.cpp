// Tests for models/poisson_network.hpp: PDG (Def. 4.9) and PDGR (Def. 4.14)
// semantics, Lemma 4.4 size concentration, exponential lifetimes, and the
// run_until event machinery the flooding drivers rely on.
#include "models/poisson_network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "benchutil/experiment.hpp"
#include "common/stats.hpp"

namespace churnet {
namespace {

TEST(PoissonConfig, WithNSetsPaperParameters) {
  const PoissonConfig config =
      PoissonConfig::with_n(500, 7, EdgePolicy::kRegenerate, 9);
  EXPECT_DOUBLE_EQ(config.lambda, 1.0);
  EXPECT_DOUBLE_EQ(config.mu, 1.0 / 500.0);
  EXPECT_EQ(config.d, 7u);
  EXPECT_EQ(config.policy, EdgePolicy::kRegenerate);
  EXPECT_DOUBLE_EQ(config.expected_size(), 500.0);
}

TEST(PoissonNetwork, StartsEmptyAndGrows) {
  PoissonNetwork net(PoissonConfig::with_n(100, 3, EdgePolicy::kNone, 1));
  EXPECT_EQ(net.graph().alive_count(), 0u);
  net.run_until(50.0);
  EXPECT_GT(net.graph().alive_count(), 20u);
  EXPECT_DOUBLE_EQ(net.now(), 50.0);
}

TEST(PoissonNetwork, Lemma44SizeConcentration) {
  // After warm-up (t >= 3n), |N_t| should be within [0.9n, 1.1n] nearly
  // always (paper Lemma 4.4).
  constexpr std::uint32_t kN = 2000;
  PoissonNetwork net(PoissonConfig::with_n(kN, 2, EdgePolicy::kNone, 2));
  net.warm_up(4.0);
  int in_band = 0;
  constexpr int kSamples = 200;
  for (int i = 0; i < kSamples; ++i) {
    net.run_until(net.now() + kN / 50.0);
    const double size = net.graph().alive_count();
    in_band += (size >= 0.9 * kN && size <= 1.1 * kN) ? 1 : 0;
  }
  EXPECT_GE(in_band, kSamples - 2);
}

TEST(PoissonNetwork, LifetimesAreExponentialWithMeanN) {
  constexpr std::uint32_t kN = 400;
  PoissonNetwork net(PoissonConfig::with_n(kN, 1, EdgePolicy::kNone, 3));
  OnlineStats lifetimes;
  // Every death up to the warm_up(30) horizon, timed against a birth-time
  // table indexed by slot (a slot's occupant is born after its last death).
  const double horizon = net.churn().warm_up_time(30.0);
  std::vector<double> birth_time;
  for (;;) {
    const auto event = net.step();
    if (event.time > horizon) break;
    if (event.kind == ChurnEvent::Kind::kBirth) {
      if (birth_time.size() <= event.node.slot) {
        birth_time.resize(event.node.slot + 1);
      }
      birth_time[event.node.slot] = event.time;
    } else {
      lifetimes.add(event.time - birth_time[event.node.slot]);
    }
  }
  ASSERT_GT(lifetimes.count(), 5000u);
  // Mean lifetime 1/mu = n; exponential => stddev == mean.
  EXPECT_NEAR(lifetimes.mean(), kN, 0.06 * kN);
  EXPECT_NEAR(lifetimes.stddev(), kN, 0.08 * kN);
}

TEST(PoissonNetwork, BirthsArePoissonRateOne) {
  PoissonNetwork net(PoissonConfig::with_n(300, 1, EdgePolicy::kNone, 4));
  net.warm_up(3.0);
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  const double horizon = 5000.0;
  net.run_until(net.now() + horizon);
  net.attach_change_feed(nullptr);
  const auto births = std::count_if(
      feed.deltas().begin(), feed.deltas().end(), [](const GraphDelta& delta) {
        return delta.kind == GraphDelta::Kind::kBirth;
      });
  // Poisson(5000): 6 sigma ~ 425.
  EXPECT_NEAR(static_cast<double>(births), horizon, 450.0);
}

TEST(PoissonNetwork, NewbornWiresDRequests) {
  PoissonNetwork net(PoissonConfig::with_n(200, 6, EdgePolicy::kNone, 5));
  net.warm_up(2.0);
  for (int checked = 0; checked < 50;) {
    const auto event = net.step();
    if (event.kind != ChurnEvent::Kind::kBirth) continue;
    EXPECT_EQ(net.graph().out_degree(event.node), 6u);
    for (std::uint32_t k = 0; k < 6; ++k) {
      EXPECT_NE(net.graph().out_target(event.node, k), event.node);
    }
    ++checked;
  }
}

TEST(PoissonNetwork, GraphConsistentUnderBothPolicies) {
  for (const EdgePolicy policy :
       {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    PoissonNetwork net(PoissonConfig::with_n(150, 4, policy, 6));
    net.warm_up(5.0);
    EXPECT_TRUE(net.graph().check_consistency());
    net.run_events(5000);
    EXPECT_TRUE(net.graph().check_consistency());
  }
}

TEST(PoissonNetworkPdgr, OutDegreeDForNearlyAllNodes) {
  // Under regeneration every node wired at birth keeps out-degree d; only
  // nodes born into a near-empty network (the founders) may lag, and they
  // die out exponentially fast.
  PoissonNetwork net(PoissonConfig::with_n(500, 5, EdgePolicy::kRegenerate, 7));
  net.warm_up(12.0);
  std::uint64_t deficient = 0;
  for (const NodeId node : net.graph().alive_nodes()) {
    deficient += net.graph().out_degree(node) < 5 ? 1 : 0;
  }
  const double fraction = static_cast<double>(deficient) /
                          static_cast<double>(net.graph().alive_count());
  EXPECT_LT(fraction, 0.01);
}

TEST(PoissonNetworkPdgr, EdgeCountTracksAliveCount) {
  PoissonNetwork net(PoissonConfig::with_n(400, 3, EdgePolicy::kRegenerate, 8));
  net.warm_up(12.0);
  // Nearly every alive node contributes exactly d out-edges.
  const double edges = static_cast<double>(net.graph().edge_count());
  const double expected = 3.0 * static_cast<double>(net.graph().alive_count());
  EXPECT_NEAR(edges / expected, 1.0, 0.02);
}

TEST(PoissonNetworkPdg, OutDegreeOnlyDecays) {
  PoissonNetwork net(PoissonConfig::with_n(200, 5, EdgePolicy::kNone, 9));
  net.warm_up(3.0);
  // Track one newborn; its out-degree must never increase.
  NodeId tracked = kInvalidNode;
  while (!tracked.valid()) {
    const auto event = net.step();
    if (event.kind == ChurnEvent::Kind::kBirth) tracked = event.node;
  }
  std::uint32_t last = net.graph().out_degree(tracked);
  for (int i = 0; i < 2000 && net.graph().is_alive(tracked); ++i) {
    net.step();
    if (!net.graph().is_alive(tracked)) break;
    const std::uint32_t out = net.graph().out_degree(tracked);
    EXPECT_LE(out, last);
    last = out;
  }
}

TEST(PoissonNetwork, RunUntilParksClockExactly) {
  PoissonNetwork net(PoissonConfig::with_n(100, 2, EdgePolicy::kNone, 10));
  net.run_until(123.5);
  EXPECT_DOUBLE_EQ(net.now(), 123.5);
  // The pending event (sampled past the barrier) must execute afterwards
  // with a strictly later timestamp.
  const auto event = net.step();
  EXPECT_GT(event.time, 123.5);
}

TEST(PoissonNetwork, RunUntilDoesNotSkipEvents) {
  // Splitting a horizon into many run_until barriers must execute the same
  // number of events as one big barrier with the same seed.
  const auto config = PoissonConfig::with_n(150, 2, EdgePolicy::kNone, 13);
  PoissonNetwork fine(config);
  PoissonNetwork coarse(config);
  for (int i = 1; i <= 100; ++i) {
    fine.run_until(static_cast<double>(i) * 7.3);
  }
  coarse.run_until(100 * 7.3);
  EXPECT_EQ(fine.event_count(), coarse.event_count());
  EXPECT_EQ(fine.graph().alive_count(), coarse.graph().alive_count());
}

TEST(PoissonNetwork, DeterministicForSeed) {
  const auto config = PoissonConfig::with_n(80, 3, EdgePolicy::kRegenerate, 14);
  PoissonNetwork a(config);
  PoissonNetwork b(config);
  a.run_events(3000);
  b.run_events(3000);
  EXPECT_DOUBLE_EQ(a.now(), b.now());
  EXPECT_EQ(a.graph().alive_count(), b.graph().alive_count());
  EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
}

TEST(PoissonNetwork, AgeIsNowMinusBirth) {
  PoissonNetwork net(PoissonConfig::with_n(50, 1, EdgePolicy::kNone, 15));
  net.warm_up(1.0);
  NodeId tracked = kInvalidNode;
  double born_at = 0.0;
  while (!tracked.valid()) {
    const auto event = net.step();
    if (event.kind == ChurnEvent::Kind::kBirth) {
      tracked = event.node;
      born_at = event.time;
    }
  }
  net.run_until(born_at + 17.25);
  if (net.graph().is_alive(tracked)) {
    EXPECT_DOUBLE_EQ(net.age(tracked), 17.25);
  }
}

TEST(PoissonNetwork, DeathVictimIsUniform) {
  // Deaths pick a uniform alive node; across many death events, the victim
  // age distribution must match the alive-age distribution (memorylessness),
  // not be biased toward old or young. We check the simplest consequence:
  // P(victim is in the younger half by birth order) ~ 1/2.
  PoissonNetwork net(PoissonConfig::with_n(300, 1, EdgePolicy::kNone, 16));
  net.warm_up(5.0);
  std::uint64_t younger_half = 0;
  std::uint64_t deaths = 0;
  std::vector<std::uint64_t> seq_by_slot;
  for (int event = 0; event < 4000; ++event) {
    // Median birth_seq over the alive set the next event's victim (if it
    // is a death) is drawn from.
    std::vector<std::uint64_t> seqs;
    for (const NodeId node : net.graph().alive_nodes()) {
      seqs.push_back(net.graph().birth_seq(node));
      if (seq_by_slot.size() <= node.slot) seq_by_slot.resize(node.slot + 1);
      seq_by_slot[node.slot] = seqs.back();
    }
    std::nth_element(seqs.begin(), seqs.begin() + seqs.size() / 2,
                     seqs.end());
    const std::uint64_t median_seq = seqs[seqs.size() / 2];
    const auto report = net.step();
    if (report.kind != ChurnEvent::Kind::kDeath) continue;
    younger_half += seq_by_slot[report.node.slot] > median_seq ? 1 : 0;
    ++deaths;
  }
  ASSERT_GT(deaths, 1000u);
  EXPECT_NEAR(static_cast<double>(younger_half) / static_cast<double>(deaths),
              0.5, 0.05);
}

}  // namespace
}  // namespace churnet
