// Tests for models/streaming_network.hpp: SDG (Def. 3.4) and SDGR
// (Def. 3.13) semantics, including the paper's preliminary lemmas:
// Lemma 6.1 (expected degree d) and Lemma 3.14 (edge destination
// probabilities under regeneration).
#include "models/streaming_network.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "benchutil/experiment.hpp"

namespace churnet {
namespace {

StreamingConfig make_config(std::uint32_t n, std::uint32_t d,
                            EdgePolicy policy, std::uint64_t seed) {
  StreamingConfig config;
  config.n = n;
  config.d = d;
  config.policy = policy;
  config.seed = seed;
  return config;
}

TEST(StreamingNetwork, WarmUpReachesExactlyN) {
  StreamingNetwork net(make_config(50, 3, EdgePolicy::kNone, 1));
  net.warm_up();
  EXPECT_EQ(net.graph().alive_count(), 50u);
  // Two full generations: founders born into a partially filled network
  // have died out; the wiring is stationary.
  EXPECT_EQ(net.round(), 100u);
}

TEST(StreamingNetwork, SizePinnedAtNAfterWarmUp) {
  StreamingNetwork net(make_config(30, 3, EdgePolicy::kNone, 2));
  net.warm_up();
  for (int i = 0; i < 100; ++i) {
    net.step();
    EXPECT_EQ(net.graph().alive_count(), 30u);
  }
}

TEST(StreamingNetwork, AgesAreExactlyZeroToNMinusOne) {
  StreamingNetwork net(make_config(20, 2, EdgePolicy::kNone, 3));
  net.warm_up();
  net.run_rounds(15);
  std::vector<bool> seen(20, false);
  for (const NodeId node : net.graph().alive_nodes()) {
    const std::uint64_t age = net.age(node);
    ASSERT_LT(age, 20u);
    EXPECT_FALSE(seen[age]) << "duplicate age " << age;
    seen[age] = true;
  }
}

TEST(StreamingNetwork, OldestDiesEachRound) {
  StreamingNetwork net(make_config(10, 2, EdgePolicy::kNone, 4));
  net.warm_up();
  for (int i = 0; i < 30; ++i) {
    // Identify the oldest node before stepping.
    NodeId oldest = kInvalidNode;
    std::uint64_t best_age = 0;
    for (const NodeId node : net.graph().alive_nodes()) {
      if (!oldest.valid() || net.age(node) > best_age) {
        oldest = node;
        best_age = net.age(node);
      }
    }
    const auto report = net.step();
    ASSERT_TRUE(report.died.has_value());
    EXPECT_EQ(*report.died, oldest);
    EXPECT_EQ(best_age, 9u);
  }
}

TEST(StreamingNetwork, NewbornHasDOutEdges) {
  StreamingNetwork net(make_config(40, 5, EdgePolicy::kNone, 5));
  net.warm_up();
  for (int i = 0; i < 20; ++i) {
    const auto report = net.step();
    EXPECT_EQ(net.graph().out_degree(report.born), 5u);
    // All targets are distinct from the newborn and alive.
    for (std::uint32_t k = 0; k < 5; ++k) {
      const NodeId target = net.graph().out_target(report.born, k);
      ASSERT_TRUE(target.valid());
      EXPECT_NE(target, report.born);
      EXPECT_TRUE(net.graph().is_alive(target));
    }
  }
}

TEST(StreamingNetwork, FirstNodeHasNoTargets) {
  StreamingNetwork net(make_config(10, 3, EdgePolicy::kNone, 6));
  const auto report = net.step();
  EXPECT_EQ(net.graph().out_degree(report.born), 0u);
  EXPECT_EQ(net.graph().out_slot_count(report.born), 3u);
}

TEST(StreamingNetwork, GraphStaysConsistentUnderChurn) {
  for (const EdgePolicy policy :
       {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    StreamingNetwork net(make_config(60, 4, policy, 7));
    net.warm_up();
    net.run_rounds(200);
    EXPECT_TRUE(net.graph().check_consistency());
  }
}

TEST(StreamingNetworkSdg, EdgesOnlyDisappear) {
  // Without regeneration, a surviving node's out-degree never grows.
  StreamingNetwork net(make_config(50, 4, EdgePolicy::kNone, 8));
  net.warm_up();
  const auto report = net.step();
  const NodeId tracked = report.born;
  std::uint32_t last_out = net.graph().out_degree(tracked);
  for (int i = 0; i < 49 && net.graph().is_alive(tracked); ++i) {
    net.step();
    if (!net.graph().is_alive(tracked)) break;
    const std::uint32_t out = net.graph().out_degree(tracked);
    EXPECT_LE(out, last_out);
    last_out = out;
  }
}

TEST(StreamingNetworkSdg, Lemma61ExpectedDegreeIsD) {
  // Lemma 6.1: in the stationary SDG every node has expected total degree d.
  constexpr std::uint32_t kN = 300;
  constexpr std::uint32_t kD = 6;
  double degree_sum = 0.0;
  std::uint64_t samples = 0;
  for (std::uint64_t rep = 0; rep < 20; ++rep) {
    StreamingNetwork net(
        make_config(kN, kD, EdgePolicy::kNone, derive_seed(9, 0, rep)));
    net.warm_up();
    net.run_rounds(kN);  // let the founders (with partial wiring) die out
    for (const NodeId node : net.graph().alive_nodes()) {
      degree_sum += net.graph().degree(node);
      ++samples;
    }
  }
  EXPECT_NEAR(degree_sum / static_cast<double>(samples), kD, 0.15);
}

TEST(StreamingNetworkSdg, DegreeBalancedAcrossAges) {
  // Old nodes have fewer out-edges but more in-edges; the mean total degree
  // stays ~d in every age quartile (the balance behind Lemma 6.1).
  constexpr std::uint32_t kN = 400;
  constexpr std::uint32_t kD = 8;
  double bucket_sum[4] = {0, 0, 0, 0};
  std::uint64_t bucket_count[4] = {0, 0, 0, 0};
  for (std::uint64_t rep = 0; rep < 30; ++rep) {
    StreamingNetwork net(
        make_config(kN, kD, EdgePolicy::kNone, derive_seed(10, 0, rep)));
    net.warm_up();
    net.run_rounds(kN);
    for (const NodeId node : net.graph().alive_nodes()) {
      const auto bucket = std::min<std::uint64_t>(3, net.age(node) * 4 / kN);
      bucket_sum[bucket] += net.graph().degree(node);
      ++bucket_count[bucket];
    }
  }
  for (int b = 0; b < 4; ++b) {
    const double mean =
        bucket_sum[b] / static_cast<double>(bucket_count[b]);
    EXPECT_NEAR(mean, kD, 0.4) << "age quartile " << b;
  }
}

TEST(StreamingNetworkSdgr, OutDegreeAlwaysDInSteadyState) {
  // With regeneration, every node wired at birth keeps out-degree d.
  StreamingNetwork net(make_config(50, 5, EdgePolicy::kRegenerate, 11));
  net.warm_up();
  net.run_rounds(55);  // founders born into a small network have died
  for (int i = 0; i < 100; ++i) {
    net.step();
    for (const NodeId node : net.graph().alive_nodes()) {
      EXPECT_EQ(net.graph().out_degree(node), 5u);
    }
  }
}

TEST(StreamingNetworkSdgr, EdgeCountIsExactlyND) {
  StreamingNetwork net(make_config(80, 3, EdgePolicy::kRegenerate, 12));
  net.warm_up();
  net.run_rounds(85);
  EXPECT_EQ(net.graph().edge_count(), 80u * 3u);
}

struct EdgeSetCounts {
  std::uint64_t initial = 0;      // kEdgeSet owned by the round's newborn
  std::uint64_t regenerated = 0;  // kEdgeSet owned by anyone else
};

/// Steps `net` for `rounds` rounds with a change feed attached and counts
/// its kEdgeSet deltas: birth wiring sets the newborn's out-slots, and
/// regeneration redraws the out-slots of older nodes.
EdgeSetCounts count_edge_sets(StreamingNetwork& net, std::uint64_t rounds) {
  EdgeSetCounts counts;
  ChangeFeed feed;
  net.attach_change_feed(&feed);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    feed.clear();
    const NodeId born = net.step().born;
    for (const GraphDelta& delta : feed.deltas()) {
      if (delta.kind != GraphDelta::Kind::kEdgeSet) continue;
      (delta.node == born ? counts.initial : counts.regenerated) += 1;
    }
  }
  net.attach_change_feed(nullptr);
  return counts;
}

TEST(StreamingNetworkSdgr, RegenerationReportsHookFlag) {
  StreamingNetwork net(make_config(30, 4, EdgePolicy::kRegenerate, 13));
  net.warm_up();
  net.run_rounds(35);
  const EdgeSetCounts counts = count_edge_sets(net, 100);
  EXPECT_EQ(counts.initial, 100u * 4u);
  EXPECT_GT(counts.regenerated, 0u);
}

TEST(StreamingNetworkSdg, NoRegenerationHookEvents) {
  StreamingNetwork net(make_config(30, 4, EdgePolicy::kNone, 14));
  net.warm_up();
  EXPECT_EQ(count_edge_sets(net, 100).regenerated, 0u);
}

TEST(StreamingNetworkSdgr, Lemma314OlderTargetFractionMatchesFormula) {
  // Lemma 3.14: a request of a node of age a points at any FIXED older node
  // with probability (1/(n-1))(1+1/(n-1))^{a-1}; with n-1-a older nodes the
  // expected fraction of a node's d requests pointing to older nodes is
  //   f(a) = (n-1-a)/(n-1) * (1+1/(n-1))^{a-1}.
  constexpr std::uint32_t kN = 200;
  constexpr std::uint32_t kD = 8;
  constexpr int kBuckets = 5;
  double sum[kBuckets] = {};
  double count[kBuckets] = {};
  for (std::uint64_t rep = 0; rep < 120; ++rep) {
    StreamingNetwork net(
        make_config(kN, kD, EdgePolicy::kRegenerate, derive_seed(16, 0, rep)));
    net.warm_up();
    net.run_rounds(kN + static_cast<std::uint64_t>(rep % 7));
    for (const NodeId node : net.graph().alive_nodes()) {
      const std::uint64_t age = net.age(node);
      const std::uint64_t own_seq = net.graph().birth_seq(node);
      std::uint32_t older_targets = 0;
      for (std::uint32_t k = 0; k < kD; ++k) {
        const NodeId target = net.graph().out_target(node, k);
        if (!target.valid()) continue;
        older_targets += net.graph().birth_seq(target) < own_seq ? 1 : 0;
      }
      const auto bucket =
          std::min<std::uint64_t>(kBuckets - 1, age * kBuckets / kN);
      sum[bucket] += static_cast<double>(older_targets) / kD;
      count[bucket] += 1.0;
    }
  }
  for (int b = 0; b < kBuckets; ++b) {
    // Evaluate the formula at the bucket's midpoint age.
    const double a = (static_cast<double>(b) + 0.5) * kN / kBuckets;
    const double expected = (kN - 1.0 - a) / (kN - 1.0) *
                            std::pow(1.0 + 1.0 / (kN - 1.0), a - 1.0);
    const double measured = sum[b] / count[b];
    EXPECT_NEAR(measured, expected, 0.035) << "age bucket " << b;
  }
}

TEST(StreamingNetwork, RoundReportIsAccurate) {
  StreamingNetwork net(make_config(5, 1, EdgePolicy::kNone, 17));
  for (std::uint64_t t = 1; t <= 5; ++t) {
    const auto report = net.step();
    EXPECT_EQ(report.round, t);
    EXPECT_FALSE(report.died.has_value());
    EXPECT_TRUE(net.graph().is_alive(report.born));
  }
  const auto report = net.step();
  EXPECT_TRUE(report.died.has_value());
}

}  // namespace
}  // namespace churnet
