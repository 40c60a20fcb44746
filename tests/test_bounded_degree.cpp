// Tests for the bounded-degree extension (paper Section 5 open question):
// an in-degree cap enforced by redrawing requests, available in both
// models via config.max_in_degree.
#include <gtest/gtest.h>

#include <cmath>

#include "benchutil/experiment.hpp"
#include "churnet/churnet.hpp"

namespace churnet {
namespace {

TEST(BoundedDegree, StreamingInDegreeNeverExceedsCap) {
  StreamingConfig config;
  config.n = 300;
  config.d = 6;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 1;
  config.max_in_degree = 10;
  StreamingNetwork net(config);
  net.warm_up();
  for (int i = 0; i < 200; ++i) {
    net.step();
    for (const NodeId node : net.graph().alive_nodes()) {
      ASSERT_LE(net.graph().in_degree(node), 10u);
    }
  }
}

TEST(BoundedDegree, PoissonInDegreeNeverExceedsCap) {
  PoissonConfig config = PoissonConfig::with_n(300, 6,
                                               EdgePolicy::kRegenerate, 2);
  config.max_in_degree = 12;
  PoissonNetwork net(config);
  net.warm_up(8.0);
  for (const NodeId node : net.graph().alive_nodes()) {
    ASSERT_LE(net.graph().in_degree(node), 12u);
  }
  net.run_events(3000);
  for (const NodeId node : net.graph().alive_nodes()) {
    ASSERT_LE(net.graph().in_degree(node), 12u);
  }
}

TEST(BoundedDegree, TotalDegreeIsBounded) {
  // Total degree <= d + cap: the bounded-degree snapshots the paper's
  // Section 5 asks for.
  StreamingConfig config;
  config.n = 400;
  config.d = 4;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 3;
  config.max_in_degree = 8;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(100);
  const DegreeStats stats = degree_stats(net.snapshot());
  EXPECT_LE(stats.max, 4u + 8u);
}

TEST(BoundedDegree, ZeroCapReproducesPaperModel) {
  // max_in_degree = 0 must leave the request stream identical to the
  // unbounded model (same seed, same topology).
  StreamingConfig with_zero;
  with_zero.n = 200;
  with_zero.d = 5;
  with_zero.policy = EdgePolicy::kRegenerate;
  with_zero.seed = 4;
  with_zero.max_in_degree = 0;
  StreamingConfig plain = with_zero;
  StreamingNetwork a(with_zero);
  StreamingNetwork b(plain);
  a.warm_up();
  b.warm_up();
  EXPECT_EQ(a.graph().edge_count(), b.graph().edge_count());
  // Spot-check identical wiring on a sample of nodes.
  const auto nodes_a = a.graph().alive_nodes();
  const auto nodes_b = b.graph().alive_nodes();
  ASSERT_EQ(nodes_a.size(), nodes_b.size());
  for (std::size_t i = 0; i < nodes_a.size(); i += 17) {
    for (std::uint32_t k = 0; k < 5; ++k) {
      EXPECT_EQ(a.graph().out_target(nodes_a[i], k),
                b.graph().out_target(nodes_b[i], k));
    }
  }
}

TEST(BoundedDegree, OutDegreeStaysNearlyFullWithLooseCap) {
  // With cap = 3d the redraws almost never fail: out-degrees stay full.
  PoissonConfig config = PoissonConfig::with_n(500, 5,
                                               EdgePolicy::kRegenerate, 5);
  config.max_in_degree = 15;
  PoissonNetwork net(config);
  net.warm_up(10.0);
  std::uint64_t deficient = 0;
  for (const NodeId node : net.graph().alive_nodes()) {
    deficient += net.graph().out_degree(node) < 5 ? 1 : 0;
  }
  EXPECT_LT(static_cast<double>(deficient),
            0.02 * static_cast<double>(net.graph().alive_count()) + 1.0);
}

TEST(BoundedDegree, TightCapLeavesSomeRequestsDangling) {
  // cap == d is tight: the mean in-degree equals d, so full nodes are
  // common and some requests cannot be placed. The network must stay
  // consistent regardless.
  PoissonConfig config = PoissonConfig::with_n(400, 6,
                                               EdgePolicy::kRegenerate, 6);
  config.max_in_degree = 6;
  PoissonNetwork net(config);
  net.warm_up(8.0);
  EXPECT_TRUE(net.graph().check_consistency());
  std::uint64_t dangling = 0;
  for (const NodeId node : net.graph().alive_nodes()) {
    dangling += 6 - net.graph().out_degree(node);
  }
  EXPECT_GT(dangling, 0u);
}

TEST(BoundedDegree, ExpansionSurvivesModerateCap) {
  // The empirical answer to the paper's Section 5 question at test scale:
  // capping in-degrees at 2d keeps the regenerating snapshot an expander.
  StreamingConfig config;
  config.n = 2000;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 7;
  config.max_in_degree = 16;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(500);
  Rng probe_rng(8);
  const ProbeResult probe = probe_expansion(net.snapshot(), probe_rng, {});
  EXPECT_GT(probe.min_ratio, 0.1);
}

TEST(BoundedDegree, FloodingStillCompletes) {
  int completions = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    StreamingConfig config;
    config.n = 400;
    config.d = 21;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = derive_seed(9, 0, rep);
    config.max_in_degree = 42;
    StreamingNetwork net(config);
    net.warm_up();
    FloodOptions options;
    options.max_steps = static_cast<std::uint64_t>(
        12.0 * std::log2(400.0));
    completions += flood_dynamic(net, options).completed ? 1 : 0;
  }
  EXPECT_EQ(completions, 5);
}

TEST(BoundedDegree, MaxDegreeContrastAgainstUnbounded) {
  // The unbounded SDGR grows Theta(log n) maximum degree; the capped model
  // pins it at d + cap.
  StreamingConfig config;
  config.n = 3000;
  config.d = 8;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 10;
  StreamingNetwork unbounded(config);
  unbounded.warm_up();
  config.max_in_degree = 16;
  config.seed = 11;
  StreamingNetwork capped(config);
  capped.warm_up();
  const DegreeStats unbounded_stats = degree_stats(unbounded.snapshot());
  const DegreeStats capped_stats = degree_stats(capped.snapshot());
  EXPECT_LE(capped_stats.max, 24u);
  EXPECT_GT(unbounded_stats.max, capped_stats.max);
}

}  // namespace
}  // namespace churnet
