// Cross-module integration tests: churn -> models -> snapshots ->
// flooding/expansion pipelines for all four paper models and the static
// baselines, exercised end to end.
#include <gtest/gtest.h>

#include <cmath>

#include "churnet/churnet.hpp"

namespace churnet {
namespace {

TEST(Integration, SdgFullPipeline) {
  StreamingConfig config;
  config.n = 400;
  config.d = 8;
  config.policy = EdgePolicy::kNone;
  config.seed = 1;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(400);

  const Snapshot snap = net.snapshot();
  EXPECT_EQ(snap.node_count(), 400u);
  const DegreeStats degrees = degree_stats(snap);
  EXPECT_NEAR(degrees.mean, 8.0, 1.0);

  // The flood reaches most of the largest component quickly.
  FloodOptions options;
  options.max_steps = 50;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_GT(trace.final_fraction, 0.5);
  EXPECT_TRUE(net.graph().check_consistency());
}

TEST(Integration, SdgrFullPipeline) {
  StreamingConfig config;
  config.n = 400;
  config.d = 21;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 2;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(450);

  // Expansion probe on the snapshot (Theorem 3.15 shape).
  Rng probe_rng(3);
  const Snapshot snap = net.snapshot();
  const ProbeResult probe = probe_expansion(snap, probe_rng, {});
  EXPECT_GT(probe.min_ratio, 0.1);

  const FloodTrace trace = flood_dynamic(net);
  EXPECT_TRUE(trace.completed);
  EXPECT_LE(trace.completion_step,
            static_cast<std::uint64_t>(12.0 * std::log2(400.0)));
}

TEST(Integration, PdgFullPipeline) {
  PoissonNetwork net(PoissonConfig::with_n(400, 8, EdgePolicy::kNone, 4));
  net.warm_up(8.0);
  const Snapshot snap = net.snapshot();
  EXPECT_NEAR(static_cast<double>(snap.node_count()), 400.0, 100.0);

  FloodOptions options;
  options.max_steps = 60;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_GT(trace.final_fraction, 0.4);
  EXPECT_TRUE(net.graph().check_consistency());
}

TEST(Integration, PdgrFullPipeline) {
  PoissonNetwork net(
      PoissonConfig::with_n(400, 35, EdgePolicy::kRegenerate, 5));
  net.warm_up(8.0);

  Rng probe_rng(6);
  const ProbeResult probe = probe_expansion(net.snapshot(), probe_rng, {});
  EXPECT_GT(probe.min_ratio, 0.1);

  const FloodTrace discretized = flood_dynamic(net);
  EXPECT_TRUE(discretized.completed);
}

TEST(Integration, ModelsShareAnalysisToolchain) {
  // The same snapshot/expansion/census code must serve all four models and
  // both baselines.
  Rng rng(7);
  std::vector<Snapshot> snapshots;

  StreamingConfig streaming;
  streaming.n = 150;
  streaming.d = 4;
  streaming.seed = 8;
  for (const EdgePolicy policy :
       {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    streaming.policy = policy;
    StreamingNetwork net(streaming);
    net.warm_up();
    snapshots.push_back(net.snapshot());
  }
  for (const EdgePolicy policy :
       {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
    PoissonNetwork net(PoissonConfig::with_n(150, 4, policy, 9));
    net.warm_up(5.0);
    snapshots.push_back(net.snapshot());
  }
  snapshots.push_back(static_dout_snapshot(150, 4, rng));
  snapshots.push_back(erdos_renyi_snapshot(150, 8.0 / 150.0, rng));

  for (const Snapshot& snap : snapshots) {
    ASSERT_GT(snap.node_count(), 50u);
    const IsolatedCensus census = isolated_census(snap);
    EXPECT_LE(census.fraction, 0.2);
    const Components comps = connected_components(snap);
    EXPECT_GE(comps.largest_size, snap.node_count() / 2);
    const ProbeResult probe = probe_expansion(snap, rng, {});
    EXPECT_GE(probe.min_ratio, 0.0);
  }
}

TEST(Integration, RepeatedFloodsOnSameNetworkAreIndependent) {
  // Driver hooks must compose: several floods in sequence on one network.
  StreamingConfig config;
  config.n = 200;
  config.d = 21;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = 12;
  StreamingNetwork net(config);
  net.warm_up();
  for (int i = 0; i < 5; ++i) {
    const FloodTrace trace = flood_dynamic(net);
    EXPECT_TRUE(trace.completed);
  }
  EXPECT_TRUE(net.graph().check_consistency());
}

TEST(Integration, LongHorizonStabilityAllModels) {
  // Many churn events without structural drift: sizes stay sane, graphs
  // stay consistent, no slot-reuse aliasing.
  StreamingConfig streaming;
  streaming.n = 100;
  streaming.d = 5;
  streaming.policy = EdgePolicy::kRegenerate;
  streaming.seed = 13;
  StreamingNetwork snet(streaming);
  snet.warm_up();
  snet.run_rounds(5000);
  EXPECT_EQ(snet.graph().alive_count(), 100u);
  EXPECT_TRUE(snet.graph().check_consistency());

  PoissonNetwork pnet(
      PoissonConfig::with_n(100, 5, EdgePolicy::kRegenerate, 14));
  pnet.warm_up(50.0);
  EXPECT_GT(pnet.graph().alive_count(), 40u);
  EXPECT_LT(pnet.graph().alive_count(), 180u);
  EXPECT_TRUE(pnet.graph().check_consistency());
}

}  // namespace
}  // namespace churnet
