// Parameterized property sweeps over the paper's Table-1 claims at test
// scale. These are the cheap, deterministic cousins of the bench
// experiments: each asserts the *direction* of a paper result across a
// (model, n, d, seed) grid. The benches measure the magnitudes.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "benchutil/experiment.hpp"
#include "churnet/churnet.hpp"

namespace churnet {
namespace {

struct SweepParam {
  std::uint32_t n;
  std::uint32_t d;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  return "n" + std::to_string(info.param.n) + "_d" +
         std::to_string(info.param.d) + "_s" +
         std::to_string(info.param.seed);
}

// ---- streaming sweeps ----------------------------------------------------

class StreamingSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StreamingSweep, SdgrOutDegreeInvariant) {
  const auto [n, d, seed] = std::tuple{GetParam().n, GetParam().d,
                                       GetParam().seed};
  StreamingConfig config;
  config.n = n;
  config.d = d;
  config.policy = EdgePolicy::kRegenerate;
  config.seed = seed;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(n + 10);
  for (const NodeId node : net.graph().alive_nodes()) {
    ASSERT_EQ(net.graph().out_degree(node), d);
  }
  EXPECT_EQ(net.graph().edge_count(),
            static_cast<std::uint64_t>(n) * d);
}

TEST_P(StreamingSweep, SdgDegreeMassBalance) {
  // In SDG the total degree equals twice the surviving request edges, and
  // the mean is close to d (Lemma 6.1).
  const SweepParam param = GetParam();
  StreamingConfig config;
  config.n = param.n;
  config.d = param.d;
  config.policy = EdgePolicy::kNone;
  config.seed = param.seed;
  StreamingNetwork net(config);
  net.warm_up();
  net.run_rounds(param.n + 10);
  const Snapshot snap = net.snapshot();
  const DegreeStats stats = degree_stats(snap);
  EXPECT_NEAR(stats.mean, param.d, 0.25 * param.d + 0.5);
  EXPECT_DOUBLE_EQ(
      stats.mean * snap.node_count(),
      2.0 * static_cast<double>(snap.edge_count()));
}

TEST_P(StreamingSweep, FloodMonotoneCoverageSdgr) {
  const SweepParam param = GetParam();
  StreamingConfig config;
  config.n = param.n;
  config.d = std::max(21u, param.d);
  config.policy = EdgePolicy::kRegenerate;
  config.seed = param.seed;
  StreamingNetwork net(config);
  net.warm_up();
  const FloodTrace trace = flood_dynamic(net);
  ASSERT_TRUE(trace.completed);
  // Informed counts grow (modulo single deaths) and never exceed alive.
  for (std::size_t t = 0; t < trace.informed_per_step.size(); ++t) {
    EXPECT_LE(trace.informed_per_step[t], trace.alive_per_step[t]);
    if (t > 0) {
      EXPECT_GE(trace.informed_per_step[t] + 1,
                trace.informed_per_step[t - 1]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StreamingSweep,
    ::testing::Values(SweepParam{64, 4, 1}, SweepParam{64, 8, 2},
                      SweepParam{128, 4, 3}, SweepParam{128, 8, 4},
                      SweepParam{256, 6, 5}, SweepParam{256, 12, 6},
                      SweepParam{512, 8, 7}, SweepParam{512, 16, 8}),
    param_name);

// ---- Poisson sweeps --------------------------------------------------------

class PoissonSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PoissonSweep, SizeBandAfterWarmUp) {
  const SweepParam param = GetParam();
  PoissonNetwork net(
      PoissonConfig::with_n(param.n, param.d, EdgePolicy::kNone, param.seed));
  net.warm_up(6.0);
  const double size = net.graph().alive_count();
  // Generous band: Lemma 4.4 gives [0.9n, 1.1n] w.h.p. at large n; small
  // test sizes fluctuate more.
  EXPECT_GT(size, 0.6 * param.n);
  EXPECT_LT(size, 1.4 * param.n);
}

TEST_P(PoissonSweep, PdgrRegenerationKeepsDegreesFull) {
  const SweepParam param = GetParam();
  PoissonNetwork net(PoissonConfig::with_n(param.n, param.d,
                                           EdgePolicy::kRegenerate,
                                           param.seed));
  net.warm_up(10.0);
  std::uint64_t deficient = 0;
  for (const NodeId node : net.graph().alive_nodes()) {
    deficient += net.graph().out_degree(node) < param.d ? 1 : 0;
  }
  EXPECT_LE(static_cast<double>(deficient),
            0.02 * static_cast<double>(net.graph().alive_count()) + 1.0);
}

TEST_P(PoissonSweep, ConsistencyAfterLongRun) {
  const SweepParam param = GetParam();
  PoissonNetwork net(PoissonConfig::with_n(param.n, param.d,
                                           EdgePolicy::kRegenerate,
                                           param.seed + 100));
  net.warm_up(8.0);
  EXPECT_TRUE(net.graph().check_consistency());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PoissonSweep,
    ::testing::Values(SweepParam{100, 4, 1}, SweepParam{100, 8, 2},
                      SweepParam{200, 4, 3}, SweepParam{200, 8, 4},
                      SweepParam{400, 6, 5}, SweepParam{400, 12, 6}),
    param_name);

// ---- Table 1 directional checks -------------------------------------------

TEST(Table1Shape, RegenerationRemovesIsolation) {
  // Column contrast of Table 1: without regeneration isolated nodes exist;
  // with regeneration they do not (post-founders).
  constexpr std::uint32_t kN = 1500;
  constexpr std::uint32_t kD = 2;
  double sdg_isolated = 0.0;
  double sdgr_isolated = 0.0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    StreamingConfig config;
    config.n = kN;
    config.d = kD;
    config.seed = derive_seed(20, 0, rep);
    config.policy = EdgePolicy::kNone;
    StreamingNetwork sdg(config);
    sdg.warm_up();
    sdg.run_rounds(kN);
    sdg_isolated += isolated_census(sdg.snapshot()).fraction;

    config.policy = EdgePolicy::kRegenerate;
    StreamingNetwork sdgr(config);
    sdgr.warm_up();
    sdgr.run_rounds(kN);
    sdgr_isolated += isolated_census(sdgr.snapshot()).fraction;
  }
  EXPECT_GT(sdg_isolated, 0.0);
  EXPECT_DOUBLE_EQ(sdgr_isolated, 0.0);
}

TEST(Table1Shape, RegenerationEnablesCompletion) {
  // Row contrast of Table 1. With regeneration, flooding completes within
  // O(log n) steps at d >= 21 (Theorem 3.16). Without regeneration and with
  // small d, instances carry isolated nodes (Lemma 3.5) which make fast
  // completion impossible (Theorem 3.7); we verify on exactly those
  // instances.
  constexpr std::uint32_t kN = 400;
  int sdgr_completions = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    StreamingConfig config;
    config.n = kN;
    config.d = 21;
    config.seed = derive_seed(21, 0, rep);
    config.policy = EdgePolicy::kRegenerate;
    StreamingNetwork sdgr(config);
    sdgr.warm_up();
    FloodOptions options;
    options.max_steps = static_cast<std::uint64_t>(12.0 * std::log2(kN));
    sdgr_completions += flood_dynamic(sdgr, options).completed ? 1 : 0;
  }
  EXPECT_EQ(sdgr_completions, 5);

  int isolated_instances = 0;
  int sdg_completions = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    StreamingConfig config;
    config.n = 2000;
    config.d = 2;
    config.seed = derive_seed(21, 1, rep);
    config.policy = EdgePolicy::kNone;
    StreamingNetwork sdg(config);
    sdg.warm_up();
    sdg.run_rounds(2000);
    if (isolated_census(sdg.snapshot()).isolated_nodes == 0) continue;
    ++isolated_instances;
    FloodOptions options;
    options.max_steps = 150;
    options.stop_on_die_out = false;
    sdg_completions += flood_dynamic(sdg, options).completed ? 1 : 0;
  }
  EXPECT_GE(isolated_instances, 3);
  EXPECT_EQ(sdg_completions, 0);
}

TEST(Table1Shape, LargerDImprovesCoverageInSdg) {
  // Theorem 3.8: coverage 1 - exp(-Omega(d)). Compare d = 3 vs d = 12.
  constexpr std::uint32_t kN = 500;
  double coverage[2] = {0.0, 0.0};
  const std::uint32_t ds[2] = {3, 12};
  for (int i = 0; i < 2; ++i) {
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      StreamingConfig config;
      config.n = kN;
      config.d = ds[i];
      config.policy = EdgePolicy::kNone;
      config.seed = derive_seed(22, ds[i], rep);
      StreamingNetwork net(config);
      net.warm_up();
      net.run_rounds(kN);
      FloodOptions options;
      options.max_steps = 60;
      coverage[i] += flood_dynamic(net, options).final_fraction;
    }
  }
  EXPECT_GT(coverage[1], coverage[0]);
  EXPECT_GT(coverage[1] / 6.0, 0.9);
}

TEST(Table1Shape, PoissonMirrorsStreamingContrast) {
  // The same regeneration contrast holds in the Poisson models
  // (Lemma 4.10 vs Theorem 4.16 consequences).
  constexpr std::uint32_t kN = 800;
  constexpr std::uint32_t kD = 2;
  double pdg_isolated = 0.0;
  double pdgr_isolated = 0.0;
  for (std::uint64_t rep = 0; rep < 4; ++rep) {
    PoissonNetwork pdg(PoissonConfig::with_n(kN, kD, EdgePolicy::kNone,
                                             derive_seed(23, 0, rep)));
    pdg.warm_up(8.0);
    pdg_isolated += isolated_census(pdg.snapshot()).fraction;

    PoissonNetwork pdgr(PoissonConfig::with_n(kN, kD, EdgePolicy::kRegenerate,
                                              derive_seed(23, 1, rep)));
    pdgr.warm_up(8.0);
    pdgr_isolated += isolated_census(pdgr.snapshot()).fraction;
  }
  EXPECT_GT(pdg_isolated, 4.0 * pdgr_isolated);
}

}  // namespace
}  // namespace churnet
