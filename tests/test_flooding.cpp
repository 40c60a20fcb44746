// Tests for plain flooding (flood_dynamic): synchronous streaming
// flooding (Def. 3.3) and discretized Poisson flooding (Def. 4.3).
#include "protocols/dissemination.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "benchutil/experiment.hpp"
#include "graph/algorithms.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"

namespace churnet {
namespace {

StreamingConfig streaming_config(std::uint32_t n, std::uint32_t d,
                                 EdgePolicy policy, std::uint64_t seed) {
  StreamingConfig config;
  config.n = n;
  config.d = d;
  config.policy = policy;
  config.seed = seed;
  return config;
}

TEST(FloodTrace, StepReachingFraction) {
  FloodTrace trace;
  trace.informed_per_step = {1, 5, 40, 90};
  trace.alive_per_step = {100, 100, 100, 100};
  EXPECT_EQ(trace.step_reaching_fraction(0.01), 0u);
  EXPECT_EQ(trace.step_reaching_fraction(0.05), 1u);
  EXPECT_EQ(trace.step_reaching_fraction(0.4), 2u);
  EXPECT_EQ(trace.step_reaching_fraction(0.9), 3u);
  EXPECT_EQ(trace.step_reaching_fraction(0.95), FloodTrace::kNever);
}

TEST(FloodStreaming, StartsWithSingleInformedSource) {
  StreamingNetwork net(
      streaming_config(50, 4, EdgePolicy::kRegenerate, 1));
  net.warm_up();
  FloodOptions options;
  options.max_steps = 0;  // no flooding steps: only the source round
  const FloodTrace trace = flood_dynamic(net, options);
  ASSERT_GE(trace.informed_per_step.size(), 1u);
  EXPECT_EQ(trace.informed_per_step[0], 1u);
  EXPECT_EQ(trace.alive_per_step[0], 50u);
}

TEST(FloodStreaming, InformedCountsAreMonotoneUntilCompletionSdgr) {
  // With regeneration the graph is an expander: |I_t| should be strictly
  // growing until completion (modulo the odd death).
  StreamingNetwork net(
      streaming_config(200, 8, EdgePolicy::kRegenerate, 2));
  net.warm_up();
  net.run_rounds(210);
  const FloodTrace trace = flood_dynamic(net);
  ASSERT_TRUE(trace.completed);
  for (std::size_t t = 1; t < trace.informed_per_step.size(); ++t) {
    EXPECT_GE(trace.informed_per_step[t] + 1, trace.informed_per_step[t - 1]);
  }
}

TEST(FloodStreaming, SdgrCompletesInLogarithmicTime) {
  // Theorem 3.16: O(log n) completion w.h.p. for d >= 21. Use a generous
  // cap of 12*log2(n) steps.
  constexpr std::uint32_t kN = 500;
  int completions = 0;
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    StreamingNetwork net(streaming_config(kN, 21, EdgePolicy::kRegenerate,
                                          derive_seed(3, 0, rep)));
    net.warm_up();
    net.run_rounds(kN);
    const FloodTrace trace = flood_dynamic(net);
    if (!trace.completed) continue;
    ++completions;
    EXPECT_LE(trace.completion_step,
              static_cast<std::uint64_t>(12.0 * std::log2(kN)));
  }
  EXPECT_EQ(completions, 10);
}

TEST(FloodStreaming, SdgInformsMostNodesQuickly) {
  // Theorem 3.8 shape: for sizeable d the flood reaches a large fraction
  // within << n rounds. (At d = 12 isolated nodes are essentially absent,
  // so full completion may also happen; the claim under test is speed.)
  constexpr std::uint32_t kN = 600;
  constexpr std::uint32_t kD = 12;
  StreamingNetwork net(streaming_config(kN, kD, EdgePolicy::kNone, 4));
  net.warm_up();
  net.run_rounds(kN);
  FloodOptions options;
  options.max_steps = 60;  // >> log(n), << n
  options.stop_on_die_out = true;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_GT(trace.final_fraction, 0.80);
}

TEST(FloodStreaming, SdgCannotCompleteWhileIsolatedNodesExist) {
  // Theorem 3.7 mechanism: isolated nodes are unreachable, so as long as
  // the snapshot holds one the flood cannot complete within o(n) steps.
  constexpr std::uint32_t kN = 2000;
  constexpr std::uint32_t kD = 2;
  int instances_with_isolated = 0;
  for (std::uint64_t rep = 0; rep < 5; ++rep) {
    StreamingNetwork net(
        streaming_config(kN, kD, EdgePolicy::kNone, derive_seed(40, 0, rep)));
    net.warm_up();
    net.run_rounds(kN);
    const DegreeStats stats = degree_stats(net.snapshot());
    if (stats.isolated == 0) continue;
    ++instances_with_isolated;
    FloodOptions options;
    options.max_steps = 100;  // >> log n, << n
    options.stop_on_die_out = false;
    const FloodTrace trace = flood_dynamic(net, options);
    EXPECT_FALSE(trace.completed);
  }
  // At d = 2 nearly every instance carries isolated nodes (Lemma 3.5).
  EXPECT_GE(instances_with_isolated, 3);
}

TEST(FloodStreaming, RespectsMaxSteps) {
  StreamingNetwork net(streaming_config(100, 2, EdgePolicy::kNone, 5));
  net.warm_up();
  FloodOptions options;
  options.max_steps = 7;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_LE(trace.steps, 7u);
}

TEST(FloodStreaming, StopAtFractionStopsEarly) {
  // With a fast-growing flood the final step may overshoot all the way to
  // completion; the contract is "stop at the FIRST step reaching the
  // fraction", which we verify via the recorded series.
  StreamingNetwork net(
      streaming_config(300, 10, EdgePolicy::kRegenerate, 6));
  net.warm_up();
  FloodOptions options;
  options.stop_at_fraction = 0.5;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_GE(trace.final_fraction, 0.5);
  ASSERT_GE(trace.informed_per_step.size(), 2u);
  const std::size_t last = trace.informed_per_step.size() - 1;
  const double previous_fraction =
      static_cast<double>(trace.informed_per_step[last - 1]) /
      static_cast<double>(trace.alive_per_step[last - 1]);
  EXPECT_LT(previous_fraction, 0.5);
}

TEST(FloodStreaming, SeriesRecordingCanBeDisabled) {
  StreamingNetwork net(
      streaming_config(100, 8, EdgePolicy::kRegenerate, 7));
  net.warm_up();
  FloodOptions options;
  options.record_series = false;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_TRUE(trace.informed_per_step.empty());
  EXPECT_TRUE(trace.completed);
}

TEST(FloodStreaming, AliveCountStaysN) {
  StreamingNetwork net(
      streaming_config(150, 6, EdgePolicy::kRegenerate, 8));
  net.warm_up();
  const FloodTrace trace = flood_dynamic(net);
  for (const std::uint64_t alive : trace.alive_per_step) {
    EXPECT_EQ(alive, 150u);
  }
}

TEST(FloodStreaming, HooksAreClearedAfterRun) {
  StreamingNetwork net(
      streaming_config(100, 6, EdgePolicy::kRegenerate, 9));
  net.warm_up();
  flood_dynamic(net);
  // If the driver leaked its hooks, this would touch freed captures.
  net.run_rounds(50);
  EXPECT_TRUE(net.graph().check_consistency());
}

TEST(FloodPoisson, DiscretizedCompletesOnPdgr) {
  // Theorem 4.20: O(log n) completion w.h.p. for d >= 35.
  constexpr std::uint32_t kN = 400;
  int completions = 0;
  std::uint64_t worst = 0;
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    PoissonNetwork net(PoissonConfig::with_n(kN, 35, EdgePolicy::kRegenerate,
                                             derive_seed(10, 0, rep)));
    net.warm_up(8.0);
    FloodOptions options;
    options.max_steps = 200;
    const FloodTrace trace = flood_dynamic(net, options);
    if (trace.completed) {
      ++completions;
      worst = std::max(worst, trace.completion_step);
    }
  }
  EXPECT_GE(completions, 7);
  EXPECT_LE(worst, static_cast<std::uint64_t>(15.0 * std::log2(kN)));
}

TEST(FloodPoisson, InformedNeverExceedsAlive) {
  PoissonNetwork net(
      PoissonConfig::with_n(300, 20, EdgePolicy::kRegenerate, 11));
  net.warm_up(5.0);
  const FloodTrace trace = flood_dynamic(net);
  ASSERT_FALSE(trace.informed_per_step.empty());
  for (std::size_t t = 0; t < trace.informed_per_step.size(); ++t) {
    EXPECT_LE(trace.informed_per_step[t], trace.alive_per_step[t]);
  }
}

TEST(FloodPoisson, PdgReachesLargeFraction) {
  // Theorem 4.13 shape: most nodes informed in O(log n) steps even without
  // regeneration, for large d.
  PoissonNetwork net(PoissonConfig::with_n(500, 20, EdgePolicy::kNone, 12));
  net.warm_up(8.0);
  FloodOptions options;
  options.max_steps = 80;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_GT(trace.final_fraction, 0.7);
}

TEST(FloodPoisson, RespectsMaxSteps) {
  PoissonNetwork net(PoissonConfig::with_n(200, 2, EdgePolicy::kNone, 13));
  net.warm_up(3.0);
  FloodOptions options;
  options.max_steps = 5;
  const FloodTrace trace = flood_dynamic(net, options);
  EXPECT_LE(trace.steps, 5u);
}

TEST(FloodPoisson, SourceWithIsolatedNeighborsCanDieOut) {
  // With d = 1 and no regeneration, floods frequently die out when the
  // source's only neighbor (and its chain) dies before passing the message
  // on. Just assert the die-out bookkeeping is coherent when it happens.
  int die_outs = 0;
  for (std::uint64_t rep = 0; rep < 30; ++rep) {
    PoissonNetwork net(PoissonConfig::with_n(60, 1, EdgePolicy::kNone,
                                             derive_seed(14, 0, rep)));
    net.warm_up(5.0);
    FloodOptions options;
    options.max_steps = 400;
    const FloodTrace trace = flood_dynamic(net, options);
    if (trace.died_out) {
      ++die_outs;
      EXPECT_NE(trace.die_out_step, FloodTrace::kNever);
      EXPECT_FALSE(trace.completed);
    }
  }
  EXPECT_GT(die_outs, 0);
}

TEST(FloodPoisson, ClockAdvancesOneUnitPerStep) {
  PoissonNetwork net(
      PoissonConfig::with_n(150, 10, EdgePolicy::kRegenerate, 15));
  net.warm_up(3.0);
  const double before = net.now();
  FloodOptions options;
  options.max_steps = 12;
  options.stop_at_fraction = 2.0;  // never stop early on fraction
  options.stop_on_die_out = false;
  const FloodTrace trace = flood_dynamic(net, options);
  // now() - t0 == steps, where t0 >= before (source birth waits for an
  // arrival event).
  EXPECT_GE(net.now(), before + static_cast<double>(trace.steps));
}

}  // namespace
}  // namespace churnet
