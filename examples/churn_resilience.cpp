// Churn resilience: how small can the degree budget d be before gossip
// stops surviving churn?
//
//   ./churn_resilience [--n 4000] [--reps 8] [--seed 23]
//
// The paper's answer (Table 1): without edge regeneration a flood dies
// early with probability Omega_d(1) and a constant fraction of nodes is
// permanently isolated, so coverage saturates at 1 - exp(-Omega(d));
// with regeneration the network is an expander at any fixed d >= O(1) and
// every flood completes. This example sweeps d for both Poisson policies
// and reports die-out rate, coverage, and completions within an O(log n)
// budget -- the paper's qualitative table as one printed sweep.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;

  Cli cli("churn_resilience: flood survival vs degree budget d");
  cli.add_int("n", 4000, "expected network size");
  cli.add_int("reps", 8, "replications per configuration");
  cli.add_int("seed", 23, "random seed");
  if (!cli.parse(argc, argv)) return 0;

  const std::uint32_t degrees[] = {1, 2, 3, 4, 6, 8, 12};
  const std::uint32_t n =  // n nodes of the largest d must fit
      checked_node_count(cli.get_int_in("n", 1, kMaxBenchSize), 12);
  const std::uint64_t reps = cli.get_int_in("reps", 1, kMaxBenchCount);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  Table table({"d", "policy", "die-out", "coverage", "isolated",
               "completed"});
  for (const std::uint32_t d : degrees) {
    for (const EdgePolicy policy :
         {EdgePolicy::kNone, EdgePolicy::kRegenerate}) {
      OnlineStats coverage;
      OnlineStats isolated;
      int die_outs = 0;
      int completions = 0;
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        PoissonNetwork net(PoissonConfig::with_n(
            n, d, policy,
            derive_seed(seed,
                        d * 2 + (policy == EdgePolicy::kRegenerate ? 1 : 0),
                        rep)));
        net.warm_up(8.0);
        isolated.add(isolated_census(net.snapshot()).fraction);
        FloodOptions options;
        options.max_steps = static_cast<std::uint64_t>(
            8.0 * std::log2(static_cast<double>(n)));
        const FloodTrace trace = flood_dynamic(net, options);
        coverage.add(trace.final_fraction);
        die_outs += trace.died_out ? 1 : 0;
        completions += trace.completed ? 1 : 0;
      }
      table.add_row({fmt_int(d),
                     policy == EdgePolicy::kRegenerate ? "regen" : "none",
                     fmt_int(die_outs) + "/" +
                         fmt_int(static_cast<std::int64_t>(reps)),
                     fmt_percent(coverage.mean()),
                     fmt_percent(isolated.mean(), 2),
                     fmt_int(completions) + "/" +
                         fmt_int(static_cast<std::int64_t>(reps))});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nreading: at d = 1..2 the no-regeneration flood regularly dies out\n"
      "(Theorem 4.12) and a visible fraction of nodes sits isolated\n"
      "(Lemma 4.10); coverage climbs toward 1 like 1 - exp(-Omega(d))\n"
      "(Theorem 4.13) but completion stays rare. With regeneration the\n"
      "isolated fraction is zero and floods complete once d clears a small\n"
      "constant (Theorem 4.20).\n");
  return 0;
}
