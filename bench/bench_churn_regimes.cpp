// Experiment CR1 -- Extended churn regimes vs the paper's Poisson process.
//
// The churn layer makes demography pluggable (churn/churn_process.hpp);
// this bench puts the headline regimes side by side on equal footing (same
// lambda = 1, same mean lifetime n, same PDGR wiring):
//
//   poisson        the paper's exact jump chain (Def. 4.1) -- the control
//   pareto(2.5)    heavy-tailed sessions (empirical P2P shape)
//   weibull(0.7)   subexponential sessions
//   bursty(4,0.5)  on/off death-rate phases (mass departures + recovery)
//   drift(2)       network growing toward 2n during measurement
//   drift(0.5)     network draining toward n/2 during measurement
//
// Part 1 checks each regime's demography against its configured law (mean
// lifetime ~ n where the law fixes it; stationary/drifting sizes where the
// schedule predicts them). Part 2 sweeps all regimes through the
// sweep service and reports flooding + topology metrics, the paper's
// Table-1 quantities, under each regime.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("CR1: extended churn regimes (heavy-tailed, bursty, drift)");
  cli.add_int("n", 2000, "mean network size / mean lifetime");
  cli.add_int("d", 8, "requests per node");
  cli.add_int("reps", 8, "sweep replications per cell");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto d =
      static_cast<std::uint32_t>(cli.get_int_in("d", 1, kMaxBenchSize));
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 300),
      d);
  const std::uint64_t seed = seed_from_cli(cli);
  const unsigned threads = threads_from_cli(cli);
  const std::uint64_t reps = scaled(
      cli.get_int_in("reps", 1, kMaxBenchCount), scale.rep_factor, 2);

  print_experiment_header(
      "CR1 churn regimes",
      "pluggable demography: lifetimes follow each regime's law, sizes "
      "follow Little's law (stationary) or the drift schedule; flooding "
      "stays fast under every regime with regeneration");

  const std::vector<std::string> regimes = {
      "poisson",      "pareto(2.5)", "weibull(0.7)",
      "bursty(4,0.5)", "drift(2)",   "drift(0.5)"};

  // Part 1: demography. One long run per regime; lifetimes and final size
  // observed through step()'s event reports.
  Table demography({"regime", "mean lifetime", "expected", "final size",
                    "expected size", "verdict"});
  for (std::size_t i = 0; i < regimes.size(); ++i) {
    const std::string& regime = regimes[i];
    PoissonConfig config = PoissonConfig::with_n(
        n, 1, EdgePolicy::kNone, derive_seed(seed, 100, i));
    config.churn = *ChurnSpec::parse(regime);
    PoissonNetwork net(config);
    OnlineStats lifetimes;
    std::vector<double> birth_time;  // by slot
    // Warm-up (the drift schedule's stationary phase), then the
    // measurement window; each barrier also applies the event past it.
    const double warm = net.churn().warm_up_time(10.0);
    for (const double barrier : {warm, warm + 5.0 * n}) {
      while (net.now() < barrier) {
        const auto event = net.step();
        const std::uint32_t slot = event.node.slot;
        if (event.kind == ChurnEvent::Kind::kBirth) {
          if (birth_time.size() <= slot) birth_time.resize(slot + 1);
          birth_time[slot] = event.time;
        } else {
          lifetimes.add(event.time - birth_time[slot]);
        }
      }
    }

    const double size = static_cast<double>(net.graph().alive_count());
    // Expected mean lifetime: n wherever the law fixes it. The bursty
    // schedule alternates rates mu*b / mu/b, so the realized mean sits
    // between n/b and n*b; report '-' and only check the size band.
    const bool lifetime_checkable = regime.rfind("bursty", 0) != 0;
    // Expected size: Little's law lambda * E[L] = n for the stationary
    // regimes; the drift(g) schedule has left stationarity, so the size
    // must lie strictly between n and g*n (mid-drift) at our window's end.
    double size_lo = 0.85 * n, size_hi = 1.15 * n;
    std::string size_expected = fmt_int(n);
    if (regime == "drift(2)") {
      size_lo = 1.2 * n;
      size_hi = 2.1 * n;
      size_expected = "drifting to " + fmt_int(2 * n);
    } else if (regime == "drift(0.5)") {
      size_lo = 0.4 * n;
      size_hi = 0.85 * n;
      size_expected = "drifting to " + fmt_int(n / 2);
    } else if (regime.rfind("bursty", 0) == 0) {
      // Size oscillates between ~n/b and ~n*b across phases.
      size_lo = static_cast<double>(n) / 5.0;
      size_hi = static_cast<double>(n) * 5.0;
      size_expected = "[n/4, 4n] phases";
    }
    // Observed lifetimes are right-censored (sessions still alive at the
    // window's end are never recorded), which biases the mean low — the
    // more so the heavier the tail. The uncensored sampler itself is
    // checked exactly in tests/test_churn_regimes.cpp; here the band is
    // wide enough for the censoring bias of each law.
    const bool heavy_tail = regime.rfind("pareto", 0) == 0 ||
                            regime.rfind("weibull", 0) == 0;
    const double tolerance = heavy_tail ? 0.25 : 0.15;
    const bool lifetime_ok =
        !lifetime_checkable ||
        std::abs(lifetimes.mean() - n) < tolerance * n;
    const bool size_ok = size >= size_lo && size <= size_hi;
    demography.add_row(
        {regime, fmt_fixed(lifetimes.mean(), 1),
         lifetime_checkable ? fmt_int(n) : std::string("-"),
         fmt_fixed(size, 0), size_expected,
         verdict(lifetime_ok && size_ok)});
  }
  demography.print(std::cout);

  // Part 2: the same regimes through the sweep service, PDGR wiring,
  // flooding + topology metrics.
  std::printf("\nsweep: PDGR wiring under each regime "
              "(n=%u, d=%u, %llu reps, %u threads)\n",
              n, d, static_cast<unsigned long long>(reps), threads);
  SweepSpec spec;
  for (const std::string& regime : regimes) {
    spec.scenarios.push_back(regime == "poisson" ? "PDGR"
                                                 : "PDGR+" + regime);
  }
  spec.n_values = {n};
  spec.d_values = {d};
  spec.metrics = {"alive", "mean_degree", "isolated",
                  "largest_component_frac", "completion_step",
                  "final_fraction"};
  spec.replications = reps;
  spec.base_seed = seed;
  const SweepResult result = SweepService(spec, {.threads = threads}).run();
  result.to_table().print(std::cout);
  std::printf("\n%zu cells in %.2fs; flooding completes under every regime "
              "with regeneration (completion_step ~ O(log n)).\n",
              result.cells().size(), result.wall_seconds());
  return 0;
}
