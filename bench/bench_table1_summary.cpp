// Experiment "Table 1" -- one verdict per cell of the paper's summary
// table, at a reference configuration. Each cell is measured in depth by
// its dedicated bench (see DESIGN.md section 8); this binary is the
// one-screen overview.
//
//   Table 1 (paper):
//                      without regeneration        with regeneration
//   expansion     isolated nodes exist (3.5/4.10)  0.1-expander (3.15/4.16)
//                 large sets expand (3.6/4.11)
//   flooding      may fail, Omega_d(1) (3.7/4.12)  completes O(log n)
//                 most nodes in O(log n) (3.8/4.13)   (3.16/4.20)
#include <cmath>
#include <cstdio>
#include <iostream>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

struct CellResult {
  std::string measured;
  bool pass = false;
};

}  // namespace

int main(int argc, char** argv) {
  Cli cli("Table 1 summary: one verdict per paper claim");
  cli.add_int("n", 8000, "reference network size");
  cli.add_int("reps", 5, "replications per cell");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 1000));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 2);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "Table 1 summary",
      "all eight cells of the paper's results table at one reference "
      "configuration (see the per-experiment benches for sweeps)");

  Table table({"cell", "model", "claim", "config", "measured", "verdict"});

  // Every snapshot measurement below goes through the observation layer
  // (observe/observers.hpp): the isolated and expansion observers are the
  // exact objects sweeps attach, seeded per replication exactly as this
  // bench seeded its probe RNGs before the port.
  IsolatedObserver isolated_observer;
  ExpansionObserver probe_observer;

  // --- isolated nodes, streaming (Lemma 3.5) ---------------------------
  {
    OnlineStats fraction;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      StreamingConfig config{n, 2, EdgePolicy::kNone,
                             derive_seed(seed, 1, rep)};
      StreamingNetwork net(config);
      net.warm_up();
      net.run_rounds(n);
      isolated_observer.begin_trial(0);
      isolated_observer.on_snapshot(net.snapshot());
      fraction.add(isolated_observer.last().fraction);
    }
    const double bound = lemma_3_5_isolated_fraction(2);
    table.add_row({"L3.5", "SDG", "isolated frac >= e^{-2d}/6", "d=2",
                   fmt_percent(fraction.mean(), 2),
                   verdict(fraction.mean() >= bound)});
  }
  // --- isolated nodes, Poisson (Lemma 4.10) ----------------------------
  {
    OnlineStats fraction;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      PoissonNetwork net(PoissonConfig::with_n(n, 2, EdgePolicy::kNone,
                                               derive_seed(seed, 2, rep)));
      net.warm_up(8.0);
      isolated_observer.begin_trial(0);
      isolated_observer.on_snapshot(net.snapshot());
      fraction.add(isolated_observer.last().fraction);
    }
    const double bound = lemma_4_10_isolated_fraction(2);
    table.add_row({"L4.10", "PDG", "isolated frac >= e^{-2d}/18", "d=2",
                   fmt_percent(fraction.mean(), 2),
                   verdict(fraction.mean() >= bound)});
  }
  // --- large-set expansion (Lemmas 3.6 / 4.11) -------------------------
  for (int model = 0; model < 2; ++model) {
    double worst = 1e9;
    const std::uint32_t d = 20;
    const auto window = static_cast<std::uint32_t>(std::ceil(
        n * std::exp(-static_cast<double>(d) / (model == 0 ? 10.0 : 20.0))));
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      ProbeOptions options;
      options.min_size = window;
      options.low_degree_singletons = 0;
      probe_observer.set_options(options);
      probe_observer.begin_trial(derive_seed(seed, 30 + model, rep));
      if (model == 0) {
        StreamingConfig config{n, d, EdgePolicy::kNone,
                               derive_seed(seed, 3, rep)};
        StreamingNetwork net(config);
        net.warm_up();
        net.run_rounds(n);
        probe_observer.on_snapshot(net.snapshot());
      } else {
        PoissonNetwork net(PoissonConfig::with_n(n, d, EdgePolicy::kNone,
                                                 derive_seed(seed, 4, rep)));
        net.warm_up(8.0);
        probe_observer.on_snapshot(net.snapshot());
      }
      worst = std::min(worst, probe_observer.last().min_ratio);
    }
    table.add_row({model == 0 ? "L3.6" : "L4.11",
                   model == 0 ? "SDG" : "PDG",
                   "large sets expand >= 0.1", "d=20",
                   fmt_fixed(worst, 3), verdict(worst >= 0.1)});
  }
  // --- expander under regeneration (Thms 3.15 / 4.16) ------------------
  for (int model = 0; model < 2; ++model) {
    const std::uint32_t d = model == 0 ? 14 : 35;
    double worst = 1e9;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      probe_observer.set_options({});
      probe_observer.begin_trial(derive_seed(seed, 40 + model, rep));
      if (model == 0) {
        StreamingConfig config{n, d, EdgePolicy::kRegenerate,
                               derive_seed(seed, 5, rep)};
        StreamingNetwork net(config);
        net.warm_up();
        net.run_rounds(n);
        probe_observer.on_snapshot(net.snapshot());
      } else {
        PoissonNetwork net(PoissonConfig::with_n(
            n, d, EdgePolicy::kRegenerate, derive_seed(seed, 6, rep)));
        net.warm_up(8.0);
        probe_observer.on_snapshot(net.snapshot());
      }
      worst = std::min(worst, probe_observer.last().min_ratio);
    }
    table.add_row({model == 0 ? "T3.15" : "T4.16",
                   model == 0 ? "SDGR" : "PDGR", "0.1-expander w.h.p.",
                   "d=" + fmt_int(d), fmt_fixed(worst, 3),
                   verdict(worst >= 0.1)});
  }
  // --- flooding can fail without regeneration (Thms 3.7 / 4.12) --------
  {
    const std::uint32_t d = 1;
    const std::uint64_t trials = reps * 40;
    std::uint64_t failures = 0;
    for (std::uint64_t rep = 0; rep < trials; ++rep) {
      StreamingConfig config{std::min(n, 2000u), d, EdgePolicy::kNone,
                             derive_seed(seed, 7, rep)};
      StreamingNetwork net(config);
      net.warm_up();
      FloodOptions options;
      options.max_steps = 3ull * config.n;
      options.stop_at_fraction =
          static_cast<double>(d + 2) / static_cast<double>(config.n);
      const FloodTrace trace = flood_dynamic(net, options);
      failures += (trace.died_out && trace.peak_informed <= d + 1) ? 1 : 0;
    }
    table.add_row(
        {"T3.7", "SDG", "P[die-out, peak <= d+1] = Omega_d(1)", "d=1",
         fmt_percent(static_cast<double>(failures) /
                         static_cast<double>(trials),
                     1),
         verdict(failures > 0)});
  }
  {
    const std::uint32_t d = 1;
    const std::uint64_t trials = reps * 10;
    std::uint64_t failures = 0;
    for (std::uint64_t rep = 0; rep < trials; ++rep) {
      PoissonNetwork net(PoissonConfig::with_n(std::min(n, 1000u), d,
                                               EdgePolicy::kNone,
                                               derive_seed(seed, 8, rep)));
      net.warm_up(8.0);
      FloodOptions options;
      options.max_steps = 20ull * std::min(n, 1000u);
      options.stop_at_fraction =
          static_cast<double>(d + 2) / std::min(n, 1000u);
      const FloodTrace trace = flood_dynamic(net, options);
      failures += (trace.died_out && trace.peak_informed <= d + 1) ? 1 : 0;
    }
    table.add_row(
        {"T4.12", "PDG", "P[die-out, peak <= d+1] = Omega_d(1)", "d=1",
         fmt_percent(static_cast<double>(failures) /
                         static_cast<double>(trials),
                     1),
         verdict(failures > 0)});
  }
  // --- flooding reaches most nodes (Thms 3.8 / 4.13) -------------------
  for (int model = 0; model < 2; ++model) {
    const std::uint32_t d = 12;
    const double target =
        1.0 - std::exp(-static_cast<double>(d) / (model == 0 ? 10.0 : 20.0));
    OnlineStats coverage;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      FloodOptions options;
      options.max_steps =
          static_cast<std::uint64_t>(4.0 * std::log2(n)) + d;
      if (model == 0) {
        StreamingConfig config{n, d, EdgePolicy::kNone,
                               derive_seed(seed, 9, rep)};
        StreamingNetwork net(config);
        net.warm_up();
        net.run_rounds(n);
        coverage.add(flood_dynamic(net, options).final_fraction);
      } else {
        PoissonNetwork net(PoissonConfig::with_n(n, d, EdgePolicy::kNone,
                                                 derive_seed(seed, 10, rep)));
        net.warm_up(8.0);
        coverage.add(
            flood_dynamic(net, options).final_fraction);
      }
    }
    table.add_row({model == 0 ? "T3.8" : "T4.13",
                   model == 0 ? "SDG" : "PDG",
                   "coverage >= " + fmt_percent(target, 1) + " in O(log n)",
                   "d=12", fmt_percent(coverage.mean(), 1),
                   verdict(coverage.mean() >= target)});
  }
  // --- flooding completes with regeneration (Thms 3.16 / 4.20) ---------
  for (int model = 0; model < 2; ++model) {
    const std::uint32_t d = model == 0 ? 21 : 35;
    std::uint64_t completions = 0;
    OnlineStats steps;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      FloodOptions options;
      options.max_steps = static_cast<std::uint64_t>(30.0 * std::log2(n));
      if (model == 0) {
        StreamingConfig config{n, d, EdgePolicy::kRegenerate,
                               derive_seed(seed, 11, rep)};
        StreamingNetwork net(config);
        net.warm_up();
        const FloodTrace trace = flood_dynamic(net, options);
        completions += trace.completed ? 1 : 0;
        if (trace.completed) {
          steps.add(static_cast<double>(trace.completion_step));
        }
      } else {
        PoissonNetwork net(PoissonConfig::with_n(
            n, d, EdgePolicy::kRegenerate, derive_seed(seed, 12, rep)));
        net.warm_up(8.0);
        const FloodTrace trace = flood_dynamic(net, options);
        completions += trace.completed ? 1 : 0;
        if (trace.completed) {
          steps.add(static_cast<double>(trace.completion_step));
        }
      }
    }
    table.add_row({model == 0 ? "T3.16" : "T4.20",
                   model == 0 ? "SDGR" : "PDGR",
                   "flooding completes in O(log n) w.h.p.",
                   "d=" + fmt_int(d),
                   fmt_int(static_cast<std::int64_t>(completions)) + "/" +
                       fmt_int(static_cast<std::int64_t>(reps)) + ", mean " +
                       fmt_fixed(steps.count() ? steps.mean() : 0.0, 1) +
                       " steps",
                   verdict(completions == reps)});
  }

  table.print(std::cout);
  std::printf("\nn=%u, %llu replications per cell. Columns match Table 1 of "
              "the paper; every cell also has a dedicated sweep bench.\n",
              n, static_cast<unsigned long long>(reps));
  return 0;
}
