// Experiment T1.e -- Flooding informs most nodes without edge regeneration
// (paper Theorem 3.8 / Theorem 4.13).
//
// Claims:
//   * SDG (Thm 3.8): within tau = O(log n / log d + d) steps the flood
//     informs a (1 - e^{-d/10}) fraction, with probability
//     >= 1 - 4e^{-d/100} - o(1).
//   * PDG (Thm 4.13): same shape with constants 1 - e^{-d/20} and
//     1 - 2e^{-d/576}.
//
// Sweep 1 measures coverage vs d at fixed n against the paper's target
// fraction. Sweep 2 measures the time to 90% coverage vs n at fixed d and
// fits it against log2(n).
//
// Engine edition: scenarios come from the ScenarioRegistry and every
// replication loop runs through the TrialRunner (one derive_seed stream per
// (model, d) / size configuration; --threads parallelizes replications
// without changing any number).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("T1.e: flooding coverage in SDG/PDG (Theorems 3.8, 4.13)");
  cli.add_int("n", 20000, "network size for the d sweep");
  cli.add_int("reps", 10, "replications per configuration");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 2000));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 3);
  const std::uint64_t seed = seed_from_cli(cli);
  const unsigned threads = threads_from_cli(cli);

  print_experiment_header(
      "T1.e flooding coverage without regeneration",
      "coverage >= 1 - e^{-d/10} within O(log n/log d + d) steps, w.p. "
      ">= 1 - 4e^{-d/100} (SDG Thm 3.8; PDG Thm 4.13 with e^{-d/20})");

  const ScenarioRegistry& registry = ScenarioRegistry::paper();

  std::printf("--- sweep 1: coverage vs d (n=%u, budget 4*log2(n)+d steps) "
              "---\n", n);
  Table sweep1({"model", "d", "target frac", "mean coverage", "p10 coverage",
                "P[>= target]", "verdict"});
  const std::uint32_t degrees[] = {2, 4, 6, 8, 12, 16};
  std::uint64_t stream = 0;
  for (const char* name : {"SDG", "PDG"}) {
    const Scenario& scenario = registry.at(name);
    const bool streaming = scenario.model() == ModelKind::kStreaming;
    for (const std::uint32_t d : degrees) {
      const double target =
          streaming ? 1.0 - std::exp(-static_cast<double>(d) / 10.0)
                    : 1.0 - std::exp(-static_cast<double>(d) / 20.0);
      TrialRunnerOptions options;
      options.replications = reps;
      options.threads = threads;
      options.base_seed = seed;
      options.stream = ++stream;
      const TrialResult result = TrialRunner(options).run(
          "coverage", [&scenario, streaming, n, d](const TrialContext& ctx) {
            thread_local ProtocolScratch scratch;
            FloodOptions flood_options;
            flood_options.max_steps = static_cast<std::uint64_t>(
                4.0 * std::log2(static_cast<double>(n))) + d;
            flood_options.stop_on_die_out = true;
            ScenarioParams params;
            params.n = n;
            params.d = d;
            params.seed = ctx.seed;
            AnyNetwork net = scenario.make_warmed(params);
            if (streaming) {
              net.run_until(net.now() + static_cast<double>(n));
            }
            return net.flood(flood_options, scratch).final_fraction;
          });
      record_trial(std::string("coverage-") + name + "-d" +
                       std::to_string(d),
                   result);
      std::vector<double> coverages;
      std::uint64_t hits = 0;
      for (const auto& row : result.samples()) {
        coverages.push_back(row[0]);
        hits += row[0] >= target ? 1 : 0;
      }
      sweep1.add_row(
          {name, fmt_int(d), fmt_percent(target, 1),
           fmt_percent(result.stats("coverage").mean(), 1),
           fmt_percent(quantile(coverages, 0.1), 1),
           fmt_percent(static_cast<double>(hits) /
                           static_cast<double>(reps),
                       0),
           verdict(static_cast<double>(hits) >=
                   0.5 * static_cast<double>(reps))});
    }
  }
  sweep1.print(std::cout);

  std::printf("\n--- sweep 2: steps to 90%% coverage vs n (d=8) ---\n");
  Table sweep2({"model", "n", "mean steps to 90%", "stderr"});
  std::vector<double> log_ns;
  std::vector<double> times_sdg;
  const std::uint32_t sizes[] = {n / 8, n / 4, n / 2, n, 2 * n};
  const Scenario& sdg = registry.at("SDG");
  for (const std::uint32_t size : sizes) {
    TrialRunnerOptions options;
    options.replications = reps;
    options.threads = threads;
    options.base_seed = seed;
    options.stream = 200 + ++stream;
    const TrialResult result = TrialRunner(options).run(
        "steps_to_90", [&sdg, size](const TrialContext& ctx) {
          thread_local ProtocolScratch scratch;
          ScenarioParams params;
          params.n = size;
          params.d = 8;
          params.seed = ctx.seed;
          AnyNetwork net = sdg.make_warmed(params);
          net.run_until(net.now() + static_cast<double>(size));
          FloodOptions flood_options;
          flood_options.max_steps = static_cast<std::uint64_t>(
              8.0 * std::log2(static_cast<double>(size)));
          flood_options.stop_at_fraction = 0.9;
          const FloodTrace trace = net.flood(flood_options, scratch);
          const std::uint64_t when = trace.step_reaching_fraction(0.9);
          return when != FloodTrace::kNever ? static_cast<double>(when)
                                            : std::nan("");
        });
    record_trial("steps-to-90-SDG-n" + std::to_string(size), result);
    const OnlineStats& steps = result.stats("steps_to_90");
    if (steps.count() > 0) {
      sweep2.add_row({"SDG", fmt_int(size), fmt_fixed(steps.mean(), 2),
                      fmt_fixed(steps.stderr_mean(), 2)});
      log_ns.push_back(std::log2(static_cast<double>(size)));
      times_sdg.push_back(steps.mean());
    }
  }
  sweep2.print(std::cout);
  if (log_ns.size() >= 3) {
    const LinearFit fit = fit_linear(log_ns, times_sdg);
    std::printf("\nfit: steps-to-90%% ~ %.2f * log2(n) %+.2f (R^2 = %.3f) "
                "-> %s (logarithmic growth)\n",
                fit.slope, fit.intercept, fit.r_squared,
                verdict(fit.r_squared > 0.7 && fit.slope < 3.0).c_str());
  }
  std::printf("\n%llu replications per point.\n",
              static_cast<unsigned long long>(reps));
  return 0;
}
