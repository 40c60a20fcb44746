// Experiment F1 -- Flooding dynamics curves (the per-step informed
// fraction |I_t| / |N_t| for all four models).
//
// This is the figure a simulation section would plot: the S-curve of a
// flood on each model at the same (n, d), plus the regenerating models at
// the theorems' degree constants. The curves make the Table-1 contrasts
// visible in one place:
//   * exponential growth phase with rate ~ log d per step;
//   * SDG/PDG saturating strictly below 1 (isolated nodes);
//   * SDGR/PDGR hitting exactly 1.
//
// Engine edition: the four models are the registry's four paper scenarios,
// and each model's replications run on the engine's job pool (run_jobs):
// replication r of model m floods with seed derive_seed(--seed, m, r), and
// its curve is padded with its final value, so --threads fans replications
// without changing the medians.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

/// The trace's per-step coverage |I_t| / |N_t|, padded with its final
/// value to steps+1 entries (an early stop holds its last coverage).
std::vector<double> coverage_curve(const FloodTrace& trace,
                                   std::uint64_t steps) {
  std::vector<double> curve;
  curve.reserve(steps + 1);
  for (std::size_t t = 0; t < trace.informed_per_step.size(); ++t) {
    const double alive = static_cast<double>(trace.alive_per_step[t]);
    curve.push_back(alive == 0.0 ? 0.0
                                 : static_cast<double>(
                                       trace.informed_per_step[t]) /
                                       alive);
  }
  curve.resize(steps + 1, curve.back());
  return curve;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("F1: flooding coverage curves for all four models");
  cli.add_int("n", 20000, "network size");
  // d = 4 keeps the SDG/PDG saturation ceiling (~99%) visibly below the
  // SDGR/PDGR completion level; larger d pushes the ceiling to 1 - 1e-5.
  cli.add_int("d", 4, "requests per node (common panel)");
  cli.add_int("reps", 9, "replications (median curve)");
  cli.add_int("steps", 24, "flooding steps to record");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto d =
      static_cast<std::uint32_t>(cli.get_int_in("d", 1, kMaxBenchSize));
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 2000),
      d);
  const std::uint64_t reps = scaled(
      cli.get_int_in("reps", 1, kMaxBenchCount), scale.rep_factor, 3);
  const std::uint64_t steps = cli.get_int_in("steps", 1, kMaxBenchCount);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "F1 flooding coverage curves",
      "median informed fraction per flooding step; SDG/PDG saturate below "
      "1 (Thms 3.7/3.8, 4.12/4.13), SDGR/PDGR complete (Thms 3.16/4.20). "
      "Streaming completion shows as (n-1)/n: the current round's newborn "
      "is informed only in the next round (Def. 3.3).");

  FloodOptions options;
  options.max_steps = steps;
  options.stop_on_die_out = false;

  const unsigned threads = threads_from_cli(cli);
  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  const char* model_names[] = {"SDG", "SDGR", "PDG", "PDGR"};

  Table table({"step", "SDG", "SDGR", "PDG", "PDGR"});
  std::vector<std::vector<double>> medians(4);
  for (int model = 0; model < 4; ++model) {
    const Scenario& scenario = registry.at(model_names[model]);
    std::vector<std::vector<double>> curves(reps);
    run_jobs(
        reps, threads,
        [&](std::uint64_t rep) {
          thread_local ProtocolScratch scratch;
          ScenarioParams params;
          params.n = n;
          params.d = d;
          params.seed =
              derive_seed(seed, static_cast<std::uint64_t>(model), rep);
          AnyNetwork net = scenario.make_warmed(params);
          return coverage_curve(net.flood(options, scratch), steps);
        },
        [&curves](std::uint64_t rep, std::vector<double>&& curve) {
          curves[rep] = std::move(curve);
        });
    // Per-step median across replications.
    std::vector<double>& median_curve =
        medians[static_cast<std::size_t>(model)];
    std::vector<double> column(reps);
    for (std::uint64_t t = 0; t <= steps; ++t) {
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        column[rep] = curves[rep][t];
      }
      median_curve.push_back(median(column));
    }
  }
  for (std::uint64_t t = 0; t <= steps; ++t) {
    auto cell = [&](int model) {
      return fmt_percent(medians[static_cast<std::size_t>(model)][t], 2);
    };
    table.add_row({fmt_int(static_cast<std::int64_t>(t)), cell(0), cell(1),
                   cell(2), cell(3)});
  }
  table.print(std::cout);

  // Growth-phase rate check: in the exponential phase |I| multiplies by
  // roughly Theta(d) per step until saturation.
  std::printf("\ngrowth factors (median curve, steps 1-4):\n");
  for (int model = 0; model < 4; ++model) {
    const auto& curve = medians[static_cast<std::size_t>(model)];
    std::printf("  %-4s:", model_names[model]);
    for (std::size_t t = 1; t < 5 && t < curve.size(); ++t) {
      if (curve[t - 1] > 0.0 && curve[t - 1] < 0.5) {
        std::printf(" x%.1f", curve[t] / curve[t - 1]);
      }
    }
    std::printf("\n");
  }
  std::printf("\nn=%u, d=%u, %llu replications (median curves).\n", n, d,
              static_cast<unsigned long long>(reps));
  return 0;
}
