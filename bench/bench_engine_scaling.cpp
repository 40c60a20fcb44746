// Engine thread-scaling bench: wall-clock of the identical replicated
// flooding workload at increasing TrialRunner thread counts, plus the
// determinism cross-check (aggregates must be bit-identical at every
// thread count; the exit status is 1 when they are not, so CI's bench
// smoke fails on it). Engineering measurement only; no paper claim.
//
//   ./bench_engine_scaling [--scenario SDGR] [--n 4000] [--reps 16]
//                          [--max-threads 4]
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("engine thread scaling: replicated floods vs TrialRunner threads");
  cli.add_string("scenario", "SDGR", "registry scenario to replicate");
  cli.add_int("n", 4000, "network size per replication");
  cli.add_int("d", 21, "requests per node");
  cli.add_int("reps", 16, "replications per thread-count measurement");
  cli.add_int("max-threads", 4, "largest thread count in the sweep");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 500));
  const auto d = static_cast<std::uint32_t>(cli.get_int("d"));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 4);
  const auto max_threads =
      static_cast<unsigned>(cli.get_int("max-threads"));
  const std::uint64_t seed = seed_from_cli(cli);
  const Scenario& scenario =
      ScenarioRegistry::paper().at(cli.get_string("scenario"));

  print_experiment_header(
      "engine thread scaling",
      "same seeds, same workload, increasing TrialRunner thread counts; "
      "aggregates must not change, wall-clock should drop");

  const auto body = [&scenario, n, d](const TrialContext& ctx) {
    ScenarioParams params;
    params.n = n;
    params.d = d;
    params.seed = ctx.seed;
    AnyNetwork net = scenario.make_warmed(params);
    thread_local ProtocolScratch scratch;
    FloodOptions options;
    options.max_steps = static_cast<std::uint64_t>(
        30.0 * std::log2(static_cast<double>(n)));
    const FloodTrace trace = net.flood(options, scratch);
    return trace.completed ? static_cast<double>(trace.completion_step)
                           : std::nan("");
  };

  std::vector<unsigned> thread_counts{1};
  for (unsigned t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);
  if (max_threads > 1 && thread_counts.back() != max_threads) {
    thread_counts.push_back(max_threads);  // non-power-of-two --max-threads
  }

  Table table({"threads", "wall s", "speedup", "efficiency", "mean", "count"});
  double serial_wall = 0.0;
  double serial_mean = 0.0;
  std::uint64_t serial_count = 0;
  bool deterministic = true;
  for (const unsigned threads : thread_counts) {
    TrialRunnerOptions options;
    options.replications = reps;
    options.threads = threads;
    options.base_seed = seed;
    options.stream = 1;
    const TrialResult result =
        TrialRunner(options).run("completion_step", body);
    const OnlineStats& stats = result.stats("completion_step");
    if (threads == 1) {
      serial_wall = result.wall_seconds();
      serial_mean = stats.mean();
      serial_count = stats.count();
    } else if (stats.count() != serial_count ||
               stats.mean() != serial_mean) {
      deterministic = false;
    }
    const double speedup = serial_wall / result.wall_seconds();
    table.add_row({fmt_int(threads), fmt_fixed(result.wall_seconds(), 3),
                   fmt_fixed(speedup, 2),
                   fmt_percent(speedup / static_cast<double>(threads), 0),
                   stats.count() > 0 ? fmt_fixed(stats.mean(), 2) : "-",
                   fmt_int(static_cast<std::int64_t>(stats.count()))});
  }
  table.print(std::cout);
  std::printf("\naggregates identical across thread counts: %s\n",
              verdict(deterministic).c_str());
  std::printf("%llu replications of %s (n=%u, d=%u) per measurement.\n",
              static_cast<unsigned long long>(reps),
              scenario.name().c_str(), n, d);
  return deterministic ? 0 : 1;
}
