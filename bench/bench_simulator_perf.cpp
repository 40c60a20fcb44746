// Engineering performance bench, engine edition, in three sections: churn
// event throughput of the four paper models, snapshot capture and analysis
// kernel cost (expansion probe, BFS), and replicated flooding trials
// fanned across the TrialRunner thread pool. These guard against
// performance regressions; they reproduce no paper claim.
//
// The replication section routes every trial seed through derive_seed and
// is bit-deterministic for a fixed --seed regardless of --threads. Thread
// scaling of the replication loop is bench_engine_scaling's job.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("simulator performance: model throughput and parallel replication "
          "scaling");
  cli.add_int("n", 20000, "network size for the throughput sections");
  cli.add_int("steps", 200000, "churn steps per throughput measurement");
  cli.add_int("reps", 16, "flooding replications per scenario");
  cli.add_int("flood-n", 4000, "network size per flooding replication");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 2000));
  const auto steps =
      scaled(static_cast<std::uint64_t>(cli.get_int("steps")),
             scale.size_factor, 20000);
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 4);
  const auto flood_n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("flood-n")),
             scale.size_factor, 1000));
  const std::uint64_t seed = seed_from_cli(cli);
  const unsigned threads = threads_from_cli(cli);

  print_experiment_header(
      "simulator performance",
      "engineering throughput only (no paper claim); deterministic for a "
      "fixed --seed at any --threads");

  const ScenarioRegistry& registry = ScenarioRegistry::paper();

  // --- section 1: single-stream churn event throughput ------------------
  std::printf("--- churn event throughput (n=%u, %llu steps each) ---\n", n,
              static_cast<unsigned long long>(steps));
  Table throughput({"scenario", "events/sec", "edges/node", "wall s"});
  for (const char* name : {"SDG", "SDGR", "PDG", "PDGR"}) {
    ScenarioParams params;
    params.n = n;
    params.d = 8;
    params.seed = derive_seed(seed, 1, 0);
    AnyNetwork net = registry.at(name).make_warmed(params);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < steps; ++i) net.step();
    const double elapsed = seconds_since(start);
    throughput.add_row(
        {name, fmt_sci(static_cast<double>(steps) / elapsed, 2),
         fmt_fixed(static_cast<double>(net.graph().edge_count()) /
                       static_cast<double>(net.graph().alive_count()),
                   2),
         fmt_fixed(elapsed, 3)});
  }
  throughput.print(std::cout);

  // --- section 2: snapshot capture and analysis throughput ----------------
  {
    ScenarioParams params;
    params.n = n;
    params.d = 8;
    params.seed = derive_seed(seed, 2, 0);
    AnyNetwork net = registry.at("PDGR").make_warmed(params);
    const int captures = 20;
    auto start = std::chrono::steady_clock::now();
    std::uint64_t total_nodes = 0;
    for (int i = 0; i < captures; ++i) total_nodes += net.snapshot().node_count();
    double elapsed = seconds_since(start);
    std::printf("\nsnapshot capture: %.2e nodes/sec (%d captures of ~%llu "
                "nodes)\n",
                static_cast<double>(total_nodes) / elapsed, captures,
                static_cast<unsigned long long>(total_nodes /
                                                static_cast<std::uint64_t>(
                                                    captures)));

    // Analysis kernels on one frozen snapshot (regression guards for the
    // expansion and graph-algorithm subsystems).
    const Snapshot snap = net.snapshot();
    Rng probe_rng(derive_seed(seed, 4, 0));
    start = std::chrono::steady_clock::now();
    const ProbeResult probe = probe_expansion(snap, probe_rng, {});
    elapsed = seconds_since(start);
    std::printf("expansion probe: %.3fs (%llu candidate sets, min ratio "
                "%.3f)\n",
                elapsed,
                static_cast<unsigned long long>(probe.sets_probed),
                probe.min_ratio);

    const int bfs_runs = 5;
    start = std::chrono::steady_clock::now();
    std::uint64_t reached = 0;
    for (int i = 0; i < bfs_runs; ++i) {
      reached += bfs_distances(snap, static_cast<std::uint32_t>(
                                         i % snap.node_count()))
                     .size();
    }
    elapsed = seconds_since(start);
    std::printf("BFS distances: %.2e nodes/sec (%d sources)\n",
                static_cast<double>(reached) / elapsed, bfs_runs);
  }

  // --- section 3: replicated flooding through the TrialRunner ------------
  const unsigned width = pool_width(threads, reps);
  std::printf("\n--- replicated flooding (n=%u, %llu reps, %u thread%s) "
              "---\n",
              flood_n, static_cast<unsigned long long>(reps), width,
              width == 1 ? "" : "s");
  Table floods({"scenario", "d", "floods/sec", "mean steps", "completed",
                "wall s"});
  std::uint64_t stream = 10;
  for (const char* name : {"SDGR", "PDGR"}) {
    const std::uint32_t d = *name == 'S' ? 21 : 35;
    TrialRunnerOptions options;
    options.replications = reps;
    options.threads = threads;
    options.base_seed = seed;
    options.stream = stream++;
    const Scenario& scenario = registry.at(name);
    const TrialResult result = TrialRunner(options).run(
        {"completion_step", "completed"},
        [&scenario, flood_n, d](const TrialContext& ctx) {
          ScenarioParams params;
          params.n = flood_n;
          params.d = d;
          params.seed = ctx.seed;
          AnyNetwork net = scenario.make_warmed(params);
          thread_local ProtocolScratch scratch;  // reused per worker
          FloodOptions flood_options;
          flood_options.max_steps = static_cast<std::uint64_t>(
              30.0 * std::log2(static_cast<double>(flood_n)));
          const FloodTrace trace = net.flood(flood_options, scratch);
          return std::vector<double>{
              trace.completed ? static_cast<double>(trace.completion_step)
                              : std::nan(""),
              trace.completed ? 1.0 : 0.0};
        });
    floods.add_row(
        {name, fmt_int(d),
         fmt_fixed(static_cast<double>(reps) / result.wall_seconds(), 2),
         result.stats("completion_step").count() > 0
             ? fmt_fixed(result.stats("completion_step").mean(), 2)
             : "-",
         fmt_int(static_cast<std::int64_t>(
             result.stats("completed").count() > 0
                 ? result.stats("completed").mean() *
                       static_cast<double>(reps)
                 : 0)),
         fmt_fixed(result.wall_seconds(), 3)});
  }
  floods.print(std::cout);
  return 0;
}
