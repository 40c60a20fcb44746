// Quickstart: pick a paper model from the scenario registry by name, flood
// a message from a newborn node, and replicate the experiment across a
// thread pool — the five-minute tour of the engine-era public API.
//
//   ./quickstart [--scenario PDGR] [--n 10000] [--d 8] [--seed 7]
//                [--reps 8] [--threads 2]
//
// Flow: select a Scenario, build a warmed AnyNetwork, snapshot it, run a
// process, then replicate the experiment as a one-cell sweep on the
// SweepService for seed-decorrelated, parallel statistics.
#include <cstdio>
#include <iostream>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;

  Cli cli("quickstart: flood a message through a churning random network");
  cli.add_string("scenario",
                 "PDGR", "model to run: SDG, SDGR, PDG, PDGR, static-dout, "
                 "erdos-renyi");
  cli.add_int("n", 10000, "target network size");
  cli.add_int("d", 8, "out-requests per node");
  cli.add_int("seed", 7, "random seed");
  cli.add_int("reps", 8, "replications for the summary table");
  cli.add_int("threads", 2, "worker threads for the replications");
  if (!cli.parse(argc, argv)) return 0;

  const auto d =
      static_cast<std::uint32_t>(cli.get_int_in("d", 1, kMaxBenchSize));
  const std::uint32_t n =
      checked_node_count(cli.get_int_in("n", 1, kMaxBenchSize), d);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::uint64_t reps = cli.get_int_in("reps", 1, kMaxBenchCount);
  const unsigned threads = threads_from_cli(cli);

  // 1. Runtime model selection: every (model x edge-policy) configuration
  // the paper studies is one named Scenario in the registry.
  const Scenario& scenario =
      ScenarioRegistry::paper().at(cli.get_string("scenario"));
  std::printf("scenario %s: %s\n", scenario.name().c_str(),
              scenario.description().c_str());

  ScenarioParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  std::printf("warming up (n=%u, d=%u)...\n", n, d);
  AnyNetwork net = scenario.make_warmed(params);

  // 2. Inspect a snapshot: sizes, degrees, connectivity.
  const Snapshot snap = net.snapshot();
  const DegreeStats degrees = degree_stats(snap);
  const Components components = connected_components(snap);
  std::printf("snapshot: %u nodes, %llu edges, mean degree %.2f "
              "(min %u, max %u), %u isolated\n",
              snap.node_count(),
              static_cast<unsigned long long>(snap.edge_count()),
              degrees.mean, degrees.min, degrees.max, degrees.isolated);
  std::printf("largest component: %u of %u nodes\n", components.largest_size,
              snap.node_count());

  // Probe the vertex expansion (upper bound; Theorem 4.16 says >= 0.1).
  Rng probe_rng(seed + 1);
  const ProbeResult probe = probe_expansion(snap, probe_rng, {});
  std::printf("expansion probe: min |bd(S)|/|S| = %.3f over %llu candidate "
              "sets (worst: %s, |S|=%u)\n",
              probe.min_ratio,
              static_cast<unsigned long long>(probe.sets_probed),
              probe.argmin_family.c_str(), probe.argmin_size);

  // 3. Flood from the next newborn under the model's own semantics
  // (synchronous Def. 3.3, discretized Def. 4.3, or BFS on a baseline).
  const FloodTrace trace = net.flood();
  if (trace.completed) {
    std::printf("flooding completed in %llu steps (alive: %llu)\n",
                static_cast<unsigned long long>(trace.completion_step),
                static_cast<unsigned long long>(trace.alive_per_step.back()));
  } else {
    std::printf("flooding stopped after %llu steps at %.1f%% coverage\n",
                static_cast<unsigned long long>(trace.steps),
                100.0 * trace.final_fraction);
  }
  std::printf("per-step informed counts:");
  for (const std::uint64_t count : trace.informed_per_step) {
    std::printf(" %llu", static_cast<unsigned long long>(count));
  }
  std::printf("\n");

  // 4. Replicate: a one-cell sweep reruns the experiment under
  // decorrelated seeds (replication r uses derive_seed(seed, 0, r)) on the
  // engine's job pool; the statistics are identical at any --threads.
  SweepSpec spec;
  spec.scenarios = {scenario.name()};
  spec.n_values = {n};
  spec.d_values = {d};
  spec.metrics = {"completion_step", "final_fraction"};
  spec.replications = reps;
  spec.base_seed = seed;
  const SweepResult result = SweepService(spec, {.threads = threads}).run();
  std::printf("\n%llu replications on %u thread(s) in %.2fs:\n",
              static_cast<unsigned long long>(spec.replications),
              result.threads_used(), result.wall_seconds());
  result.to_table().print(std::cout);
  return 0;
}
