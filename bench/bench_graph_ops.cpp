// Microbenchmark for the DynamicGraph arena: per-operation cost of the
// churn-loop primitives in isolation (add/remove/set/clear/full churn
// cycle), with and without a warm RemovalScratch, so future graph-layer
// changes have a tight feedback loop independent of the model layer.
// Engineering bench only; reproduces no paper claim.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "benchutil/experiment.hpp"
#include "common/table.hpp"
#include "graph/dynamic_graph.hpp"

namespace {

using namespace churnet;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Builds a warmed graph of `n` nodes with `d` fully wired out-slots.
DynamicGraph make_wired(std::uint32_t n, std::uint32_t d, Rng& rng,
                        std::vector<NodeId>& nodes, bool reserve) {
  DynamicGraph graph;
  if (reserve) graph.reserve(n, d);
  nodes.clear();
  for (std::uint32_t i = 0; i < n; ++i) {
    nodes.push_back(graph.add_node(d, 0.0));
  }
  for (const NodeId owner : nodes) {
    for (std::uint32_t slot = 0; slot < d; ++slot) {
      const NodeId target = graph.random_alive_other(rng, owner);
      if (target.valid()) graph.set_out_edge(owner, slot, target);
    }
  }
  return graph;
}

/// One full churn cycle: kill a random node, regenerate its orphans, birth
/// a replacement, wire its d requests — the streaming round in miniature.
template <typename RemoveFn>
void churn_cycle(DynamicGraph& graph, Rng& rng, std::uint32_t d,
                 const RemoveFn& remove_and_regen) {
  const NodeId victim = graph.random_alive(rng);
  remove_and_regen(victim);
  const NodeId born = graph.add_node(d, 0.0);
  for (std::uint32_t slot = 0; slot < d; ++slot) {
    const NodeId target = graph.random_alive_other(rng, born);
    if (target.valid()) graph.set_out_edge(born, slot, target);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("DynamicGraph per-operation microbenchmark (arena hot paths)");
  cli.add_int("n", 100000, "graph size");
  cli.add_int("d", 8, "out-slots per node");
  cli.add_int("ops", 400000, "operations per measurement");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto d =
      static_cast<std::uint32_t>(cli.get_int_in("d", 1, kMaxBenchSize));
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 2000),
      d);
  const std::uint64_t ops = scaled(cli.get_int_in("ops", 1, kMaxBenchCount),
                                   scale.size_factor, 20000);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "graph ops",
      "engineering per-op latency only (no paper claim); arena layout hot "
      "paths in isolation");
  std::printf("n=%u d=%u ops=%llu\n\n", n, d,
              static_cast<unsigned long long>(ops));

  Table table({"operation", "ns/op", "ops/sec", "wall s"});
  const auto add_result = [&](const char* name, double elapsed,
                              std::uint64_t count) {
    table.add_row({name,
                   fmt_fixed(1e9 * elapsed / static_cast<double>(count), 1),
                   fmt_sci(static_cast<double>(count) / elapsed, 2),
                   fmt_fixed(elapsed, 3)});
  };

  std::vector<NodeId> nodes;

  // --- churn cycle, warm scratch (the model layer's steady-state path) ----
  {
    Rng rng(derive_seed(seed, 1, 0));
    DynamicGraph graph = make_wired(n, d, rng, nodes, /*reserve=*/true);
    RemovalScratch scratch;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      churn_cycle(graph, rng, d, [&](NodeId victim) {
        graph.remove_node(victim, scratch);
        for (const OutSlotRef& orphan : scratch.orphans) {
          const NodeId target = graph.random_alive_other(rng, orphan.owner);
          if (target.valid()) {
            graph.set_out_edge(orphan.owner, orphan.index, target);
          }
        }
      });
    }
    add_result("churn cycle (warm scratch)", seconds_since(start), ops);
  }

  // --- churn cycle, allocating orphan vectors (the historical API) --------
  {
    Rng rng(derive_seed(seed, 1, 0));
    DynamicGraph graph = make_wired(n, d, rng, nodes, /*reserve=*/true);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      churn_cycle(graph, rng, d, [&](NodeId victim) {
        const std::vector<OutSlotRef> orphans = graph.remove_node(victim);
        for (const OutSlotRef& orphan : orphans) {
          const NodeId target = graph.random_alive_other(rng, orphan.owner);
          if (target.valid()) {
            graph.set_out_edge(orphan.owner, orphan.index, target);
          }
        }
      });
    }
    add_result("churn cycle (alloc per death)", seconds_since(start), ops);
  }

  // --- pure add/remove pair (no wiring) -----------------------------------
  {
    Rng rng(derive_seed(seed, 2, 0));
    DynamicGraph graph = make_wired(n, d, rng, nodes, /*reserve=*/true);
    RemovalScratch scratch;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const NodeId victim = graph.random_alive(rng);
      graph.remove_node(victim, scratch);
      graph.add_node(d, 0.0);
    }
    add_result("add+remove pair", seconds_since(start), ops);
  }

  // --- rewire: clear + set of one existing out-edge -----------------------
  {
    Rng rng(derive_seed(seed, 3, 0));
    DynamicGraph graph = make_wired(n, d, rng, nodes, /*reserve=*/true);
    std::uint64_t rewired = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const NodeId owner = graph.random_alive(rng);
      const auto slot = static_cast<std::uint32_t>(rng.below(d));
      if (!graph.out_target(owner, slot).valid()) continue;
      graph.clear_out_edge(owner, slot);
      const NodeId target = graph.random_alive_other(rng, owner);
      if (target.valid()) graph.set_out_edge(owner, slot, target);
      ++rewired;
    }
    add_result("rewire (clear+set)", seconds_since(start),
               rewired > 0 ? rewired : 1);
  }

  // --- cold construction: build + tear down without reserve ---------------
  {
    Rng rng(derive_seed(seed, 4, 0));
    const std::uint32_t builds = 4;
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t touched = 0;
    for (std::uint32_t b = 0; b < builds; ++b) {
      DynamicGraph graph = make_wired(n, d, rng, nodes, /*reserve=*/false);
      touched += graph.edge_count();
    }
    add_result("full build (no reserve), per node", seconds_since(start),
               static_cast<std::uint64_t>(builds) * n);
    if (touched == 0) std::printf("(unexpected empty build)\n");
  }

  table.print(std::cout);
  return 0;
}
