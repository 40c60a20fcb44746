// Canonical performance-trajectory suite: one binary, one JSON artifact
// (BENCH_core.json) that records the repo's three load-bearing throughput
// numbers — churn rounds/sec, flood steps/sec, sweep cells/sec — at fixed
// seeds, so every PR appends a comparable point to the perf history.
//
// The JSON separates three kinds of fields per section:
//   * "config":        the workload shape (n, d, steps, seed, ...);
//   * "deterministic": seed-pinned results (counts, completion steps,
//                      topology/sample checksums) that must be identical on
//                      every machine and every PR that claims behavioral
//                      compatibility — CI diffs these against a checked-in
//                      golden (tools/diff_bench_golden.py) to catch silent
//                      behavior drift;
//   * "perf":          wall-clock-derived rates, machine-dependent, never
//                      diffed — they ARE the trajectory.
//
// Engineering bench only; reproduces no paper claim.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

/// The process's peak resident set so far (getrusage), in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// FNV-1a over structured data; all checksums below are built from observable
// API results only (node ids, edge targets, sample values), so they are
// stable across storage-layout changes but move on any behavioral change.
struct Fnv {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  }
  void add_double(double value) {
    // NaN payloads are implementation detail; fold every NaN to one token.
    if (std::isnan(value)) {
      add(0x7FF8DEADBEEF0000ULL);
      return;
    }
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    add(bits);
  }
};

std::uint64_t graph_checksum(const DynamicGraph& graph) {
  Fnv fnv;
  for (const NodeId node : graph.alive_nodes()) {
    fnv.add((static_cast<std::uint64_t>(node.slot) << 32) | node.generation);
    fnv.add(graph.birth_seq(node));
    for (std::uint32_t i = 0; i < graph.out_slot_count(node); ++i) {
      const NodeId target = graph.out_target(node, i);
      fnv.add((static_cast<std::uint64_t>(target.slot) << 32) |
              target.generation);
    }
  }
  return fnv.hash;
}

std::string hex(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("core perf-trajectory suite: churn rounds/sec, flood steps/sec, "
          "sweep cells/sec + deterministic drift guards (BENCH_core.json)");
  cli.add_int("n", 100000, "network size for the churn section");
  cli.add_int("steps", 300000, "churn steps per scenario");
  cli.add_int("flood-n", 4000, "network size per flooding replication");
  cli.add_int("flood-reps", 8, "flooding replications per scenario");
  cli.add_int("large-n", 0,
              "network size for the flood_large_n section (0 = by scale: "
              "1M quick, 2M default, 10M full)");
  cli.add_string("out", "BENCH_core.json", "output JSON path");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  // The sections build graphs of d = 8 (churn, large-n) and up to
  // d = 35 (flood) out-slots per node.
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 2000),
      8);
  const std::uint64_t steps = scaled(
      cli.get_int_in("steps", 1, kMaxBenchCount), scale.size_factor, 20000);
  const std::uint32_t flood_n = checked_node_count(
      scaled(cli.get_int_in("flood-n", 1, kMaxBenchSize), scale.size_factor,
             500),
      35);
  const std::uint64_t flood_reps = scaled(
      cli.get_int_in("flood-reps", 1, kMaxBenchCount), scale.rep_factor, 2);
  const std::uint64_t seed = seed_from_cli(cli);
  const std::int64_t large_n_flag =
      cli.get_int_in("large-n", 0, kMaxBenchSize);
  const std::uint32_t large_n = checked_node_count(
      large_n_flag > 0          ? static_cast<std::uint64_t>(large_n_flag)
      : scale.size_factor < 1.0 ? 1'000'000
      : scale.size_factor > 1.0 ? 10'000'000
                                : 2'000'000,
      8);

  print_experiment_header(
      "perf trajectory suite",
      "engineering throughput + drift guards (no paper claim); "
      "deterministic fields are identical on every machine");

  const ScenarioRegistry& registry = ScenarioRegistry::paper();
  std::ostringstream json;
  json << "{\n  \"bench\": \"perf_suite\",\n  \"version\": 1,\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"size_factor\": " << scale.size_factor << ",\n"
       << "  \"sections\": {\n";

  // --- section 1: churn rounds/sec ---------------------------------------
  std::printf("--- churn throughput (n=%u, %llu steps each) ---\n", n,
              static_cast<unsigned long long>(steps));
  Table churn_table({"scenario", "events/sec", "alive", "edges", "checksum"});
  json << "    \"churn\": {\n      \"config\": {\"n\": " << n
       << ", \"d\": 8, \"steps\": " << steps << "},\n"
       << "      \"scenarios\": {\n";
  bool first = true;
  for (const char* name : {"SDG", "SDGR", "PDG", "PDGR"}) {
    ScenarioParams params;
    params.n = n;
    params.d = 8;
    params.seed = derive_seed(seed, 1, 0);
    AnyNetwork net = registry.at(name).make_warmed(params);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < steps; ++i) net.step();
    const double elapsed = seconds_since(start);
    const double rate = static_cast<double>(steps) / elapsed;
    const std::uint64_t checksum = graph_checksum(net.graph());
    churn_table.add_row({name, fmt_sci(rate, 2), fmt_int(net.graph().alive_count()),
                         fmt_int(static_cast<std::int64_t>(
                             net.graph().edge_count())),
                         hex(checksum)});
    json << (first ? "" : ",\n") << "        \"" << name
         << "\": {\"deterministic\": {\"alive\": "
         << net.graph().alive_count()
         << ", \"edges\": " << net.graph().edge_count()
         << ", \"births\": " << net.graph().total_births()
         << ", \"graph_checksum\": \"" << hex(checksum)
         << "\"}, \"perf\": {\"events_per_sec\": " << fmt_fixed(rate, 1)
         << ", \"wall_seconds\": " << fmt_fixed(elapsed, 4) << "}}";
    first = false;
  }
  json << "\n      }\n    },\n";
  churn_table.print(std::cout);

  // --- section 1.5: adversarial churn overhead ----------------------------
  // Victim selection reads the live graph (the degree index, BFS balls),
  // so adversarial regimes pay per-death work the oblivious regimes skip.
  // This section tracks that overhead as perf (events/sec, with plain PDGR
  // rerun at the same size as the in-section baseline) and pins the
  // redirected-death trajectories as seed-pinned checksums. PDG+mindeg
  // keeps many isolated nodes in its smallest bucket; SDGR+cutset removes
  // arbitrary members of the streaming age ring. Sizes are a notch below
  // section 1, where the pinned checksums were taken.
  const auto adv_n = std::max<std::uint32_t>(1000, n / 20);
  const std::uint64_t adv_steps = std::max<std::uint64_t>(10000, steps / 10);
  std::printf("\n--- adversarial churn overhead (n=%u, %llu steps each) "
              "---\n",
              adv_n, static_cast<unsigned long long>(adv_steps));
  Table adv_table({"scenario", "events/sec", "alive", "edges", "checksum"});
  json << "    \"adversarial_churn\": {\n      \"config\": {\"n\": " << adv_n
       << ", \"d\": 8, \"steps\": " << adv_steps << "},\n"
       << "      \"scenarios\": {\n";
  first = true;
  for (const char* name :
       {"PDGR", "PDGR+maxdeg(1)", "PDGR+eclipse(1)", "PDGR+cutset(1)",
        "PDGR+massfail(0.1,1)", "SDGR+maxdeg(1)", "PDG+mindeg(1)",
        "SDGR+cutset(1)"}) {
    ScenarioParams params;
    params.n = adv_n;
    params.d = 8;
    params.seed = derive_seed(seed, 7, 0);
    AnyNetwork net =
        ScenarioRegistry::extended().resolve(name).make_warmed(params);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < adv_steps; ++i) net.step();
    const double elapsed = seconds_since(start);
    const double rate = static_cast<double>(adv_steps) / elapsed;
    const std::uint64_t checksum = graph_checksum(net.graph());
    adv_table.add_row({name, fmt_sci(rate, 2),
                       fmt_int(net.graph().alive_count()),
                       fmt_int(static_cast<std::int64_t>(
                           net.graph().edge_count())),
                       hex(checksum)});
    json << (first ? "" : ",\n") << "        \"" << name
         << "\": {\"deterministic\": {\"alive\": "
         << net.graph().alive_count()
         << ", \"edges\": " << net.graph().edge_count()
         << ", \"births\": " << net.graph().total_births()
         << ", \"graph_checksum\": \"" << hex(checksum)
         << "\"}, \"perf\": {\"events_per_sec\": " << fmt_fixed(rate, 1)
         << ", \"wall_seconds\": " << fmt_fixed(elapsed, 4) << "}}";
    first = false;
  }
  json << "\n      }\n    },\n";
  adv_table.print(std::cout);

  // --- section 2: flood steps/sec ----------------------------------------
  std::printf("\n--- flooding throughput (n=%u, %llu reps each) ---\n",
              flood_n, static_cast<unsigned long long>(flood_reps));
  Table flood_table({"scenario", "d", "steps/sec", "completed", "checksum"});
  json << "    \"flood\": {\n      \"config\": {\"n\": " << flood_n
       << ", \"reps\": " << flood_reps << "},\n      \"scenarios\": {\n";
  first = true;
  ProtocolScratch scratch;
  for (const char* name : {"SDGR", "PDGR"}) {
    const std::uint32_t d = *name == 'S' ? 21 : 35;
    const Scenario& scenario = registry.at(name);
    std::uint64_t total_steps = 0;
    std::uint64_t completed = 0;
    std::uint64_t completion_sum = 0;
    Fnv series;
    double elapsed = 0.0;
    for (std::uint64_t rep = 0; rep < flood_reps; ++rep) {
      ScenarioParams params;
      params.n = flood_n;
      params.d = d;
      params.seed = derive_seed(seed, 2, rep);
      AnyNetwork net = scenario.make_warmed(params);
      FloodOptions options;
      options.max_steps = static_cast<std::uint64_t>(
          30.0 * std::log2(static_cast<double>(flood_n)));
      const auto start = std::chrono::steady_clock::now();
      const FloodTrace trace = net.flood(options, scratch);
      elapsed += seconds_since(start);
      total_steps += trace.steps;
      completed += trace.completed ? 1 : 0;
      completion_sum += trace.completed ? trace.completion_step : 0;
      for (const std::uint64_t informed : trace.informed_per_step) {
        series.add(informed);
      }
    }
    const double rate = static_cast<double>(total_steps) / elapsed;
    flood_table.add_row({name, fmt_int(d), fmt_sci(rate, 2),
                         fmt_int(static_cast<std::int64_t>(completed)),
                         hex(series.hash)});
    json << (first ? "" : ",\n") << "        \"" << name
         << "\": {\"deterministic\": {\"d\": " << d
         << ", \"total_steps\": " << total_steps
         << ", \"completed\": " << completed
         << ", \"completion_sum\": " << completion_sum
         << ", \"series_checksum\": \"" << hex(series.hash)
         << "\"}, \"perf\": {\"steps_per_sec\": " << fmt_fixed(rate, 1)
         << ", \"wall_seconds\": " << fmt_fixed(elapsed, 4) << "}}";
    first = false;
  }
  json << "\n      }\n    },\n";
  flood_table.print(std::cout);

  // --- section 2.5: ten-million-node trial (bitset frontier path) ---------
  // One SDG trial at the tentpole scale, phase by phase: the n-round
  // streaming growth (bulk-wired genesis), one capped flood from the next
  // newborn, a steady-state churn segment, then the sweep's shape — an
  // uncapped flood of the warmed network. Deterministic fields
  // pin the realization; the rates are the headline single-machine
  // numbers in README's perf table.
  {
    std::printf("\n--- large-n flood (SDG, n=%u, d=8) ---\n", large_n);
    StreamingConfig config;
    config.n = large_n;
    config.d = 8;
    config.policy = EdgePolicy::kNone;  // SDG
    config.seed = derive_seed(seed, 4, 0);
    StreamingNetwork net(config);

    const auto growth_start = std::chrono::steady_clock::now();
    net.run_growth_phase();
    const double growth_elapsed = seconds_since(growth_start);
    const double growth_rate =
        static_cast<double>(large_n) / growth_elapsed;

    FloodOptions options;
    options.max_steps = static_cast<std::uint64_t>(
        30.0 * std::log2(static_cast<double>(large_n)));
    const auto flood_start = std::chrono::steady_clock::now();
    const FloodTrace trace = flood_dynamic(net, options, scratch);
    const double flood_elapsed = seconds_since(flood_start);

    // Steady-state churn throughput at this scale (capped: the point is
    // the per-round cost with a 10M-slot working set, not another n
    // rounds of wall-clock).
    const std::uint64_t churn_rounds =
        std::min<std::uint64_t>(large_n, 1'000'000);
    const auto churn_start = std::chrono::steady_clock::now();
    net.run_rounds(churn_rounds);
    const double churn_elapsed = seconds_since(churn_start);
    const double churn_rate =
        static_cast<double>(churn_rounds) / churn_elapsed;

    Fnv series;
    for (const std::uint64_t informed : trace.informed_per_step) {
      series.add(informed);
    }
    for (const std::uint64_t alive : trace.alive_per_step) {
      series.add(alive);
    }
    const std::uint64_t checksum = graph_checksum(net.graph());
    const std::uint64_t churned_alive = net.graph().alive_count();
    const std::uint64_t churned_edges = net.graph().edge_count();
    // Live memory after the churn segment: the graph's arrays per alive
    // node (capacity, so reserved headroom counts).
    const double arena_bytes_per_node =
        static_cast<double>(net.graph().arena_bytes()) /
        static_cast<double>(churned_alive);

    // The sweep's flood shape: the now warmed network flooded once more
    // with default options, i.e. to completion — on SDG that means waiting
    // for the isolated nodes to die, a long run of nearly idle steps.
    const auto warm_start = std::chrono::steady_clock::now();
    const FloodTrace warm = flood_dynamic(net, FloodOptions{}, scratch);
    const double warm_elapsed = seconds_since(warm_start);
    Fnv warm_series;
    for (const std::uint64_t informed : warm.informed_per_step) {
      warm_series.add(informed);
    }
    for (const std::uint64_t alive : warm.alive_per_step) {
      warm_series.add(alive);
    }

    std::printf("growth: %.2fs (%.2e rounds/sec)   flood: %llu steps in "
                "%.2fs (frac %.4f)   steady churn: %.2e rounds/sec\n",
                growth_elapsed, growth_rate,
                static_cast<unsigned long long>(trace.steps), flood_elapsed,
                trace.final_fraction, churn_rate);
    std::printf("warm flood (default options): %llu steps in %.2fs "
                "(completed %d)\n",
                static_cast<unsigned long long>(warm.steps), warm_elapsed,
                warm.completed ? 1 : 0);
    const double peak_mb = peak_rss_mb();
    std::printf("memory: arena %.1f B/node after churn, process peak RSS "
                "%.1f MB\n",
                arena_bytes_per_node, peak_mb);
    json << "    \"flood_large_n\": {\n      \"config\": {\"n\": " << large_n
         << ", \"d\": 8, \"scenario\": \"SDG\", \"churn_rounds\": "
         << churn_rounds << "},\n"
         << "      \"deterministic\": {\"alive\": " << churned_alive
         << ", \"edges\": " << churned_edges
         << ", \"flood_steps\": " << trace.steps
         << ", \"completed\": " << (trace.completed ? 1 : 0)
         << ", \"peak_informed\": " << trace.peak_informed
         << ", \"series_checksum\": \"" << hex(series.hash)
         << "\", \"graph_checksum\": \"" << hex(checksum)
         << "\", \"warm_flood_steps\": " << warm.steps
         << ", \"warm_flood_completed\": " << (warm.completed ? 1 : 0)
         << ", \"warm_series_checksum\": \"" << hex(warm_series.hash)
         << "\"},\n      \"perf\": {\"growth_rounds_per_sec\": "
         << fmt_fixed(growth_rate, 1)
         << ", \"churn_rounds_per_sec\": " << fmt_fixed(churn_rate, 1)
         << ", \"growth_wall_seconds\": " << fmt_fixed(growth_elapsed, 4)
         << ", \"flood_wall_seconds\": " << fmt_fixed(flood_elapsed, 4)
         << ", \"churn_wall_seconds\": " << fmt_fixed(churn_elapsed, 4)
         << ", \"warm_flood_wall_seconds\": " << fmt_fixed(warm_elapsed, 4)
         << ", \"arena_bytes_per_node\": "
         << fmt_fixed(arena_bytes_per_node, 1)
         << ", \"peak_rss_mb\": " << fmt_fixed(peak_mb, 1)
         << "}\n    },\n";
  }

  // --- section 3: sweep cells/sec ----------------------------------------
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR+pareto(2.5)"};
  spec.n_values = {1000};
  spec.d_values = {8};
  spec.protocols = {"flood", "push(3)"};
  spec.metrics = {"alive", "completion_step", "final_fraction", "messages"};
  spec.replications = 4;
  spec.base_seed = derive_seed(seed, 3, 0);
  std::printf("\n--- sweep throughput (%zu cells x %llu reps) ---\n",
              spec.cell_count(),
              static_cast<unsigned long long>(spec.replications));
  const SweepResult sweep = SweepService(spec, {.threads = 1}).run();
  Fnv samples;
  for (const auto& cell : sweep.samples()) {
    for (const auto& rep : cell) {
      for (const double value : rep) samples.add_double(value);
    }
  }
  const double cell_rate =
      static_cast<double>(sweep.cells().size()) / sweep.wall_seconds();
  std::printf("cells/sec: %.2f   samples checksum: %s\n", cell_rate,
              hex(samples.hash).c_str());
  json << "    \"sweep\": {\n      \"config\": {\"cells\": "
       << sweep.cells().size() << ", \"replications\": " << spec.replications
       << ", \"base_seed\": " << spec.base_seed << "},\n"
       << "      \"deterministic\": {\"samples_checksum\": \""
       << hex(samples.hash) << "\"},\n"
       << "      \"perf\": {\"cells_per_sec\": " << fmt_fixed(cell_rate, 3)
       << ", \"wall_seconds\": " << fmt_fixed(sweep.wall_seconds(), 4)
       << "}\n    },\n";

  // --- section 3.5: sweep service (threads + checkpoint) -------------------
  // Section 3's spec through the campaign service (engine/sweep_service):
  // its job pool at 1, 2 and 4 threads, and the checkpoint journal. The
  // deterministic fields pin the byte-identity contract — every mode must
  // reproduce section 3's samples checksum — separately from the rates,
  // which are the pool's scaling trajectory and the journal's overhead.
  {
    const auto service_checksum = [](const SweepResult& result) {
      Fnv fnv;
      for (const auto& cell : result.samples()) {
        for (const auto& rep : cell) {
          for (const double value : rep) fnv.add_double(value);
        }
      }
      return fnv.hash;
    };
    std::printf("\n--- sweep service (threads + checkpoint) ---\n");
    Table service_table({"mode", "cells/sec", "wall s", "samples match"});
    constexpr unsigned kThreadCounts[] = {1, 2, 4};
    double rates[3] = {};
    bool matches[3] = {};
    double base_wall = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      SweepServiceOptions options;
      options.threads = kThreadCounts[i];
      const SweepResult result = SweepService(spec, options).run();
      rates[i] = static_cast<double>(result.cells().size()) /
                 result.wall_seconds();
      matches[i] = service_checksum(result) == samples.hash;
      if (i == 0) base_wall = result.wall_seconds();
      char mode[32];
      std::snprintf(mode, sizeof(mode), "threads=%u", kThreadCounts[i]);
      service_table.add_row({mode, fmt_fixed(rates[i], 2),
                             fmt_fixed(result.wall_seconds(), 4),
                             matches[i] ? "yes" : "NO (BUG)"});
    }

    const std::filesystem::path ckpt_dir =
        std::filesystem::temp_directory_path() /
        ("churnet_bench_ckpt_" + std::to_string(::getpid()));
    std::filesystem::remove_all(ckpt_dir);
    SweepServiceOptions journaled_options;
    journaled_options.checkpoint_dir = ckpt_dir.string();
    const SweepResult journaled =
        SweepService(spec, journaled_options).run();
    const bool checkpoint_match = service_checksum(journaled) == samples.hash;
    const double checkpoint_overhead_pct =
        base_wall > 0.0 ? (journaled.wall_seconds() / base_wall - 1.0) * 100.0
                        : 0.0;
    SweepServiceOptions resume_options = journaled_options;
    resume_options.resume = true;
    SweepServiceReport resume_report;
    const SweepResult resumed =
        SweepService(spec, resume_options)
            .run(ScenarioRegistry::extended(), &resume_report);
    const bool resume_match = service_checksum(resumed) == samples.hash &&
                              resume_report.jobs_run == 0;
    std::filesystem::remove_all(ckpt_dir);
    service_table.add_row({"checkpoint", fmt_fixed(
                               static_cast<double>(journaled.cells().size()) /
                                   journaled.wall_seconds(), 2),
                           fmt_fixed(journaled.wall_seconds(), 4),
                           checkpoint_match ? "yes" : "NO (BUG)"});
    service_table.print(std::cout);
    const double scaling = rates[0] > 0.0 ? rates[2] / rates[0] : 0.0;
    std::printf("scaling 1->4 threads: %.2fx   checkpoint overhead: %.2f%%   "
                "resume replayed %llu job(s): %s\n",
                scaling, checkpoint_overhead_pct,
                static_cast<unsigned long long>(resume_report.jobs_resumed),
                resume_match ? "identical" : "DIFFERENT (BUG)");
    json << "    \"sweep_service\": {\n      \"config\": {\"cells\": "
         << spec.cell_count() << ", \"replications\": " << spec.replications
         << ", \"base_seed\": " << spec.base_seed << "},\n"
         << "      \"deterministic\": {\"threads1_samples_match\": "
         << (matches[0] ? "true" : "false")
         << ", \"threads2_samples_match\": " << (matches[1] ? "true" : "false")
         << ", \"threads4_samples_match\": " << (matches[2] ? "true" : "false")
         << ", \"checkpoint_samples_match\": "
         << (checkpoint_match ? "true" : "false")
         << ", \"resume_samples_match\": " << (resume_match ? "true" : "false")
         << "},\n      \"perf\": {\"threads1_cells_per_sec\": "
         << fmt_fixed(rates[0], 3)
         << ", \"threads2_cells_per_sec\": " << fmt_fixed(rates[1], 3)
         << ", \"threads4_cells_per_sec\": " << fmt_fixed(rates[2], 3)
         << ", \"scaling_1_to_4\": " << fmt_fixed(scaling, 2)
         << ", \"checkpoint_overhead_pct\": "
         << fmt_fixed(checkpoint_overhead_pct, 2) << "}\n    },\n";
  }

  // --- section 4: telemetry overhead --------------------------------------
  // Two contracts pinned here (src/telemetry/telemetry.hpp):
  //   * off-path: the exact same seeds produce the exact same graphs and
  //     sweep samples with span recording on or off (checksum equality is
  //     a deterministic field);
  //   * cheap: runtime-enabled spans add < 3% to the steady churn loop
  //     (spans wrap loops, never steps — the per-step cost is one
  //     thread-local counter add, paid in both modes).
  // The enabled sweep rerun also yields the per-phase wall breakdown for
  // the perf section (where a trial actually spends its time).
  std::printf("\n--- telemetry overhead (runtime spans on vs off) ---\n");
  const auto churn_loop = [&](bool enabled) {
    telemetry::set_enabled(enabled);
    ScenarioParams params;
    params.n = n;
    params.d = 8;
    params.seed = derive_seed(seed, 4, 0);
    AnyNetwork net = registry.at("SDGR").make_warmed(params);
    const auto start = std::chrono::steady_clock::now();
    {
      const telemetry::PhaseTimer span(telemetry::Phase::kChurn);
      for (std::uint64_t i = 0; i < steps; ++i) net.step();
    }
    const double elapsed = seconds_since(start);
    telemetry::set_enabled(false);
    struct Run {
      double rate;
      std::uint64_t checksum;
    };
    return Run{static_cast<double>(steps) / elapsed,
               graph_checksum(net.graph())};
  };
  const auto tel_off = churn_loop(false);
  const auto tel_on = churn_loop(true);
  const double overhead_pct = (tel_off.rate / tel_on.rate - 1.0) * 100.0;

  // The instrumented sweep rerun: same spec, same seeds, spans recording.
  // Its samples checksum must equal section 3's (telemetry never touches
  // any RNG); the recorder slice is the phase breakdown.
  telemetry::set_enabled(true);
  const telemetry::TrialRecorder recorder;
  const SweepResult sweep_on = SweepService(spec, {.threads = 1}).run();
  const telemetry::Totals totals = recorder.finish();
  telemetry::set_enabled(false);
  Fnv samples_on;
  for (const auto& cell : sweep_on.samples()) {
    for (const auto& rep : cell) {
      for (const double value : rep) samples_on.add_double(value);
    }
  }
  const bool churn_match = tel_on.checksum == tel_off.checksum;
  const bool sweep_match = samples_on.hash == samples.hash;
  std::printf("churn events/sec: %.3g off, %.3g on (overhead %.2f%%)\n",
              tel_off.rate, tel_on.rate, overhead_pct);
  std::printf("checksums with telemetry on: churn %s, sweep samples %s\n",
              churn_match ? "identical" : "DIFFERENT (BUG)",
              sweep_match ? "identical" : "DIFFERENT (BUG)");
  json << "    \"telemetry_overhead\": {\n      \"config\": {\"n\": " << n
       << ", \"d\": 8, \"steps\": " << steps << "},\n"
       << "      \"deterministic\": {\"churn_checksum\": \""
       << hex(tel_off.checksum) << "\", \"churn_checksum_match\": "
       << (churn_match ? "true" : "false")
       << ", \"sweep_samples_checksum_match\": "
       << (sweep_match ? "true" : "false") << "},\n"
       << "      \"perf\": {\"events_off_per_sec\": "
       << fmt_fixed(tel_off.rate, 1)
       << ", \"events_on_per_sec\": " << fmt_fixed(tel_on.rate, 1)
       << ", \"overhead_pct\": " << fmt_fixed(overhead_pct, 2)
       << ",\n        \"sweep_phase_seconds\": {";
  bool first_phase = true;
  for (std::size_t p = 0; p < telemetry::kPhaseCount; ++p) {
    json << (first_phase ? "" : ", ") << '"'
         << telemetry::phase_name(static_cast<telemetry::Phase>(p))
         << "\": "
         << fmt_fixed(static_cast<double>(totals.phase_ns[p]) * 1e-9, 4);
    first_phase = false;
  }
  json << "}\n      }\n    }\n  }\n}\n";

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
