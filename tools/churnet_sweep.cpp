// churnet_sweep: config-driven parameter sweeps over the scenario space.
//
// Runs a declarative grid — scenario list (any registry name, including
// "PDGR+pareto(2.5)+push(3)" churn/protocol composites) × protocol list
// (optional dissemination axis) × n list × d list — with replicated,
// seed-decorrelated trials fanned across the engine's thread pool, and
// emits a tidy long-format CSV and/or a JSON summary (message-complexity
// columns included). The output is bit-identical at every --threads value.
//
//   # inline grid (comma-separated lists)
//   ./churnet_sweep --scenarios PDGR,PDGR+pareto(2.5) --n 500,1000 --d 4,8 \
//                   --protocols "flood,push(3),push(3)+lossy(0.9)" \
//                   --reps 8 --threads 8 --csv sweep.csv
//
//   # JSON config file (same keys as the SweepSpec schema)
//   ./churnet_sweep --config sweep.json --json summary.json
//
//   # sweep service: checkpointed + streaming results; kill it at any
//   # point and --resume finishes the campaign with final CSV/JSON
//   # byte-identical to an uninterrupted run
//   ./churnet_sweep --config sweep.json --threads 4 --checkpoint ckpt/ \
//                   --resume --results rows.ndjson --csv sweep.csv
//
// Inline flags override the config file's values key by key.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

/// Applies the JSON reader's range rule for `key` to an integer flag's
/// value; exits 1 with the reason, prefixed by `what`, when it fails.
void check_flag_integer(const std::string& what, const char* key,
                        double value) {
  if (const auto reason = SweepSpec::check_integer(key, value)) {
    std::fprintf(stderr, "%s: %s\n", what.c_str(), reason->c_str());
    std::exit(1);
  }
}

std::vector<std::uint32_t> split_u32_list(const std::string& text,
                                          const char* flag) {
  std::vector<std::uint32_t> values;
  for (const std::string& part : split_spec_list(text)) {
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(part.c_str(), &end, 10);
    if (end != part.c_str() + part.size()) {
      std::fprintf(stderr, "--%s: bad entry '%s' (need integers >= 1)\n",
                   flag, part.c_str());
      std::exit(1);
    }
    check_flag_integer("--" + std::string(flag) + ": bad entry '" + part +
                           "'",
                       flag,
                       errno == ERANGE ? std::numeric_limits<double>::infinity()
                                       : static_cast<double>(value));
    values.push_back(static_cast<std::uint32_t>(value));
  }
  return values;
}

/// An integer flag where 0 keeps the config's value; any other value must
/// pass the JSON reader's rule for `key`. (Cli::parse already rejects text
/// that is not a whole int64.)
std::int64_t integer_flag(const Cli& cli, const char* flag, const char* key) {
  const std::int64_t value = cli.get_int(flag);
  if (value != 0) {
    check_flag_integer("--" + std::string(flag), key,
                       static_cast<double>(value));
  }
  return value;
}

/// Writes through a sink member to `path` ("-" = stdout).
template <typename Writer>
void write_sink(const std::string& path, const char* what, bool quiet,
                const Writer& writer) {
  if (path == "-") {
    writer(std::cout);
    return;
  }
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s file '%s'\n", what, path.c_str());
    std::exit(1);
  }
  writer(file);
  if (!quiet) std::printf("wrote %s to %s\n", what, path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "churnet_sweep: run a scenario x n x d grid with replicated trials "
      "and emit long-format CSV / JSON results");
  cli.add_string("config", "", "JSON sweep spec file (SweepSpec schema)");
  cli.add_string("scenarios", "",
                 "comma-separated scenario names; '+spec' attaches a churn "
                 "regime (e.g. PDGR+pareto(2.5))");
  cli.add_string("n", "", "comma-separated network sizes");
  cli.add_string("d", "", "comma-separated request counts");
  cli.add_string("protocols", "",
                 "comma-separated dissemination protocols (see "
                 "--list-protocols); empty = each scenario's own");
  cli.add_string("metrics", "",
                 "comma-separated metrics (see --list-metrics)");
  cli.add_string("observers", "",
                 "metric-observer set attached to every cell, e.g. "
                 "'expansion(8)+spectral+isolated' (see --list-observers)");
  cli.add_flag("incremental-observers",
               "accepted with no effect: observers have one path, and the "
               "flag and its spec key stay so that older specs still run");
  cli.add_int("reps", 0, "replications per cell (0 = config/default)");
  cli.add_int("seed", 0, "base seed (0 = config/default)");
  cli.add_int("max-in-degree", 0, "bounded-degree cap (0 = unbounded)");
  cli.add_int("threads", 1, "worker threads (0 = all cores)");
  cli.add_int("intra-threads", 0,
              "accepted with no effect: each trial runs on one thread, and "
              "the flag and its spec key stay so that older specs still run");
  cli.add_string("csv", "", "write long-format CSV here ('-' = stdout)");
  cli.add_string("json", "", "write JSON summary here ('-' = stdout)");
  cli.add_string("telemetry", "",
                 "stream an NDJSON telemetry trace here (phase timers, "
                 "counters, heartbeats; results stay byte-identical)");
  cli.add_string("results", "",
                 "stream NDJSON result rows here as jobs finish (schema "
                 "v1 sweep_header/row/sweep_footer; final CSV/JSON stay "
                 "byte-identical)");
  cli.add_string("checkpoint", "",
                 "journal completed jobs under this directory "
                 "(journal.ndjson, fsync'd per batch) so a killed run can "
                 "--resume with byte-identical final output");
  cli.add_flag("resume",
               "resume from --checkpoint's journal: completed jobs are "
               "restored, only missing ones run");
  cli.add_int("kill-after", 0,
              "test hook: sync the journal and raise SIGKILL after this "
              "many jobs complete (exercises crash/resume)");
  cli.add_flag("progress",
               "print heartbeat progress lines ([jobs/total] eta) to "
               "stderr while the sweep runs");
  cli.add_flag("list-metrics", "print the metric catalog and exit");
  cli.add_flag("list-scenarios", "print the extended registry and exit");
  cli.add_flag("list-protocols", "print the protocol catalog and exit");
  cli.add_flag("list-observers", "print the observer catalog and exit");
  cli.add_flag("list-churn", "print the churn-regime catalog and exit");
  cli.add_flag("list-specs",
               "print every spec catalog (scenarios, churn, protocols, "
               "observers, metrics) and exit");
  cli.add_flag("quiet", "suppress the stdout summary table");
  if (!cli.parse(argc, argv)) return 0;
  const auto threads =
      static_cast<unsigned>(cli.get_int_in("threads", 0, kMaxPoolThreads));

  // Every listing goes through the shared spec-catalog helper
  // (engine/spec_catalog.hpp), so churnet_sweep, churnet_repro and the
  // error paths below always cite the same catalogs.
  if (cli.get_flag("list-specs")) {
    print_spec_catalogs(std::cout);
    return 0;
  }
  if (cli.get_flag("list-metrics")) {
    print_metric_catalog(std::cout);
    return 0;
  }
  if (cli.get_flag("list-scenarios")) {
    print_scenario_catalog(std::cout, ScenarioRegistry::extended());
    return 0;
  }
  if (cli.get_flag("list-protocols")) {
    print_protocol_catalog(std::cout);
    return 0;
  }
  if (cli.get_flag("list-observers")) {
    print_observer_catalog(std::cout);
    return 0;
  }
  if (cli.get_flag("list-churn")) {
    print_churn_catalog(std::cout);
    return 0;
  }

  SweepSpec spec;
  const std::string config_path = cli.get_string("config");
  if (!config_path.empty()) {
    std::ifstream file(config_path);
    if (!file) {
      std::fprintf(stderr, "cannot read config file '%s'\n",
                   config_path.c_str());
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    std::string error;
    const std::optional<SweepSpec> loaded =
        SweepSpec::from_json_text(text.str(), &error);
    if (!loaded.has_value()) {
      std::fprintf(stderr, "%s: %s\n", config_path.c_str(), error.c_str());
      return 1;
    }
    spec = *loaded;
  }

  // Inline flags override config values key by key.
  if (!cli.get_string("scenarios").empty()) {
    spec.scenarios = split_spec_list(cli.get_string("scenarios"));
  }
  if (!cli.get_string("n").empty()) {
    spec.n_values = split_u32_list(cli.get_string("n"), "n");
  }
  if (!cli.get_string("d").empty()) {
    spec.d_values = split_u32_list(cli.get_string("d"), "d");
  }
  if (!cli.get_string("protocols").empty()) {
    spec.protocols = split_spec_list(cli.get_string("protocols"));
  }
  if (!cli.get_string("metrics").empty()) {
    spec.metrics = split_spec_list(cli.get_string("metrics"));
  }
  if (!cli.get_string("observers").empty()) {
    spec.observers = cli.get_string("observers");
  }
  if (cli.get_flag("incremental-observers")) {
    spec.incremental_observers = true;
  }
  if (const std::int64_t reps = integer_flag(cli, "reps", "replications");
      reps > 0) {
    spec.replications = static_cast<std::uint64_t>(reps);
  }
  if (cli.get_int("seed") > 0) {
    spec.base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  }
  if (const std::int64_t cap =
          integer_flag(cli, "max-in-degree", "max_in_degree");
      cap > 0) {
    spec.max_in_degree = static_cast<std::uint32_t>(cap);
  }
  if (const std::int64_t intra =
          integer_flag(cli, "intra-threads", "intra_threads");
      intra > 0) {
    spec.intra_threads = static_cast<std::uint32_t>(intra);
  }

  if (spec.scenarios.empty()) {
    std::fprintf(stderr,
                 "no grid: pass --config <file> or --scenarios/--n/--d "
                 "(see --help)\n");
    return 1;
  }
  // Scenario names are checked here too, so a bad one exits 1 with its
  // reason instead of aborting when the sweep resolves it.
  std::optional<std::string> reason = spec.validate();
  for (std::size_t i = 0; !reason.has_value() && i < spec.scenarios.size();
       ++i) {
    std::string error;
    if (!ScenarioRegistry::extended().try_resolve(spec.scenarios[i], &error)) {
      reason = error;
    }
  }
  if (reason.has_value()) {
    std::fprintf(stderr, "invalid sweep spec: %s\n", reason->c_str());
    std::cerr << '\n';
    print_spec_catalogs(std::cerr);
    return 1;
  }

  if (!cli.get_flag("quiet")) {
    std::printf("sweep: %zu scenario(s) x %zu protocol(s) x %zu n x %zu d "
                "= %zu cells, %llu replication(s) each\n",
                spec.scenarios.size(),
                std::max<std::size_t>(spec.protocols.size(), 1),
                spec.n_values.size(), spec.d_values.size(),
                spec.cell_count(),
                static_cast<unsigned long long>(spec.replications));
  }

  // Telemetry: optional NDJSON trace and/or stderr heartbeat. The sink is
  // off-path by construction (no RNG, clocks only) — CSV/JSON results are
  // byte-identical with or without it, at any thread count.
  const std::string telemetry_path = cli.get_string("telemetry");
  const bool progress = cli.get_flag("progress");
  std::ofstream trace_file;
  if (!telemetry_path.empty()) {
    trace_file.open(telemetry_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open telemetry file '%s'\n",
                   telemetry_path.c_str());
      return 1;
    }
  }
  std::optional<telemetry::ScopedTraceSink> scoped_sink;
  if (trace_file.is_open() || progress) {
    telemetry::TraceSink::Options options;
    options.out = trace_file.is_open() ? &trace_file : nullptr;
    options.progress = progress;
    options.tool = "churnet_sweep";
    scoped_sink.emplace(options);
  }

  // Everything routes through the sweep service: with no service flags it
  // is the job pool, and --checkpoint/--resume/--results compose on top
  // without changing a byte of the CSV/JSON output.
  SweepServiceOptions service;
  service.threads = threads;
  service.checkpoint_dir = cli.get_string("checkpoint");
  service.resume = cli.get_flag("resume");
  service.kill_after =
      static_cast<std::uint64_t>(cli.get_int("kill-after"));
  service.tool = "churnet_sweep";
  if (service.resume && service.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint <dir>\n");
    return 1;
  }
  std::ofstream results_file;
  const std::string results_path = cli.get_string("results");
  if (!results_path.empty()) {
    results_file.open(results_path);
    if (!results_file) {
      std::fprintf(stderr, "cannot open results file '%s'\n",
                   results_path.c_str());
      return 1;
    }
    service.results = &results_file;
  }

  SweepServiceReport report;
  std::optional<SweepResult> result;
  try {
    result.emplace(SweepService(spec, service)
                       .run(ScenarioRegistry::extended(), &report));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  scoped_sink.reset();  // flush trace_end before reporting

  if (!cli.get_flag("quiet")) {
    result->to_table().print(std::cout);
    std::printf("\n%zu cells x %llu replications on %u thread(s) in "
                "%.2fs\n",
                result->cells().size(),
                static_cast<unsigned long long>(spec.replications),
                report.workers_used, result->wall_seconds());
    if (report.jobs_resumed > 0) {
      std::printf("checkpoint: %llu job(s) resumed, %llu run this "
                  "session\n",
                  static_cast<unsigned long long>(report.jobs_resumed),
                  static_cast<unsigned long long>(report.jobs_run));
    }
  }

  const bool quiet = cli.get_flag("quiet");
  const std::string csv_path = cli.get_string("csv");
  if (!csv_path.empty()) {
    write_sink(csv_path, "CSV", quiet,
               [&result](std::ostream& os) { result->write_csv(os); });
  }
  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    write_sink(json_path, "JSON", quiet,
               [&result](std::ostream& os) { result->write_json(os); });
  }
  return 0;
}
