#include "benchutil/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <vector>

#include "common/sinks.hpp"

namespace churnet {
namespace {

/// The process-wide result log behind --csv/--json (see the header).
struct ResultLog {
  std::mutex mutex;
  std::string csv_path;
  std::string json_path;
  bool atexit_registered = false;
  struct Entry {
    std::string label;
    TrialResult result;
  };
  std::vector<Entry> entries;

  static ResultLog& instance() {
    static ResultLog log;
    return log;
  }

  bool armed() const { return !csv_path.empty() || !json_path.empty(); }
};

void write_result_csv(std::ostream& os,
                      const std::vector<ResultLog::Entry>& entries) {
  const PrecisionGuard precision(os);
  os << "label,stream,replication,seed,metric,value\n";
  for (const ResultLog::Entry& entry : entries) {
    const TrialResult& result = entry.result;
    const TrialRunnerOptions& options = result.options();
    const std::string label_field = csv_field(entry.label);
    for (std::size_t r = 0; r < result.samples().size(); ++r) {
      const std::uint64_t seed =
          derive_seed(options.base_seed, options.stream, r);
      for (std::size_t m = 0; m < result.metrics().size(); ++m) {
        os << label_field << ',' << options.stream << ',' << r << ','
           << seed << ',' << csv_field(result.metrics()[m]) << ',';
        const double value = result.samples()[r][m];
        if (!std::isnan(value)) os << value;
        os << '\n';
      }
    }
  }
}

void write_result_json(std::ostream& os,
                       const std::vector<ResultLog::Entry>& entries) {
  os << "{\"results\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) os << ',';
    os << "{\"label\":";
    write_json_string(os, entries[i].label);
    os << ",\"trial\":";
    entries[i].result.write_json(os);
    os << '}';
  }
  os << "]}";
}

}  // namespace

void add_standard_options(Cli& cli) {
  cli.add_int("seed", 12345, "base seed for all replications");
  cli.add_double("reps-factor", 1.0, "multiplier on replication counts");
  cli.add_flag("quick", "half-scale run (sizes and replications)");
  cli.add_flag("full", "4x-scale run (sizes and replications)");
  cli.add_int("threads", 1,
              "worker threads for replication loops (0 = all cores)");
  cli.add_string("csv", "",
                 "persist per-replication results as long-format CSV here");
  cli.add_string("json", "", "persist result summaries as JSON here");
}

BenchScale scale_from_cli(const Cli& cli) {
  configure_result_output(cli);
  BenchScale scale;
  if (cli.get_flag("quick")) {
    scale.size_factor = 0.5;
    scale.rep_factor = 0.5;
  } else if (cli.get_flag("full")) {
    scale.size_factor = 4.0;
    scale.rep_factor = 4.0;
  }
  scale.rep_factor *= cli.get_double("reps-factor");
  return scale;
}

void configure_result_output(const Cli& cli) {
  ResultLog& log = ResultLog::instance();
  const std::lock_guard<std::mutex> lock(log.mutex);
  log.csv_path = cli.get_string("csv");
  log.json_path = cli.get_string("json");
  if (log.armed() && !log.atexit_registered) {
    std::atexit(flush_result_output);
    log.atexit_registered = true;
  }
}

void record_trial(const std::string& label, const TrialResult& result) {
  ResultLog& log = ResultLog::instance();
  const std::lock_guard<std::mutex> lock(log.mutex);
  if (!log.armed()) return;
  log.entries.push_back(ResultLog::Entry{label, result});
}

void flush_result_output() {
  ResultLog& log = ResultLog::instance();
  const std::lock_guard<std::mutex> lock(log.mutex);
  if (!log.csv_path.empty()) {
    std::ofstream file(log.csv_path);
    if (file) {
      write_result_csv(file, log.entries);
    } else {
      std::fprintf(stderr, "cannot open --csv file '%s'\n",
                   log.csv_path.c_str());
    }
  }
  if (!log.json_path.empty()) {
    std::ofstream file(log.json_path);
    if (file) {
      write_result_json(file, log.entries);
    } else {
      std::fprintf(stderr, "cannot open --json file '%s'\n",
                   log.json_path.c_str());
    }
  }
}

std::uint64_t seed_from_cli(const Cli& cli) {
  return static_cast<std::uint64_t>(cli.get_int("seed"));
}

unsigned threads_from_cli(const Cli& cli) {
  return static_cast<unsigned>(cli.get_int("threads"));
}

std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t minimum) {
  const double value = static_cast<double>(base) * factor;
  return std::max<std::uint64_t>(minimum,
                                 static_cast<std::uint64_t>(std::llround(value)));
}

void print_experiment_header(const std::string& experiment_id,
                             const std::string& paper_claim) {
  std::printf("== %s ==\n", experiment_id.c_str());
  std::printf("paper: %s\n\n", paper_claim.c_str());
}

std::string verdict(bool pass) { return pass ? "PASS" : "FAIL"; }

}  // namespace churnet
