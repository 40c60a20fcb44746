// Shared experiment-harness helpers for the bench binaries: seed derivation,
// scale switches, uniform headers and the --csv/--json result log, so every
// bench prints paper-expected vs measured columns the same way.
//
// Replications run on the engine (engine/trial_runner.hpp): every
// replication seed is derive_seed(base, stream, replication), and
// TrialRunner's results are thread-count-independent.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"  // derive_seed lives with the RNG machinery
#include "engine/trial_runner.hpp"

namespace churnet {

/// Standard experiment scale: benches multiply their default n / replication
/// counts by these factors.
struct BenchScale {
  double size_factor = 1.0;
  double rep_factor = 1.0;
};

/// Adds the standard options (--seed, --reps-factor, --quick, --full,
/// --threads, --csv, --json) to a CLI. Benches call this once before
/// parse().
void add_standard_options(Cli& cli);

/// Reads the standard options; --quick halves sizes and reps, --full
/// quadruples them. Also configures the result log from --csv/--json
/// (see configure_result_output), so every bench that uses the standard
/// options persists its TrialRunner results without further code.
BenchScale scale_from_cli(const Cli& cli);

/// Base seed from --seed.
std::uint64_t seed_from_cli(const Cli& cli);

/// Worker threads from --threads (0 = all hardware threads).
unsigned threads_from_cli(const Cli& cli);

/// Scales a default count by a factor with a floor of `minimum`.
std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t minimum = 1);

/// Prints the uniform experiment banner: id, paper claim, and a rule.
void print_experiment_header(const std::string& experiment_id,
                             const std::string& paper_claim);

/// "PASS"/"FAIL" with a measured-vs-expected note, for verdict columns.
std::string verdict(bool pass);

// ---- persisted results (--csv / --json) ------------------------------------
//
// A process-wide labeled log of TrialResults. When --csv/--json paths are
// configured (scale_from_cli does it from the standard options), benches
// add their TrialResults via record_trial(), and the log is written on
// flush_result_output() — also registered atexit, so benches persist
// results without calling it:
//
//   ./bench_protocols --csv results.csv --json results.json
//
// The CSV is tidy long format (label,stream,replication,seed,metric,value,
// one row per observation); the JSON is an array of labeled TrialRunner
// JSON sink objects.

/// Reads --csv/--json from the CLI and arms the log (no-op when both are
/// empty). Safe to call once per process, before any trials run.
void configure_result_output(const Cli& cli);

/// Records a labeled TrialResult into the log (no-op when no output is
/// configured). Thread-safe.
void record_trial(const std::string& label, const TrialResult& result);

/// Writes the accumulated log to the configured paths (whole-file rewrite;
/// idempotent). Runs automatically at process exit.
void flush_result_output();

}  // namespace churnet
