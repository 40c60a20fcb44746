// Shared experiment-harness helpers for the bench binaries: seed derivation,
// scale switches and uniform headers, so every bench prints paper-expected
// vs measured columns the same way.
#pragma once

#include <cstdint>
#include <string>

#include "common/cli.hpp"
#include "common/rng.hpp"  // derive_seed lives with the RNG machinery

namespace churnet {

/// Standard experiment scale: benches multiply their default n / replication
/// counts by these factors.
struct BenchScale {
  double size_factor = 1.0;
  double rep_factor = 1.0;
};

/// Adds the standard options (--seed, --reps-factor, --quick, --full,
/// --threads) to a CLI. Benches call this once before parse().
void add_standard_options(Cli& cli);

/// Reads the standard options; --quick halves sizes and reps, --full
/// quadruples them. A --reps-factor that is not finite or not > 0 prints
/// the rule and exits 2.
BenchScale scale_from_cli(const Cli& cli);

/// Base seed from --seed.
std::uint64_t seed_from_cli(const Cli& cli);

/// Worker threads from --threads, in [0, kMaxPoolThreads] (0 = all cores).
unsigned threads_from_cli(const Cli& cli);

/// The largest size, degree or n*d a bench or example accepts: a graph of
/// n nodes with d out-slots each must fit the 32-bit out-slot pool, as
/// SweepSpec::validate requires of a sweep cell.
inline constexpr std::int64_t kMaxBenchSize = 4'294'967'295;
/// The largest replication, step or operation count a bench accepts.
inline constexpr std::int64_t kMaxBenchCount = std::int64_t{1} << 53;

/// `n` as a node count when n nodes of d >= 1 out-slots fit the 32-bit
/// out-slot pool (n*d <= kMaxBenchSize); otherwise prints the bound and
/// exits 2, as Cli::get_int_in does.
std::uint32_t checked_node_count(std::uint64_t n, std::uint64_t d);

/// Scales a default count by a factor with a floor of `minimum`. A
/// product that is negative, NaN or past kMaxBenchCount prints the bound
/// and exits 2.
std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t minimum = 1);

/// Prints the uniform experiment banner: id, paper claim, and a rule.
void print_experiment_header(const std::string& experiment_id,
                             const std::string& paper_claim);

/// "PASS"/"FAIL" with a measured-vs-expected note, for verdict columns.
std::string verdict(bool pass);

}  // namespace churnet
