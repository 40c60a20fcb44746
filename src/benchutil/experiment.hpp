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
/// quadruples them.
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

}  // namespace churnet
