#include "benchutil/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/assertx.hpp"
#include "engine/job_pool.hpp"

namespace churnet {

void add_standard_options(Cli& cli) {
  cli.add_int("seed", 12345, "base seed for all replications");
  cli.add_double("reps-factor", 1.0, "multiplier on replication counts");
  cli.add_flag("quick", "half-scale run (sizes and replications)");
  cli.add_flag("full", "4x-scale run (sizes and replications)");
  cli.add_int("threads", 1,
              "worker threads for replication loops (0 = all cores)");
}

BenchScale scale_from_cli(const Cli& cli) {
  BenchScale scale;
  if (cli.get_flag("quick")) {
    scale.size_factor = 0.5;
    scale.rep_factor = 0.5;
  } else if (cli.get_flag("full")) {
    scale.size_factor = 4.0;
    scale.rep_factor = 4.0;
  }
  const double reps_factor = cli.get_double("reps-factor");
  if (!std::isfinite(reps_factor) || reps_factor <= 0.0) {
    std::fprintf(stderr,
                 "option '--reps-factor' must be a finite number > 0, got "
                 "%g\n",
                 reps_factor);
    std::exit(2);
  }
  scale.rep_factor *= reps_factor;
  return scale;
}

std::uint64_t seed_from_cli(const Cli& cli) {
  return static_cast<std::uint64_t>(cli.get_int("seed"));
}

unsigned threads_from_cli(const Cli& cli) {
  return static_cast<unsigned>(cli.get_int_in("threads", 0, kMaxPoolThreads));
}

std::uint32_t checked_node_count(std::uint64_t n, std::uint64_t d) {
  CHURNET_EXPECTS(d >= 1);
  if (n > static_cast<std::uint64_t>(kMaxBenchSize) / d) {
    std::fprintf(stderr,
                 "n*d = %llu*%llu must fit the 32-bit out-slot pool (at most "
                 "%lld)\n",
                 static_cast<unsigned long long>(n),
                 static_cast<unsigned long long>(d),
                 static_cast<long long>(kMaxBenchSize));
    std::exit(2);
  }
  return static_cast<std::uint32_t>(n);
}

std::uint64_t scaled(std::uint64_t base, double factor,
                     std::uint64_t minimum) {
  const double value = static_cast<double>(base) * factor;
  // Negated so that NaN fails too; llround is unspecified past int64.
  if (!(value >= 0.0 && value <= static_cast<double>(kMaxBenchCount))) {
    std::fprintf(stderr,
                 "scaled count %llu x %g = %g must be in [0, %lld] (check "
                 "--reps-factor)\n",
                 static_cast<unsigned long long>(base), factor, value,
                 static_cast<long long>(kMaxBenchCount));
    std::exit(2);
  }
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
