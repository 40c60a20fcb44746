// Experiment T1.d -- Flooding failure without edge regeneration
// (paper Theorem 3.7 / Theorem 4.12).
//
// Claims:
//   1. With probability Omega_d(1) (the paper proves Omega(e^{-d^2})), the
//      flood never informs more than d+1 nodes: the source wires all its d
//      requests to forever-isolated nodes and is never reached itself.
//   2. W.h.p. the flooding time is Omega_d(n): completion must wait for the
//      isolated nodes to die out of the network.
//
// Part A estimates P[peak |I_t| <= d+1 and the informed set dies out] over
// many replications. Part B measures completion times at small d across n,
// and fits them against n (linear scaling) vs log n.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("T1.d: flooding failure in SDG/PDG (Theorems 3.7, 4.12)");
  cli.add_int("n", 2000, "network size for part A");
  cli.add_int("reps", 300, "replications per configuration (part A)");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 500));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 50);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "T1.d flooding failure without regeneration",
      "P[flood dies with <= d+1 informed] = Omega(e^{-d^2}) (Thms 3.7/4.12 "
      "part 1); completion time = Omega_d(n) (part 2)");

  std::printf("--- part A: early die-out probability (n=%u, %llu reps) ---\n",
              n, static_cast<unsigned long long>(reps));
  Table part_a({"model", "d", "die-out w/ peak<=d+1", "95% CI", "mean peak"});
  for (const std::uint32_t d : {1u, 2u, 3u}) {
    std::uint64_t failures = 0;
    OnlineStats peaks;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      StreamingConfig config;
      config.n = n;
      config.d = d;
      config.policy = EdgePolicy::kNone;
      config.seed = derive_seed(seed, d, rep);
      StreamingNetwork net(config);
      net.warm_up();
      FloodOptions options;
      options.max_steps = 3ull * n;  // die-out takes at most ~n rounds
      options.stop_at_fraction =
          static_cast<double>(d + 2) / static_cast<double>(n);
      // Stop as soon as the flood outgrows d+1 (not a failure) or dies.
      const FloodTrace trace = flood_dynamic(net, options);
      peaks.add(static_cast<double>(trace.peak_informed));
      if (trace.died_out && trace.peak_informed <= d + 1) ++failures;
    }
    const Interval ci = wilson_interval(failures, reps);
    part_a.add_row({"SDG", fmt_int(d),
                    fmt_percent(static_cast<double>(failures) /
                                    static_cast<double>(reps),
                                2),
                    "[" + fmt_percent(ci.lo, 2) + ", " +
                        fmt_percent(ci.hi, 2) + "]",
                    fmt_fixed(peaks.mean(), 1)});
  }
  for (const std::uint32_t d : {1u, 2u, 3u}) {
    std::uint64_t failures = 0;
    OnlineStats peaks;
    const std::uint64_t poisson_reps = std::max<std::uint64_t>(reps / 4, 25);
    for (std::uint64_t rep = 0; rep < poisson_reps; ++rep) {
      PoissonNetwork net(PoissonConfig::with_n(
          n, d, EdgePolicy::kNone, derive_seed(seed, 100 + d, rep)));
      net.warm_up(8.0);
      FloodOptions options;
      options.max_steps = 20ull * n;  // lifetimes are Exp(n): allow the tail
      options.stop_at_fraction =
          static_cast<double>(d + 2) / static_cast<double>(n);
      const FloodTrace trace = flood_dynamic(net, options);
      peaks.add(static_cast<double>(trace.peak_informed));
      if (trace.died_out && trace.peak_informed <= d + 1) ++failures;
    }
    const Interval ci = wilson_interval(failures, poisson_reps);
    part_a.add_row({"PDG", fmt_int(d),
                    fmt_percent(static_cast<double>(failures) /
                                    static_cast<double>(poisson_reps),
                                2),
                    "[" + fmt_percent(ci.lo, 2) + ", " +
                        fmt_percent(ci.hi, 2) + "]",
                    fmt_fixed(peaks.mean(), 1)});
  }
  part_a.print(std::cout);

  std::printf("\n--- part B: completion time scales linearly in n "
              "(SDG, d=2) ---\n");
  Table part_b({"n", "mean completion", "completion/n", "completed"});
  std::vector<double> xs;
  std::vector<double> ys;
  const std::uint32_t sizes[] = {n / 4, n / 2, n, 2 * n};
  for (const std::uint32_t size : sizes) {
    OnlineStats completion;
    int completed = 0;
    const std::uint64_t b_reps = 5;
    for (std::uint64_t rep = 0; rep < b_reps; ++rep) {
      StreamingConfig config;
      config.n = size;
      config.d = 2;
      config.policy = EdgePolicy::kNone;
      config.seed = derive_seed(seed, 200, rep * 100 + size);
      StreamingNetwork net(config);
      net.warm_up();
      net.run_rounds(size);
      FloodOptions options;
      options.max_steps = 4ull * size;
      options.stop_on_die_out = false;
      const FloodTrace trace = flood_dynamic(net, options);
      if (trace.completed) {
        ++completed;
        completion.add(static_cast<double>(trace.completion_step));
      }
    }
    if (completion.count() > 0) {
      xs.push_back(static_cast<double>(size));
      ys.push_back(completion.mean());
      part_b.add_row({fmt_int(size), fmt_fixed(completion.mean(), 0),
                      fmt_fixed(completion.mean() / size, 2),
                      fmt_int(completed) + "/5"});
    } else {
      part_b.add_row({fmt_int(size), "> " + fmt_int(4ll * size), "-",
                      "0/5"});
    }
  }
  part_b.print(std::cout);
  if (xs.size() >= 3) {
    const LinearFit linear = fit_linear(xs, ys);
    std::vector<double> log_xs;
    for (const double x : xs) log_xs.push_back(std::log2(x));
    const LinearFit logarithmic = fit_linear(log_xs, ys);
    std::printf("\nlinear fit:      completion ~ %.2f * n %+.0f   (R^2 = %.3f)\n",
                linear.slope, linear.intercept, linear.r_squared);
    std::printf("logarithmic fit: completion ~ %.0f * log2(n) %+.0f (R^2 = %.3f)\n",
                logarithmic.slope, logarithmic.intercept,
                logarithmic.r_squared);
    std::printf("verdict: %s (linear explains the data; Omega_d(n) shape)\n",
                verdict(linear.r_squared > 0.9).c_str());
  }
  return 0;
}
