// Experiment EXT.3 -- Uniform-oracle dialing vs decentralized random-walk
// sampling (paper Section 2 related work).
//
// The paper's models assume nodes can dial uniformly random live peers.
// The classic decentralized substitute (Cooper-Dyer-Greenhill tokens, the
// ID-random-walk protocols of Section 2) samples peers by random walks,
// whose endpoints are degree-biased (pi ~ deg). This experiment quantifies
// what that bias costs at equal degree budget:
//   * degree concentration (max and p99 degree),
//   * expansion (probe + spectral gap),
//   * flooding completion time.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("EXT.3: uniform-oracle (SDGR) vs random-walk sampling overlay");
  cli.add_int("n", 20000, "network size");
  cli.add_int("m", 8, "degree budget (d for SDGR, m for the overlay)");
  cli.add_int("reps", 3, "replications");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 2000));
  const auto m = static_cast<std::uint32_t>(cli.get_int("m"));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "EXT.3 sampling mechanism ablation",
      "replace the paper's uniform-oracle dialing with decentralized "
      "random-walk sampling (Section 2 related work): endpoints are "
      "degree-biased; measure the cost at equal degree budget");

  Table table({"mechanism", "mean deg", "p99 deg", "max deg", "probe min",
               "spectral gap", "flood steps", "completed"});

  for (int mechanism = 0; mechanism < 2; ++mechanism) {
    OnlineStats mean_degree;
    std::vector<double> degrees;
    std::uint32_t max_degree = 0;
    double worst_probe = 1e9;
    double worst_gap = 1.0;
    OnlineStats flood_steps;
    std::uint64_t completions = 0;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
      Snapshot snap = [&] {
        if (mechanism == 0) {
          StreamingConfig config;
          config.n = n;
          config.d = m;
          config.policy = EdgePolicy::kRegenerate;
          config.seed = derive_seed(seed, 1, rep);
          StreamingNetwork net(config);
          net.warm_up();
          FloodOptions options;
          options.max_steps =
              static_cast<std::uint64_t>(30.0 * std::log2(n));
          const FloodTrace trace = flood_dynamic(net, options);
          if (trace.completed) {
            ++completions;
            flood_steps.add(static_cast<double>(trace.completion_step));
          }
          return net.snapshot();
        }
        WalkOverlayConfig config;
        config.n = n;
        config.m = m;
        config.seed = derive_seed(seed, 2, rep);
        WalkOverlay overlay(config);
        overlay.warm_up();
        // Flooding on the overlay: synchronous rounds driven manually are
        // not implemented for WalkOverlay; measure via static BFS from a
        // random node on the snapshot (the overlay churns identically to
        // SDGR, so the static comparison isolates the topology effect).
        const Snapshot snapshot = overlay.snapshot();
        const StaticFloodResult flood = static_flood(
            snapshot,
            static_cast<std::uint32_t>(overlay.rng().below(n)));
        if (flood.completed) {
          ++completions;
          flood_steps.add(static_cast<double>(flood.rounds));
        }
        return snapshot;
      }();
      const DegreeStats stats = degree_stats(snap);
      mean_degree.add(stats.mean);
      max_degree = std::max(max_degree, stats.max);
      for (std::uint32_t v = 0; v < snap.node_count(); ++v) {
        degrees.push_back(static_cast<double>(snap.degree(v)));
      }
      Rng probe_rng(derive_seed(seed, 3, rep));
      worst_probe = std::min(worst_probe,
                             probe_expansion(snap, probe_rng, {}).min_ratio);
      Rng power_rng(derive_seed(seed, 4, rep));
      worst_gap = std::min(
          worst_gap, spectral_gap(snap, power_rng, 300, 1e-6).spectral_gap);
    }
    table.add_row(
        {mechanism == 0 ? "uniform oracle (SDGR)" : "random-walk sampling",
         fmt_fixed(mean_degree.mean(), 2),
         fmt_fixed(quantile(degrees, 0.99), 0), fmt_int(max_degree),
         fmt_fixed(worst_probe, 3), fmt_fixed(worst_gap, 4),
         flood_steps.count() > 0 ? fmt_fixed(flood_steps.mean(), 1) : "-",
         fmt_int(static_cast<std::int64_t>(completions)) + "/" +
             fmt_int(static_cast<std::int64_t>(reps))});
  }
  table.print(std::cout);
  std::printf(
      "\nn=%u, degree budget %u, %llu replications. Reading: random-walk\n"
      "sampling keeps expansion and logarithmic flooding but pays a heavier\n"
      "degree tail (pi ~ deg positive feedback) -- the trade the paper\n"
      "sidesteps by assuming the uniform oracle, and the reason its models\n"
      "are a clean idealization of protocols like those in Section 2.\n",
      n, m, static_cast<unsigned long long>(reps));
  return 0;
}
