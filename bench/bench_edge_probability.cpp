// Experiment L3.14/L4.15 -- Edge destination probabilities under
// regeneration (paper Lemma 3.14 / Lemma 4.15).
//
// Claims:
//   * SDGR (Lemma 3.14): a request of a node of age k+1 points at a FIXED
//     older node with probability (1/(n-1)) (1 + 1/(n-1))^k; younger
//     destinations have probability <= 1/(n-1). Summing over the n-1-a
//     older nodes gives the measurable quantity: the expected fraction of
//     an age-a node's requests currently pointing at older nodes,
//       f(a) = (n-1-a)/(n-1) * (1 + 1/(n-1))^{a-1}.
//   * PDGR (Lemma 4.15): the per-request probability of a fixed older node
//     is at most (1/0.8n)(1 + i/1.7n) for a node born i rounds ago, i.e.
//     the older-target fraction is bounded by that sum over older nodes.
//
// We bucket nodes by age (SDGR) / birth-order rank (PDGR) and compare the
// measured older-target fraction to the formula / bound.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "churnet/churnet.hpp"

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("L3.14/L4.15: edge destination probabilities under regeneration");
  cli.add_int("n", 2000, "network size");
  cli.add_int("d", 8, "requests per node");
  cli.add_int("reps", 60, "replications (snapshots averaged)");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto d =
      static_cast<std::uint32_t>(cli.get_int_in("d", 1, kMaxBenchSize));
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 400),
      d);
  const std::uint64_t reps = scaled(
      cli.get_int_in("reps", 1, kMaxBenchCount), scale.rep_factor, 10);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "L3.14/L4.15 edge destination probabilities",
      "SDGR: older-target request fraction f(a) = (n-1-a)/(n-1) * "
      "(1+1/(n-1))^{a-1}; PDGR: bounded by (|older|/0.8n)(1+i/1.7n)");

  constexpr int kBuckets = 10;

  std::printf("--- SDGR (n=%u, d=%u, %llu snapshots) ---\n", n, d,
              static_cast<unsigned long long>(reps));
  double sum[kBuckets] = {};
  double count[kBuckets] = {};
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    StreamingConfig config;
    config.n = n;
    config.d = d;
    config.policy = EdgePolicy::kRegenerate;
    config.seed = derive_seed(seed, 1, rep);
    StreamingNetwork net(config);
    net.warm_up();
    net.run_rounds(n + rep % 13);
    for (const NodeId node : net.graph().alive_nodes()) {
      const std::uint64_t age = net.age(node);
      const std::uint64_t own_seq = net.graph().birth_seq(node);
      std::uint32_t older = 0;
      std::uint32_t wired = 0;
      for (std::uint32_t k = 0; k < d; ++k) {
        const NodeId target = net.graph().out_target(node, k);
        if (!target.valid()) continue;
        ++wired;
        older += net.graph().birth_seq(target) < own_seq ? 1 : 0;
      }
      if (wired == 0) continue;
      const auto bucket =
          std::min<std::uint64_t>(kBuckets - 1, age * kBuckets / n);
      sum[bucket] += static_cast<double>(older) / wired;
      count[bucket] += 1.0;
    }
  }
  Table sdgr({"age bucket", "midpoint a", "measured f(a)", "Lemma 3.14 f(a)",
              "|err|", "verdict (<=0.03)"});
  bool sdgr_ok = true;
  for (int b = 0; b < kBuckets; ++b) {
    const double a = (b + 0.5) * static_cast<double>(n) / kBuckets;
    const double expected = (n - 1.0 - a) / (n - 1.0) *
                            std::pow(1.0 + 1.0 / (n - 1.0), a - 1.0);
    const double measured = sum[b] / count[b];
    const double err = std::abs(measured - expected);
    sdgr_ok = sdgr_ok && err <= 0.03;
    sdgr.add_row({fmt_int(b), fmt_fixed(a, 0), fmt_fixed(measured, 4),
                  fmt_fixed(expected, 4), fmt_fixed(err, 4),
                  verdict(err <= 0.03)});
  }
  sdgr.print(std::cout);
  std::printf("Lemma 3.14 verdict: %s\n\n", verdict(sdgr_ok).c_str());

  std::printf("--- PDGR (n=%u, d=%u, %llu snapshots) ---\n", n, d,
              static_cast<unsigned long long>(reps));
  // Bucket by birth-order rank in the snapshot (0 = oldest). For a node of
  // rank r among m alive there are r older nodes; Lemma 4.15 bounds the
  // per-request probability for each older target by (1/0.8n)(1+i/1.7n),
  // where i is the node's age in ROUNDS (jump-chain events, ~2 events per
  // time unit).
  double psum[kBuckets] = {};
  double pbound[kBuckets] = {};
  double pcount[kBuckets] = {};
  for (std::uint64_t rep = 0; rep < reps; ++rep) {
    PoissonNetwork net(PoissonConfig::with_n(n, d, EdgePolicy::kRegenerate,
                                             derive_seed(seed, 2, rep)));
    net.warm_up(8.0);
    const Snapshot snap = net.snapshot();
    const std::uint32_t m = snap.node_count();
    for (std::uint32_t rank = 0; rank < m; ++rank) {
      const NodeId node = snap.node_id(rank);
      std::uint32_t older = 0;
      std::uint32_t wired = 0;
      for (std::uint32_t k = 0; k < net.graph().out_slot_count(node); ++k) {
        const NodeId target = net.graph().out_target(node, k);
        if (!target.valid()) continue;
        ++wired;
        older +=
            net.graph().birth_seq(target) < net.graph().birth_seq(node) ? 1
                                                                        : 0;
      }
      if (wired == 0) continue;
      const auto bucket = std::min<std::uint32_t>(
          kBuckets - 1, rank * kBuckets / m);
      // Age in events: ~2 events per unit time (birth + death rates ~ 1).
      const double age_rounds = 2.0 * snap.age(rank);
      const double per_request_bound =
          (1.0 / (0.8 * n)) * (1.0 + age_rounds / (1.7 * n));
      psum[bucket] += static_cast<double>(older) / wired;
      pbound[bucket] +=
          std::min(1.0, static_cast<double>(rank) * per_request_bound);
      pcount[bucket] += 1.0;
    }
  }
  Table pdgr({"rank bucket", "measured older frac", "Lemma 4.15 bound",
              "verdict (<= bound)"});
  bool pdgr_ok = true;
  for (int b = 0; b < kBuckets; ++b) {
    const double measured = psum[b] / pcount[b];
    const double bound = pbound[b] / pcount[b];
    const bool ok = measured <= bound + 0.02;
    pdgr_ok = pdgr_ok && ok;
    pdgr.add_row({fmt_int(b), fmt_fixed(measured, 4), fmt_fixed(bound, 4),
                  verdict(ok)});
  }
  pdgr.print(std::cout);
  std::printf("Lemma 4.15 verdict: %s (measured fraction below the "
              "per-bucket bound)\n",
              verdict(pdgr_ok).c_str());
  return 0;
}
