// Experiment L4.4/L4.6-4.8 -- Properties of the Poisson churn process
// (paper Lemmas 4.4, 4.6, 4.7, 4.8).
//
// Claims:
//   * Lemma 4.4: for t >= 3n, |N_t| in [0.9n, 1.1n] with probability
//     >= 1 - 2e^{-sqrt(n)}.
//   * Lemma 4.6/4.7: each jump is a birth/death with probability in
//     [0.47, 0.53] once the chain mixes; a fixed node dies in a given round
//     with probability in [1/2.2n, 1/1.8n].
//   * Lemma 4.8: w.h.p. every node alive at round r >= 7n log n was born
//     within the last 7n log n rounds (max age bound).
//   * Lifetimes are exactly Exp(1/n) (construction, Def. 4.1).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "churnet/churnet.hpp"

namespace {

/// Steps `net` one event at a time until its clock reaches `barrier`, so
/// the event that crosses the barrier is applied too. Each birth stamps
/// its slot in `birth_time`; each death passes the victim's lifetime to
/// `on_death`.
template <typename OnDeath>
void step_until(churnet::PoissonNetwork& net, double barrier,
                std::vector<double>& birth_time, const OnDeath& on_death) {
  while (net.now() < barrier) {
    const auto event = net.step();
    const std::uint32_t slot = event.node.slot;
    if (event.kind == churnet::ChurnEvent::Kind::kBirth) {
      if (birth_time.size() <= slot) birth_time.resize(slot + 1);
      birth_time[slot] = event.time;
    } else {
      on_death(event.time - birth_time[slot]);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace churnet;
  Cli cli("L4.4-4.8: Poisson churn process properties");
  cli.add_int("n", 5000, "expected network size");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const std::uint32_t n = checked_node_count(
      scaled(cli.get_int_in("n", 1, kMaxBenchSize), scale.size_factor, 500),
      1);
  const std::uint64_t seed = seed_from_cli(cli);

  print_experiment_header(
      "L4.4-4.8 Poisson churn",
      "size band [0.9n, 1.1n] after t >= 3n (L4.4); jump probabilities in "
      "[0.47, 0.53] (L4.7); max age <= 7n log n (L4.8); lifetimes Exp(1/n)");

  PoissonNetwork net(PoissonConfig::with_n(n, 1, EdgePolicy::kNone, seed));

  // Observe lifetimes and birth/death counts from the event reports over a
  // long horizon.
  OnlineStats lifetimes;
  std::vector<double> birth_time;
  const auto add_lifetime = [&lifetimes](double lifetime) {
    lifetimes.add(lifetime);
  };

  // Warm-up to t = 3n, then sample the band over many checkpoints.
  step_until(net, 3.0 * n, birth_time, add_lifetime);
  std::uint64_t in_band = 0;
  std::uint64_t max_size = 0;
  std::uint64_t min_size = ~std::uint64_t{0};
  constexpr int kCheckpoints = 2000;
  const double horizon = 7.0 * static_cast<double>(n) * std::log(n);
  const double step = (horizon - 3.0 * n) / kCheckpoints;
  double max_age = 0.0;
  // Barriers are absolute, so the event each one also applies does not
  // shift the next.
  double barrier = 3.0 * n;
  for (int checkpoint = 0; checkpoint < kCheckpoints; ++checkpoint) {
    barrier += step;
    step_until(net, barrier, birth_time, add_lifetime);
    const std::uint64_t size = net.graph().alive_count();
    in_band += (size >= 0.9 * n && size <= 1.1 * n) ? 1 : 0;
    max_size = std::max(max_size, size);
    min_size = std::min(min_size, size);
  }
  for (const NodeId node : net.graph().alive_nodes()) {
    max_age = std::max(max_age, net.age(node));
  }
  // The network only ever moved through step_until, so every birth and
  // death was observed.
  const std::uint64_t births = net.graph().total_births();
  const std::uint64_t deaths = lifetimes.count();

  const double birth_fraction =
      static_cast<double>(births) / static_cast<double>(births + deaths);

  Table table({"quantity", "paper claim", "measured", "verdict"});
  table.add_row({"size band occupancy", ">= ~1 - 2e^{-sqrt(n)}",
                 fmt_percent(static_cast<double>(in_band) / kCheckpoints, 2),
                 verdict(static_cast<double>(in_band) / kCheckpoints >
                         0.999)});
  table.add_row({"size extremes", "[0.9n, 1.1n] w.h.p.",
                 "[" + fmt_int(static_cast<std::int64_t>(min_size)) + ", " +
                     fmt_int(static_cast<std::int64_t>(max_size)) + "]",
                 verdict(min_size >= 0.85 * n && max_size <= 1.15 * n)});
  table.add_row({"P[jump is birth]", "[0.47, 0.53] (Lemma 4.7)",
                 fmt_fixed(birth_fraction, 4),
                 verdict(birth_fraction >= 0.47 && birth_fraction <= 0.53)});
  table.add_row({"mean lifetime", "n (Exp(1/n))", fmt_fixed(lifetimes.mean(), 1),
                 verdict(std::abs(lifetimes.mean() - n) < 0.05 * n)});
  table.add_row({"lifetime stddev", "n (Exp(1/n))",
                 fmt_fixed(lifetimes.stddev(), 1),
                 verdict(std::abs(lifetimes.stddev() - n) < 0.08 * n)});
  table.add_row({"max age at horizon", "<= 7n ln n = " +
                     fmt_fixed(7.0 * n * std::log(n), 0) + " (Lemma 4.8)",
                 fmt_fixed(max_age, 0),
                 verdict(max_age <= 7.0 * n * std::log(n))});
  table.print(std::cout);

  // Lifetime distribution tail: P(L > kn) = e^{-k}.
  std::printf("\nlifetime tail vs Exp(1/n):\n");
  Table tail({"k", "P[L > k*n] measured", "e^{-k}"});
  // Recompute tails from a fresh run with recorded lifetimes.
  PoissonNetwork net2(
      PoissonConfig::with_n(n, 1, EdgePolicy::kNone, seed + 1));
  std::vector<double> observed;
  std::vector<double> birth_time2;
  step_until(net2, 30.0 * n, birth_time2, [&](double lifetime) {
    observed.push_back(lifetime / static_cast<double>(n));
  });
  for (const double k : {0.5, 1.0, 2.0, 3.0}) {
    std::uint64_t above = 0;
    for (const double lifetime : observed) above += lifetime > k ? 1 : 0;
    tail.add_row({fmt_fixed(k, 1),
                  fmt_fixed(static_cast<double>(above) / observed.size(), 4),
                  fmt_fixed(std::exp(-k), 4)});
  }
  tail.print(std::cout);
  std::printf("\nn=%u; horizon 7n ln n = %.0f time units, %llu births, "
              "%llu deaths observed.\n",
              n, horizon, static_cast<unsigned long long>(births),
              static_cast<unsigned long long>(deaths));
  return 0;
}
