// Experiment P1 -- Dissemination protocols: coverage-vs-message tradeoffs
// across the paper's four models.
//
// Full flooding (the paper's process) completes fastest but sends a
// message over every boundary edge every step; gossip protocols trade
// completion rounds for message complexity. This bench runs the protocol
// matrix — flood, hop-bounded flood, PUSH(k), PULL, PUSH-PULL, and a lossy
// flood — on SDG/SDGR/PDG/PDGR at one (n, d) and reports, per combination,
// the rounds to completion, the final coverage, and the full message
// accounting (total sent, useful vs duplicate deliveries, loss), plus the
// efficiency ratio messages-per-informed-node.
//
// Expected shape: flood and PUSH-PULL complete on the regenerating models;
// PUSH(1) lags at the same fanout until k grows; TTL caps the reach at its
// hop bound; the lossy wrapper stretches completion by ~1/q rounds without
// changing the ceiling (every edge retries each step).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"

namespace {

using namespace churnet;

}  // namespace

int main(int argc, char** argv) {
  Cli cli("P1: dissemination-protocol comparison on the four paper models");
  cli.add_int("n", 5000, "network size");
  cli.add_int("d", 8, "requests per node");
  cli.add_int("reps", 6, "replications per (scenario, protocol)");
  cli.add_int("steps", 60, "max dissemination steps");
  cli.add_string("protocols",
                 "flood,ttl(4),push(1),push(3),pull(1),push-pull(1),"
                 "flood+lossy(0.9)",
                 "comma-separated protocol specs to compare");
  add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const BenchScale scale = scale_from_cli(cli);
  const auto n = static_cast<std::uint32_t>(
      scaled(static_cast<std::uint64_t>(cli.get_int("n")),
             scale.size_factor, 500));
  const auto d = static_cast<std::uint32_t>(cli.get_int("d"));
  const std::uint64_t reps =
      scaled(static_cast<std::uint64_t>(cli.get_int("reps")),
             scale.rep_factor, 2);
  const auto max_steps = static_cast<std::uint64_t>(cli.get_int("steps"));
  const std::uint64_t seed = seed_from_cli(cli);
  const unsigned threads = threads_from_cli(cli);

  print_experiment_header(
      "P1 protocol comparison",
      "coverage-vs-messages across dissemination protocols: flooding "
      "completes in O(log n) rounds at O(E) messages/round; gossip trades "
      "rounds for messages; TTL caps reach; loss stretches completion "
      "without lowering the flooding ceiling");

  // Parse the protocol list up front so typos fail before any trial runs.
  std::vector<ProtocolSpec> protocols;
  for (const std::string& entry :
       split_spec_list(cli.get_string("protocols"))) {
    std::string error;
    const auto spec = ProtocolSpec::parse(entry, &error);
    if (!spec.has_value()) {
      std::fprintf(stderr, "--protocols: %s\n", error.c_str());
      return 1;
    }
    protocols.push_back(*spec);
  }

  const std::vector<std::string> metrics{
      "rounds",     "coverage",   "completed", "messages", "useful",
      "duplicates", "overhead",   "lost",      "msg_per_informed"};
  const char* model_names[] = {"SDG", "SDGR", "PDG", "PDGR"};
  const ScenarioRegistry& registry = ScenarioRegistry::paper();

  Table table({"scenario", "protocol", "rounds", "coverage", "completed",
               "messages", "useful", "dup", "lost", "msg/informed"});
  std::uint64_t stream = 0;
  for (const char* model : model_names) {
    const Scenario& scenario = registry.at(model);
    for (const ProtocolSpec& spec : protocols) {
      TrialRunnerOptions runner_options;
      runner_options.replications = reps;
      runner_options.threads = threads;
      runner_options.base_seed = seed;
      runner_options.stream = stream++;
      const TrialResult result = TrialRunner(runner_options)
          .run(metrics, [&scenario, &spec, n, d,
                         max_steps](const TrialContext& ctx) {
            thread_local ProtocolScratch scratch;
            ScenarioParams params;
            params.n = n;
            params.d = d;
            params.seed = ctx.seed;
            AnyNetwork net = scenario.make_warmed(params);
            // One reusable protocol per worker (begin_run resets it); the
            // parsed specs outlive every trial, so the address is a key.
            thread_local std::unique_ptr<DisseminationProtocol> protocol;
            thread_local const ProtocolSpec* protocol_key = nullptr;
            if (protocol == nullptr || protocol_key != &spec) {
              protocol = make_protocol(spec);
              protocol_key = &spec;
            }
            ProtocolOptions options =
                protocol_options(spec, derive_seed(ctx.seed, 1, 0));
            options.flood.max_steps = max_steps;
            options.flood.stop_on_die_out = false;
            const ProtocolResult run =
                net.disseminate(*protocol, options, scratch);
            const ProtocolStats& s = run.stats;
            const double informed =
                static_cast<double>(s.useful_deliveries + options.sources);
            return std::vector<double>{
                static_cast<double>(s.rounds),
                s.final_coverage,
                s.completed ? 1.0 : 0.0,
                static_cast<double>(s.total_messages()),
                static_cast<double>(s.useful_deliveries),
                static_cast<double>(s.duplicate_deliveries),
                static_cast<double>(s.overhead_messages),
                static_cast<double>(s.lost_messages),
                static_cast<double>(s.total_messages()) / informed,
            };
          });
      const auto mean = [&result](const char* metric) {
        return result.stats(metric).mean();
      };
      table.add_row({model, spec.canonical(),
                     fmt_fixed(mean("rounds"), 1),
                     fmt_percent(mean("coverage"), 1),
                     fmt_percent(mean("completed"), 0),
                     fmt_fixed(mean("messages"), 0),
                     fmt_fixed(mean("useful"), 0),
                     fmt_fixed(mean("duplicates"), 0),
                     fmt_fixed(mean("lost"), 0),
                     fmt_fixed(mean("msg_per_informed"), 2)});
    }
  }
  table.print(std::cout);
  std::printf(
      "\nn=%u, d=%u, %llu replications, max %llu steps. messages = rumor "
      "transmissions + probes; msg/informed = total messages per node "
      "informed (lower = cheaper dissemination).\n",
      n, d, static_cast<unsigned long long>(reps),
      static_cast<unsigned long long>(max_steps));
  return 0;
}
