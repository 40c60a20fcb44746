#include "observe/pipeline.hpp"

namespace churnet {
namespace {

/// Steps 1-3 of the pass (reset, window, the set's shared snapshot); the
/// caller optionally runs a dissemination before collecting values. Both
/// modes route the measurement through ObserverSet::observe, so the one
/// shared snapshot serves every consumer (snapshot observers and, in
/// observe_protocol, the dissemination-start state) instead of each
/// capturing its own.
void run_window_and_observe(AnyNetwork& net, ObserverSet& observers,
                            std::uint64_t seed, bool incremental) {
  const std::uint32_t rounds = observers.observation_rounds();
  if (incremental) {
    ChangeFeed feed;
    net.attach_change_feed(&feed);
    observers.begin_incremental_trial(seed, net.graph(), net.now());
    for (std::uint32_t r = 0; r < rounds; ++r) {
      feed.clear();
      net.step();
      observers.on_round(net.graph(), net.now());
      observers.on_deltas(net.graph(), feed.deltas(), net.now());
    }
    net.attach_change_feed(nullptr);
  } else {
    observers.begin_trial(seed);
    for (std::uint32_t r = 0; r < rounds; ++r) {
      net.step();
      observers.on_round(net.graph(), net.now());
    }
  }
  observers.observe(net.graph(), net.now());
}

std::vector<double> collect(const ObserverSet& observers) {
  std::vector<double> values;
  observers.append_values(values);
  return values;
}

}  // namespace

std::vector<double> observe_network(AnyNetwork& net, ObserverSet& observers,
                                    std::uint64_t seed, bool incremental) {
  run_window_and_observe(net, observers, seed, incremental);
  return collect(observers);
}

std::vector<double> observe_protocol(AnyNetwork& net, ObserverSet& observers,
                                     std::uint64_t seed,
                                     DisseminationProtocol& protocol,
                                     const ProtocolOptions& options,
                                     ProtocolScratch& scratch,
                                     bool incremental) {
  run_window_and_observe(net, observers, seed, incremental);
  const ProtocolResult result = net.disseminate(protocol, options, scratch);
  observers.on_dissemination(result.trace, &result.stats);
  return collect(observers);
}

}  // namespace churnet
