#include "observe/pipeline.hpp"

#include "graph/change_feed.hpp"
#include "telemetry/telemetry.hpp"

namespace churnet {
namespace {

std::vector<double> collect(const ObserverSet& observers) {
  std::vector<double> values;
  observers.append_values(values);
  return values;
}

}  // namespace

const Snapshot* observe_window(AnyNetwork& net, ObserverSet& observers,
                               std::uint64_t seed, bool incremental) {
  const std::uint32_t rounds = observers.observation_rounds();
  if (incremental) {
    // Attached for the window only (a later dissemination's churn is not
    // observed); per thread, so its capacity survives across trials.
    thread_local ChangeFeed feed;
    net.attach_change_feed(&feed);
    observers.begin_incremental_trial(seed, net.graph(), net.now());
    {
      // One span over the whole window, never per step: two clock reads
      // per churn round would blow the telemetry overhead budget.
      // on_deltas' own delta_fold span nests inside.
      const telemetry::PhaseTimer churn_span(telemetry::Phase::kChurn);
      for (std::uint32_t r = 0; r < rounds; ++r) {
        feed.clear();
        net.step();
        observers.on_round(net.graph(), net.now());
        observers.on_deltas(net.graph(), feed.deltas(), net.now());
      }
    }
    net.attach_change_feed(nullptr);
  } else {
    observers.begin_trial(seed);
    const telemetry::PhaseTimer churn_span(telemetry::Phase::kChurn);
    for (std::uint32_t r = 0; r < rounds; ++r) {
      net.step();
      observers.on_round(net.graph(), net.now());
    }
  }
  return observers.observe(net.graph(), net.now());
}

std::vector<double> observe_network(AnyNetwork& net, ObserverSet& observers,
                                    std::uint64_t seed, bool incremental) {
  observe_window(net, observers, seed, incremental);
  return collect(observers);
}

std::vector<double> observe_protocol(AnyNetwork& net, ObserverSet& observers,
                                     std::uint64_t seed,
                                     DisseminationProtocol& protocol,
                                     const ProtocolOptions& options,
                                     ProtocolScratch& scratch,
                                     bool incremental) {
  observe_window(net, observers, seed, incremental);
  const ProtocolResult result = net.disseminate(protocol, options, scratch);
  observers.on_dissemination(result.trace, &result.stats);
  return collect(observers);
}

}  // namespace churnet
