#include "observe/pipeline.hpp"

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
                               std::uint64_t seed) {
  observers.begin_trial(seed);
  {
    // One span over the whole window, never per step: two clock reads per
    // churn round would blow the telemetry overhead budget.
    const telemetry::PhaseTimer churn_span(telemetry::Phase::kChurn);
    const std::uint32_t rounds = observers.observation_rounds();
    for (std::uint32_t r = 0; r < rounds; ++r) {
      net.step();
      observers.on_round(net.graph(), net.now());
    }
  }
  return observers.observe(net.graph(), net.now());
}

std::vector<double> observe_network(AnyNetwork& net, ObserverSet& observers,
                                    std::uint64_t seed) {
  observe_window(net, observers, seed);
  return collect(observers);
}

std::vector<double> observe_protocol(AnyNetwork& net, ObserverSet& observers,
                                     std::uint64_t seed,
                                     DisseminationProtocol& protocol,
                                     const ProtocolOptions& options,
                                     ProtocolScratch& scratch) {
  observe_window(net, observers, seed);
  const ProtocolResult result = net.disseminate(protocol, options, scratch);
  observers.on_dissemination(result.trace, &result.stats);
  return collect(observers);
}

}  // namespace churnet
