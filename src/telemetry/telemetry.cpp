#include "telemetry/telemetry.hpp"

namespace churnet::telemetry {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kGenesis: return "genesis";
    case Phase::kChurn: return "churn";
    case Phase::kDissemination: return "dissemination";
    case Phase::kObserve: return "observe";
    case Phase::kSnapshot: return "snapshot";
  }
  return "unknown";
}

const char* counter_name(Counter counter) {
  switch (counter) {
    case Counter::kChurnEvents: return "churn_events";
    case Counter::kMessages: return "messages";
    case Counter::kSnapshotBytes: return "snapshot_bytes";
    case Counter::kSnapshots: return "snapshots";
    case Counter::kObservations: return "observations";
    case Counter::kTrials: return "trials";
  }
  return "unknown";
}

}  // namespace churnet::telemetry
