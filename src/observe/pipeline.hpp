// The observation pipeline driver: attaches an ObserverSet to one trial on
// any network model (DESIGN.md §6). observe_window is the one copy of the
// observation lifecycle (steps 1-3 below): SweepPlan::run_job calls it and
// shares the returned snapshot with its engine metrics and dissemination
// run; observe_network and observe_protocol wrap it for one-off passes
// outside a sweep.
//
// One observation pass over a warmed network is:
//
//   1. begin_trial(seed)         -- reset + reseed every observer (seeds
//      routed per observer: derive_seed(seed, index, 0));
//   2. the observation window    -- advance the network by the set's
//      observation_rounds() churn steps, calling on_round after each
//      (skipped entirely when no observer wants rounds);
//   3. ObserverSet::observe      -- the set builds its one shared dense
//      snapshot iff some observer wants it, offers it via on_snapshot, and
//      lets the censuses measure the live graph via on_observe; the same
//      shared snapshot serves the dissemination-start census in
//      observe_protocol instead of a second capture;
//   4. optionally one dissemination run (flood or any protocol), offered
//      via on_dissemination;
//   5. append_values             -- one value per declared metric column.
//
// The window intentionally runs *before* the measurement: observers
// measure the network after the window they asked for, and a set without
// round observers measures the warmed network unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "models/network.hpp"
#include "observe/observer.hpp"

namespace churnet {

/// Steps 1-3 of the pass on a warmed network: the reset, the observation
/// window (under one churn span) and ObserverSet::observe. Returns the
/// set's shared snapshot, or nullptr when no observer wants one. Values
/// are then collected with ObserverSet::append_values.
const Snapshot* observe_window(AnyNetwork& net, ObserverSet& observers,
                               std::uint64_t seed);

/// Runs one observation pass (window + measurement) on a warmed network
/// and returns the set's metric values. Dissemination observers in the set
/// report NaN (nothing spread); use observe_protocol to observe a
/// dissemination run.
std::vector<double> observe_network(AnyNetwork& net, ObserverSet& observers,
                                    std::uint64_t seed);

/// As above, plus one dissemination run (FloodProtocol for the paper's
/// process) between the measurement and value collection; the trace and
/// the run's message accounting are offered to dissemination observers.
std::vector<double> observe_protocol(AnyNetwork& net, ObserverSet& observers,
                                     std::uint64_t seed,
                                     DisseminationProtocol& protocol,
                                     const ProtocolOptions& options,
                                     ProtocolScratch& scratch);

}  // namespace churnet
