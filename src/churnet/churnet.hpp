// Umbrella header for the churnet library.
//
// churnet reproduces "Expansion and Flooding in Dynamic Random Networks
// with Node Churn" (Becchetti, Clementi, Pasquale, Trevisan, Ziccardi;
// ICDCS 2021): the four dynamic random graph models (streaming / Poisson
// churn, with / without edge regeneration), the flooding processes studied
// on them, vertex-expansion measurement and the static baselines.
//
// Subsystem headers can also be included individually; see DESIGN.md for
// the architecture map.
#pragma once

#include "baselines/erdos_renyi.hpp"       // IWYU pragma: export
#include "baselines/static_dout.hpp"       // IWYU pragma: export
#include "benchutil/experiment.hpp"        // IWYU pragma: export
#include "churn/churn_process.hpp"         // IWYU pragma: export
#include "churn/churn_spec.hpp"            // IWYU pragma: export
#include "churn/lifetime_churn.hpp"        // IWYU pragma: export
#include "churn/phased_churn.hpp"          // IWYU pragma: export
#include "churn/poisson_churn.hpp"         // IWYU pragma: export
#include "churn/streaming_churn.hpp"       // IWYU pragma: export
#include "common/cli.hpp"                  // IWYU pragma: export
#include "common/histogram.hpp"            // IWYU pragma: export
#include "common/json.hpp"                 // IWYU pragma: export
#include "common/mathx.hpp"                // IWYU pragma: export
#include "common/rng.hpp"                  // IWYU pragma: export
#include "common/specgram.hpp"             // IWYU pragma: export
#include "common/stats.hpp"                // IWYU pragma: export
#include "common/table.hpp"                // IWYU pragma: export
#include "engine/claims.hpp"               // IWYU pragma: export
#include "engine/job_pool.hpp"             // IWYU pragma: export
#include "engine/result_stream.hpp"        // IWYU pragma: export
#include "engine/scenario.hpp"             // IWYU pragma: export
#include "engine/spec_catalog.hpp"         // IWYU pragma: export
#include "engine/sweep_journal.hpp"        // IWYU pragma: export
#include "engine/sweep_runner.hpp"         // IWYU pragma: export
#include "engine/sweep_service.hpp"        // IWYU pragma: export
#include "expansion/expansion.hpp"         // IWYU pragma: export
#include "expansion/isolated.hpp"          // IWYU pragma: export
#include "expansion/spectral.hpp"          // IWYU pragma: export
#include "flooding/flood_driver.hpp"       // IWYU pragma: export
#include "graph/algorithms.hpp"            // IWYU pragma: export
#include "graph/dynamic_graph.hpp"         // IWYU pragma: export
#include "graph/snapshot.hpp"              // IWYU pragma: export
#include "models/network.hpp"              // IWYU pragma: export
#include "models/poisson_network.hpp"      // IWYU pragma: export
#include "models/static_network.hpp"       // IWYU pragma: export
#include "models/streaming_network.hpp"    // IWYU pragma: export
#include "observe/observer.hpp"            // IWYU pragma: export
#include "observe/observer_spec.hpp"       // IWYU pragma: export
#include "observe/observers.hpp"           // IWYU pragma: export
#include "observe/pipeline.hpp"            // IWYU pragma: export
#include "protocols/dissemination.hpp"     // IWYU pragma: export
#include "protocols/gossip.hpp"            // IWYU pragma: export
#include "protocols/protocol.hpp"          // IWYU pragma: export
#include "protocols/protocol_spec.hpp"     // IWYU pragma: export
#include "telemetry/telemetry.hpp"         // IWYU pragma: export
#include "telemetry/trace_sink.hpp"        // IWYU pragma: export
