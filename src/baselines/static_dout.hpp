// Static d-out random graph baseline (paper Lemma B.1).
//
// Each of n nodes picks d uniform random other nodes (independently, with
// replacement). Lemma B.1: this static graph is a Θ(1)-expander w.h.p. for
// d >= 3 — the reference point "what the topology achieves without churn"
// used by the expansion and flooding-time benches.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/snapshot.hpp"

namespace churnet {

/// Builds one static d-out sample as a Snapshot.
Snapshot static_dout_snapshot(std::uint32_t n, std::uint32_t d, Rng& rng);

}  // namespace churnet
