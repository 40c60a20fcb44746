// Spectral expansion estimation: the second eigenvalue of the lazy random
// walk on a snapshot, computed by deflated power iteration.
//
// This is an *algebraic* expansion measure, independent of the
// combinatorial probe in expansion.hpp. For the lazy walk
// P = (I + D^{-1} A) / 2 the spectral gap 1 - lambda_2 controls
// conductance through the Cheeger inequalities
//     (1 - lambda_2) / 2  <=  Phi(G)  <=  sqrt(2 (1 - lambda_2)),
// and conductance lower-bounds vertex expansion up to degree factors. A
// gap bounded away from zero certifies that no sparse cut exists anywhere
// -- complementing the probe, which can only exhibit bad sets, not exclude
// them. Disconnected graphs (e.g. SDG/PDG with isolated nodes) have
// lambda_2 = 1, i.e. zero gap, which the benches use as the negative
// signal for the non-regenerating models.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "graph/snapshot.hpp"

namespace churnet {

struct SpectralResult {
  /// Second eigenvalue of the lazy random walk (1 = disconnected).
  double lambda2 = 1.0;
  /// 1 - lambda2.
  double spectral_gap = 0.0;
  /// Cheeger bounds on the conductance derived from lambda2.
  double cheeger_lower = 0.0;
  double cheeger_upper = 0.0;
  /// Power-iteration steps actually used.
  std::uint32_t iterations = 0;
  /// True when the Rayleigh quotient moved less than `tolerance` at stop.
  bool converged = false;
};

/// Estimates lambda_2 by power iteration on the lazy walk, deflating the
/// stationary component (pi-weighted projection onto constants). Isolated
/// nodes are fixed points of the lazy walk; if any exists the result is
/// exactly lambda2 = 1. Deterministic given `rng`'s state.
SpectralResult spectral_gap(const Snapshot& snapshot, Rng& rng,
                            std::uint32_t max_iterations = 500,
                            double tolerance = 1e-9);

}  // namespace churnet
