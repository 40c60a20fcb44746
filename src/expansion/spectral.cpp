#include "expansion/spectral.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/assertx.hpp"

namespace churnet {

namespace {

/// Rows whose neighbor sums lazy_walk_product runs side by side.
constexpr std::uint32_t kRowGroup = 4;

/// next = P x with P = (I + D^{-1} A) / 2. Each row adds its neighbors in
/// CSR order into its own accumulator, exactly as a one-row loop does; the
/// rows of a group only interleave, so kRowGroup add chains overlap instead
/// of one. No sum is reassociated, so every entry of `next` is the one-row
/// loop's, bit for bit. Rows past the last full group take the one-row loop.
/// The kernel starts on a cache-line boundary so that its loops keep one
/// placement however much code links before it: shifted by 16 bytes, they
/// made a resilience campaign's observation phase about 15% slower on an
/// AVX-512 Xeon (GCC 12, Release).
[[gnu::aligned(64)]] void lazy_walk_product(const Snapshot& snapshot,
                                            const std::vector<double>& x,
                                            std::vector<double>& next) {
  const std::uint32_t n = snapshot.node_count();
  const std::uint32_t grouped = n - n % kRowGroup;
  for (std::uint32_t v = 0; v < grouped; v += kRowGroup) {
    std::span<const std::uint32_t> rows[kRowGroup];
    double sums[kRowGroup];
    std::size_t common = std::numeric_limits<std::size_t>::max();
    for (std::uint32_t r = 0; r < kRowGroup; ++r) {
      rows[r] = snapshot.neighbors(v + r);
      sums[r] = 0.0;
      common = std::min(common, rows[r].size());
    }
    for (std::size_t j = 0; j < common; ++j) {
      for (std::uint32_t r = 0; r < kRowGroup; ++r) sums[r] += x[rows[r][j]];
    }
    for (std::uint32_t r = 0; r < kRowGroup; ++r) {
      for (std::size_t j = common; j < rows[r].size(); ++j) {
        sums[r] += x[rows[r][j]];
      }
      next[v + r] = 0.5 * (x[v + r] +
                           sums[r] / static_cast<double>(rows[r].size()));
    }
  }
  for (std::uint32_t v = grouped; v < n; ++v) {
    double sum = 0.0;
    for (const std::uint32_t w : snapshot.neighbors(v)) sum += x[w];
    next[v] = 0.5 * (x[v] + sum / static_cast<double>(snapshot.degree(v)));
  }
}

/// Shared deflated-power-iteration core. `seed` fills the start vector
/// (after the degree-0 early-out, so it is only invoked — and only consumes
/// RNG draws — when the iteration actually runs). When `final_x` is
/// non-null the pi-normalized iterate at stop is copied into it (the warm
/// state for the next probe).
template <typename SeedFn>
SpectralResult run_power_iteration(const Snapshot& snapshot, Rng& rng,
                                   std::uint32_t max_iterations,
                                   double tolerance, SeedFn&& seed,
                                   std::vector<double>* final_x) {
  const std::uint32_t n = snapshot.node_count();
  CHURNET_EXPECTS(n >= 2);
  SpectralResult result;

  // Isolated nodes are degree-0 fixed points of the lazy walk: lambda2 = 1
  // exactly and no iteration is needed.
  std::uint64_t total_degree = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t deg = snapshot.degree(v);
    if (deg == 0) {
      result.lambda2 = 1.0;
      result.spectral_gap = 0.0;
      result.cheeger_lower = 0.0;
      result.cheeger_upper = 0.0;
      result.converged = true;
      return result;
    }
    total_degree += deg;
  }

  // Stationary distribution pi_v = deg(v) / (2m); the top eigenvector of
  // the lazy walk is the all-ones vector, deflated in the pi-inner product.
  std::vector<double> pi(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    pi[v] = static_cast<double>(snapshot.degree(v)) /
            static_cast<double>(total_degree);
  }

  std::vector<double> x(n);
  seed(x);
  std::vector<double> next(n);

  auto deflate = [&](std::vector<double>& values) {
    double mean = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) mean += pi[v] * values[v];
    for (double& value : values) value -= mean;
  };
  auto pi_norm = [&](const std::vector<double>& values) {
    double sum = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      sum += pi[v] * values[v] * values[v];
    }
    return std::sqrt(sum);
  };

  deflate(x);
  {
    double norm = pi_norm(x);
    if (norm <= 0.0) {
      // A warm seed can (degenerately) lie entirely in the top eigenspace;
      // fall back to a fresh random vector, deterministically from `rng`.
      // Unreachable with a random seed, so the cold path is unaffected.
      for (double& value : x) value = rng.normal();
      deflate(x);
      norm = pi_norm(x);
    }
    CHURNET_ASSERT(norm > 0.0);
    for (double& value : x) value /= norm;
  }

  double rayleigh = 0.0;
  for (std::uint32_t iteration = 1; iteration <= max_iterations;
       ++iteration) {
    lazy_walk_product(snapshot, x, next);
    deflate(next);  // numerical re-orthogonalization against constants
    // Rayleigh quotient <x, Px>_pi with the pre-normalized x.
    double quotient = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      quotient += pi[v] * x[v] * next[v];
    }
    const double norm = pi_norm(next);
    result.iterations = iteration;
    if (norm <= 1e-300) {
      // x was (numerically) entirely in the top eigenspace: gap is huge.
      rayleigh = 0.0;
      result.converged = true;
      break;
    }
    for (std::uint32_t v = 0; v < n; ++v) x[v] = next[v] / norm;
    if (std::abs(quotient - rayleigh) < tolerance && iteration > 8) {
      rayleigh = quotient;
      result.converged = true;
      break;
    }
    rayleigh = quotient;
  }

  if (final_x != nullptr) *final_x = std::move(x);

  // The lazy walk's spectrum lies in [0, 1]; clamp numerical noise.
  result.lambda2 = std::clamp(rayleigh, 0.0, 1.0);
  result.spectral_gap = 1.0 - result.lambda2;
  result.cheeger_lower = result.spectral_gap / 2.0;
  result.cheeger_upper = std::sqrt(2.0 * result.spectral_gap);
  return result;
}

}  // namespace

SpectralResult spectral_gap(const Snapshot& snapshot, Rng& rng,
                            std::uint32_t max_iterations, double tolerance) {
  return run_power_iteration(
      snapshot, rng, max_iterations, tolerance,
      [&rng](std::vector<double>& x) {
        for (double& value : x) value = rng.normal();
      },
      nullptr);
}

SpectralResult spectral_gap_warm(const Snapshot& snapshot, Rng& rng,
                                 SpectralWarmState& state,
                                 std::uint32_t max_iterations,
                                 double tolerance) {
  const std::uint32_t n = snapshot.node_count();
  SpectralResult result;
  if (!state.valid) {
    // Cold start: draw-for-draw identical to spectral_gap.
    result = run_power_iteration(
        snapshot, rng, max_iterations, tolerance,
        [&rng](std::vector<double>& x) {
          for (double& value : x) value = rng.normal();
        },
        &state.values);
  } else {
    // Re-project the previous eigenvector onto the surviving node set:
    // survivors (matched by generation-qualified NodeId) keep their stored
    // component, newcomers draw fresh — in index order, so the draw
    // sequence is a deterministic function of the churn history.
    std::uint32_t max_slot = 0;
    for (const NodeId id : state.nodes) max_slot = std::max(max_slot, id.slot);
    std::vector<std::uint32_t> slot_to_prev(
        static_cast<std::size_t>(max_slot) + 1, NodeId::kInvalidSlot);
    for (std::uint32_t p = 0;
         p < static_cast<std::uint32_t>(state.nodes.size()); ++p) {
      slot_to_prev[state.nodes[p].slot] = p;
    }
    result = run_power_iteration(
        snapshot, rng, max_iterations, tolerance,
        [&](std::vector<double>& x) {
          for (std::uint32_t v = 0; v < n; ++v) {
            const NodeId id = snapshot.node_id(v);
            const std::uint32_t p =
                id.slot <= max_slot ? slot_to_prev[id.slot]
                                    : NodeId::kInvalidSlot;
            if (p != NodeId::kInvalidSlot && state.nodes[p] == id) {
              x[v] = state.values[p];
            } else {
              x[v] = rng.normal();
            }
          }
        },
        &state.values);
  }

  if (result.iterations == 0 && result.converged) {
    // Degree-0 early-out: no eigenvector was produced. Keep any previous
    // state — its survivors stay reusable for the next connected snapshot.
    return result;
  }
  state.nodes.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) state.nodes[v] = snapshot.node_id(v);
  state.valid = true;
  return result;
}

}  // namespace churnet
