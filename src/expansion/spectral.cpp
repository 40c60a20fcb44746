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
/// AVX-512 Xeon (GCC 12, Release). It must not be inlined: its one caller
/// would absorb it, and the alignment would then pin nothing.
[[gnu::noinline, gnu::aligned(64)]] void lazy_walk_product(
    const Snapshot& snapshot, const std::vector<double>& x,
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

}  // namespace

SpectralResult spectral_gap(const Snapshot& snapshot, Rng& rng,
                            std::uint32_t max_iterations, double tolerance) {
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

  // The start vector is drawn only past the degree-0 early-out, so a
  // disconnected snapshot consumes no RNG draws.
  std::vector<double> x(n);
  for (double& value : x) value = rng.normal();
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
    const double norm = pi_norm(x);
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

  // The lazy walk's spectrum lies in [0, 1]; clamp numerical noise.
  result.lambda2 = std::clamp(rayleigh, 0.0, 1.0);
  result.spectral_gap = 1.0 - result.lambda2;
  result.cheeger_lower = result.spectral_gap / 2.0;
  result.cheeger_upper = std::sqrt(2.0 * result.spectral_gap);
  return result;
}

}  // namespace churnet
