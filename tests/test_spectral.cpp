// Tests for expansion/spectral.hpp: lambda_2 of the lazy random walk
// against known spectra, Cheeger bound sanity, agreement with the
// combinatorial probe on expanders vs non-expanders, and bit-identity of
// the row-grouped product against the one-row reference kernel.
#include "expansion/spectral.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#include "baselines/static_dout.hpp"
#include "expansion/expansion.hpp"
#include "models/poisson_network.hpp"
#include "models/streaming_network.hpp"

namespace churnet {
namespace {

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

Snapshot cycle_graph(std::uint32_t n) {
  Edges edges;
  for (std::uint32_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  return Snapshot::from_edges(n, edges);
}

Snapshot complete_graph(std::uint32_t n) {
  Edges edges;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return Snapshot::from_edges(n, edges);
}

TEST(Spectral, CycleMatchesKnownSpectrum) {
  // Lazy walk on C_n: lambda_2 = (1 + cos(2*pi/n)) / 2.
  for (const std::uint32_t n : {8u, 16u, 32u}) {
    const Snapshot snap = cycle_graph(n);
    Rng rng(1);
    const SpectralResult result = spectral_gap(snap, rng, 20000, 1e-12);
    const double expected =
        (1.0 + std::cos(2.0 * std::numbers::pi / n)) / 2.0;
    EXPECT_NEAR(result.lambda2, expected, 1e-4) << "n=" << n;
    EXPECT_TRUE(result.converged);
  }
}

TEST(Spectral, CompleteGraphMatchesKnownSpectrum) {
  // Walk on K_n has second eigenvalue -1/(n-1); lazy: (1 - 1/(n-1))/2.
  for (const std::uint32_t n : {6u, 12u, 24u}) {
    const Snapshot snap = complete_graph(n);
    Rng rng(2);
    const SpectralResult result = spectral_gap(snap, rng, 20000, 1e-12);
    const double expected = (1.0 - 1.0 / (n - 1.0)) / 2.0;
    EXPECT_NEAR(result.lambda2, expected, 1e-6) << "n=" << n;
  }
}

TEST(Spectral, DisconnectedGraphHasZeroGap) {
  // Two disjoint triangles: lambda_2 = 1 exactly.
  const Snapshot snap = Snapshot::from_edges(
      6, Edges{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  Rng rng(3);
  const SpectralResult result = spectral_gap(snap, rng, 5000, 1e-12);
  EXPECT_NEAR(result.lambda2, 1.0, 1e-6);
  EXPECT_NEAR(result.spectral_gap, 0.0, 1e-6);
}

TEST(Spectral, IsolatedNodeShortCircuitsToGapZero) {
  const Snapshot snap = Snapshot::from_edges(4, Edges{{0, 1}, {1, 2}});
  Rng rng(4);
  const SpectralResult result = spectral_gap(snap, rng);
  EXPECT_DOUBLE_EQ(result.lambda2, 1.0);
  EXPECT_DOUBLE_EQ(result.spectral_gap, 0.0);
  EXPECT_TRUE(result.converged);
}

TEST(Spectral, StaticDoutExpanderHasLargeGap) {
  Rng rng(5);
  const Snapshot snap = static_dout_snapshot(2000, 5, rng);
  Rng power_rng(6);
  const SpectralResult result = spectral_gap(snap, power_rng, 2000, 1e-10);
  EXPECT_GT(result.spectral_gap, 0.15);
  EXPECT_LT(result.lambda2, 0.85);
}

TEST(Spectral, CheegerBoundsAreOrdered) {
  Rng rng(7);
  const Snapshot snap = static_dout_snapshot(500, 4, rng);
  Rng power_rng(8);
  const SpectralResult result = spectral_gap(snap, power_rng, 2000, 1e-10);
  EXPECT_LE(result.cheeger_lower, result.cheeger_upper);
  EXPECT_GE(result.cheeger_lower, 0.0);
}

TEST(Spectral, BarbellHasSmallGap) {
  // Two K_8 cliques joined by one edge: conductance ~ 1/(2*28+1), so the
  // gap must be tiny compared to a clique of the same size.
  Edges edges;
  for (std::uint32_t u = 0; u < 8; ++u) {
    for (std::uint32_t v = u + 1; v < 8; ++v) {
      edges.emplace_back(u, v);
      edges.emplace_back(8 + u, 8 + v);
    }
  }
  edges.emplace_back(0, 8);
  const Snapshot barbell = Snapshot::from_edges(16, edges);
  Rng rng(9);
  const SpectralResult bar = spectral_gap(barbell, rng, 50000, 1e-12);
  Rng rng2(10);
  const SpectralResult clique =
      spectral_gap(complete_graph(16), rng2, 50000, 1e-12);
  EXPECT_LT(bar.spectral_gap, clique.spectral_gap / 5.0);
  // Cheeger upper bound must dominate the true conductance of the cut
  // separating the cliques: Phi = 1 / (2*28+1).
  EXPECT_GE(bar.cheeger_upper, 1.0 / 57.0);
}

TEST(Spectral, AgreesWithProbeOnOrdering) {
  // The spectral gap and the probe minimum must order a good expander vs a
  // ring the same way.
  Rng rng(11);
  const Snapshot expander = static_dout_snapshot(512, 6, rng);
  const Snapshot ring = cycle_graph(512);
  Rng r1(12);
  Rng r2(13);
  const double expander_gap = spectral_gap(expander, r1).spectral_gap;
  const double ring_gap = spectral_gap(ring, r2).spectral_gap;
  EXPECT_GT(expander_gap, 10.0 * ring_gap);
  Rng r3(14);
  Rng r4(15);
  const double expander_probe =
      probe_expansion(expander, r3, {}).min_ratio;
  const double ring_probe = probe_expansion(ring, r4, {}).min_ratio;
  EXPECT_GT(expander_probe, 10.0 * ring_probe);
}

TEST(Spectral, DeterministicForSeed) {
  Rng graph_rng(16);
  const Snapshot snap = static_dout_snapshot(300, 4, graph_rng);
  Rng a(17);
  Rng b(17);
  const SpectralResult ra = spectral_gap(snap, a);
  const SpectralResult rb = spectral_gap(snap, b);
  EXPECT_DOUBLE_EQ(ra.lambda2, rb.lambda2);
}

// ---------------------------------------------------------------------------
// The one-row power iteration, embedded as a reference: spectral_gap as it
// was before the product summed rows in groups. The grouped kernel must
// match it bit for bit and leave the RNG in the same state.
// ---------------------------------------------------------------------------

SpectralResult reference_spectral_gap(const Snapshot& snapshot, Rng& rng,
                                      std::uint32_t max_iterations,
                                      double tolerance) {
  const std::uint32_t n = snapshot.node_count();
  CHURNET_EXPECTS(n >= 2);
  SpectralResult result;

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

  std::vector<double> pi(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    pi[v] = static_cast<double>(snapshot.degree(v)) /
            static_cast<double>(total_degree);
  }

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
    double norm = pi_norm(x);
    if (norm <= 0.0) {
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
    // next = P x with P = (I + D^{-1} A) / 2.
    for (std::uint32_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (const std::uint32_t w : snapshot.neighbors(v)) sum += x[w];
      next[v] =
          0.5 * (x[v] + sum / static_cast<double>(snapshot.degree(v)));
    }
    deflate(next);
    double quotient = 0.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      quotient += pi[v] * x[v] * next[v];
    }
    const double norm = pi_norm(next);
    result.iterations = iteration;
    if (norm <= 1e-300) {
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

  result.lambda2 = std::clamp(rayleigh, 0.0, 1.0);
  result.spectral_gap = 1.0 - result.lambda2;
  result.cheeger_lower = result.spectral_gap / 2.0;
  result.cheeger_upper = std::sqrt(2.0 * result.spectral_gap);
  return result;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Runs the kernel and the reference from equal RNG states and requires
/// bit-equal results and RNG states (the cached normal spare included).
void expect_matches_reference(const Snapshot& snap, std::uint64_t seed,
                              std::uint32_t max_iterations, double tolerance,
                              const std::string& label) {
  SCOPED_TRACE(label + " max_iterations=" + std::to_string(max_iterations));
  Rng kernel_rng(seed);
  Rng reference_rng(seed);
  const SpectralResult got =
      spectral_gap(snap, kernel_rng, max_iterations, tolerance);
  const SpectralResult want =
      reference_spectral_gap(snap, reference_rng, max_iterations, tolerance);
  EXPECT_EQ(bits(got.lambda2), bits(want.lambda2));
  EXPECT_EQ(bits(got.spectral_gap), bits(want.spectral_gap));
  EXPECT_EQ(bits(got.cheeger_lower), bits(want.cheeger_lower));
  EXPECT_EQ(bits(got.cheeger_upper), bits(want.cheeger_upper));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(bits(kernel_rng.normal()), bits(reference_rng.normal()));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(kernel_rng.next_u64(), reference_rng.next_u64());
  }
}

/// A connected multigraph on n nodes: a ring plus random chords, with
/// parallel edges and self-loops, so rows of one group differ in degree.
Snapshot multigraph(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  Edges edges;
  for (std::uint32_t v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  for (std::uint32_t k = 0; k < 3 * n; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.below(n));
    const auto b = static_cast<std::uint32_t>(rng.below(n));
    edges.emplace_back(a, b);
    if (k % 7 == 0) edges.emplace_back(a, b);  // parallel edge
    if (k % 11 == 0) edges.emplace_back(a, a);  // self-loop
  }
  return Snapshot::from_edges(n, edges);
}

TEST(SpectralKernel, MatchesReferenceOnMultigraphsOfEveryResidue) {
  // n = 0, 1, 2, 3 (mod 4): a full last group and each leftover count.
  for (const std::uint32_t n : {2u, 3u, 5u, 8u, 41u, 42u, 43u, 64u, 301u}) {
    const Snapshot snap = multigraph(n, 100 + n);
    for (const std::uint32_t iterations : {1u, 5u, 8u, 500u}) {
      expect_matches_reference(snap, 7 + n, iterations, 1e-9,
                               "multigraph n=" + std::to_string(n));
    }
    expect_matches_reference(snap, 9 + n, 2000, 1e-4,
                             "loose tolerance n=" + std::to_string(n));
  }
}

TEST(SpectralKernel, MatchesReferenceOnDegreeZeroEarlyOut) {
  // Node 6 has no edges: both kernels return lambda2 = 1 without a draw.
  const Snapshot snap = Snapshot::from_edges(
      7, Edges{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {0, 0}});
  expect_matches_reference(snap, 21, 500, 1e-9, "degree-0 vertex");
  Rng rng(21);
  EXPECT_EQ(spectral_gap(snap, rng).iterations, 0u);
}

TEST(SpectralKernel, MatchesReferenceOnWarmedSnapshots) {
  StreamingConfig sdgr;
  sdgr.n = 1000;
  sdgr.d = 4;
  sdgr.policy = EdgePolicy::kRegenerate;
  sdgr.seed = 31;
  StreamingNetwork streaming(sdgr);
  streaming.warm_up();
  const Snapshot sdgr_snap = streaming.snapshot();

  PoissonNetwork poisson(
      PoissonConfig::with_n(1000, 4, EdgePolicy::kRegenerate, 32));
  poisson.warm_up();
  const Snapshot pdgr_snap = poisson.snapshot();

  for (const std::uint32_t iterations : {3u, 500u}) {
    expect_matches_reference(sdgr_snap, 33, iterations, 1e-9, "SDGR");
    expect_matches_reference(pdgr_snap, 34, iterations, 1e-9, "PDGR");
  }
}

}  // namespace
}  // namespace churnet
