// Tests for the static baselines (Lemma B.1 d-out graphs, Erdős–Rényi).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/erdos_renyi.hpp"
#include "baselines/static_dout.hpp"
#include "graph/algorithms.hpp"

namespace churnet {
namespace {

TEST(StaticDout, HasExactlyNDEdges) {
  Rng rng(1);
  const Snapshot snap = static_dout_snapshot(500, 4, rng);
  EXPECT_EQ(snap.node_count(), 500u);
  EXPECT_EQ(snap.edge_count(), 2000u);
}

TEST(StaticDout, NoSelfLoops) {
  Rng rng(2);
  const Snapshot snap = static_dout_snapshot(100, 5, rng);
  for (std::uint32_t v = 0; v < snap.node_count(); ++v) {
    for (const std::uint32_t w : snap.neighbors(v)) EXPECT_NE(w, v);
  }
}

TEST(StaticDout, MinDegreeAtLeastD) {
  // Every node issues d requests, so degree >= d.
  Rng rng(3);
  const Snapshot snap = static_dout_snapshot(300, 4, rng);
  EXPECT_GE(degree_stats(snap).min, 4u);
}

TEST(StaticDout, MeanDegreeIsTwoD) {
  Rng rng(4);
  const Snapshot snap = static_dout_snapshot(1000, 6, rng);
  EXPECT_DOUBLE_EQ(degree_stats(snap).mean, 12.0);
}

TEST(StaticDout, ConnectedForDAtLeastThree) {
  // Lemma B.1 regime: d >= 3 gives an expander (hence connected) w.h.p.
  for (std::uint64_t seed = 10; seed < 15; ++seed) {
    Rng rng(seed);
    const Snapshot snap = static_dout_snapshot(2000, 3, rng);
    const Components comps = connected_components(snap);
    EXPECT_EQ(comps.count, 1u) << "seed " << seed;
  }
}

TEST(StaticDout, LogarithmicDiameterShape) {
  // Flooding from node 0 informs everyone within its eccentricity.
  Rng rng(5);
  const Snapshot snap = static_dout_snapshot(4000, 4, rng);
  EXPECT_EQ(connected_components(snap).count, 1u);
  EXPECT_LE(eccentricity(snap, 0), static_cast<std::uint32_t>(
                                       4.0 * std::log2(4000.0)));
}

TEST(ErdosRenyi, EdgeCountMatchesExpectation) {
  Rng rng(6);
  constexpr std::uint32_t kN = 1000;
  const double p = 0.01;
  const Snapshot snap = erdos_renyi_snapshot(kN, p, rng);
  const double expected = p * kN * (kN - 1) / 2.0;
  const double sigma = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(snap.edge_count()), expected,
              8.0 * sigma);
}

TEST(ErdosRenyi, ZeroProbabilityNoEdges) {
  Rng rng(7);
  const Snapshot snap = erdos_renyi_snapshot(50, 0.0, rng);
  EXPECT_EQ(snap.edge_count(), 0u);
}

TEST(ErdosRenyi, FullProbabilityCompleteGraph) {
  Rng rng(8);
  const Snapshot snap = erdos_renyi_snapshot(20, 1.0, rng);
  EXPECT_EQ(snap.edge_count(), 190u);
  for (std::uint32_t v = 0; v < 20; ++v) EXPECT_EQ(snap.degree(v), 19u);
}

TEST(ErdosRenyi, NoSelfLoopsOrDuplicates) {
  Rng rng(9);
  const Snapshot snap = erdos_renyi_snapshot(200, 0.05, rng);
  for (std::uint32_t v = 0; v < snap.node_count(); ++v) {
    std::set<std::uint32_t> seen;
    for (const std::uint32_t w : snap.neighbors(v)) {
      EXPECT_NE(w, v);
      EXPECT_TRUE(seen.insert(w).second) << "duplicate edge " << v << "-" << w;
    }
  }
}

TEST(ErdosRenyi, SupercriticalGiantComponent) {
  // p = 3/n: giant component should cover most nodes.
  Rng rng(10);
  constexpr std::uint32_t kN = 2000;
  const Snapshot snap = erdos_renyi_snapshot(kN, 3.0 / kN, rng);
  const Components comps = connected_components(snap);
  EXPECT_GT(comps.largest_size, kN / 2);
}

TEST(ErdosRenyi, DegreeDistributionMeanMatches) {
  Rng rng(11);
  constexpr std::uint32_t kN = 3000;
  const double p = 2.0 / kN;
  const Snapshot snap = erdos_renyi_snapshot(kN, p, rng);
  EXPECT_NEAR(degree_stats(snap).mean, 2.0, 0.2);
}

}  // namespace
}  // namespace churnet
