// Tests for engine/claims.hpp: the cell filter, the holds / violated /
// unknown counts and each verdict of the Clopper-Pearson rule, on a
// hand-built two-cell SweepResult.
#include "engine/claims.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace churnet {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Two cells — SDGR n=100 d=4 and PDGR n=200 d=8 — with 20 replications
/// each of one metric, "x". The SDGR cell holds x = 0..19; the PDGR cell
/// holds x = 1 in 18 replications and NaN in the other 2.
SweepResult two_cell_result() {
  std::vector<std::vector<std::vector<double>>> samples(2);
  for (int rep = 0; rep < 20; ++rep) {
    samples[0].push_back({static_cast<double>(rep)});
    samples[1].push_back({rep < 18 ? 1.0 : kNaN});
  }
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR"};
  spec.replications = 20;
  return SweepResult(spec, {"x"},
                     {{"SDGR", "stream", "flood", 100, 4},
                      {"PDGR", "poisson", "flood", 200, 8}},
                     std::move(samples), 0.0, 1);
}

/// holds when x < threshold, violated when x >= threshold, unknown on NaN.
ClaimPredicate below(double threshold) {
  return [threshold](const ClaimSample& sample) -> std::optional<bool> {
    const double x = sample["x"];
    if (std::isnan(x)) return std::nullopt;
    return x < threshold;
  };
}

TEST(ClaimCells, FiltersByScenarioAndDegreeRange) {
  const SweepCellKey sdgr{"SDGR", "stream", "flood", 100, 4};
  EXPECT_TRUE((ClaimCells{{"SDGR"}}).matches(sdgr));
  EXPECT_TRUE((ClaimCells{{"PDGR", "SDGR"}, 4, 4}).matches(sdgr));
  EXPECT_FALSE((ClaimCells{{"PDGR"}}).matches(sdgr));
  EXPECT_FALSE((ClaimCells{{"SDGR"}, 5}).matches(sdgr));
  EXPECT_FALSE((ClaimCells{{"SDGR"}, 0, 3}).matches(sdgr));
}

TEST(ClaimSample, ReadsCellKeyAndMetricByName) {
  const SweepResult result = two_cell_result();
  const ClaimSample sample(result, 1, 19);
  EXPECT_EQ(sample.n(), 200u);
  EXPECT_EQ(sample.d(), 8u);
  EXPECT_TRUE(std::isnan(sample["x"]));
  EXPECT_EQ(ClaimSample(result, 0, 7)["x"], 7.0);
}

TEST(EvaluateClaim, CountsOnlySelectedCells) {
  const SweepResult result = two_cell_result();
  const ClaimOutcome sdgr =
      evaluate_claim({"a", "x < 15", {{"SDGR"}}, below(15)}, result);
  EXPECT_EQ(sdgr.replications, 20u);
  EXPECT_EQ(sdgr.holds, 15u);
  EXPECT_EQ(sdgr.violated, 5u);

  const ClaimOutcome both = evaluate_claim(
      {"b", "x < 15", {{"SDGR", "PDGR"}}, below(15)}, result);
  EXPECT_EQ(both.replications, 40u);
  EXPECT_EQ(both.holds, 33u);
  EXPECT_EQ(both.violated, 5u);  // the 2 NaN replications are unknown

  const ClaimOutcome none =
      evaluate_claim({"c", "x < 15", {{"SDGR"}, 5}, below(15)}, result);
  EXPECT_EQ(none.replications, 0u);
  EXPECT_EQ(none.verdict, ClaimVerdict::kInconclusive);
}

TEST(EvaluateClaim, PassFailAndInconclusive) {
  const SweepResult result = two_cell_result();
  // 20/20 holds: lower bound 0.05^(1/20) = 0.861 >= 0.75.
  const ClaimOutcome pass =
      evaluate_claim({"pass", "x < 20", {{"SDGR"}}, below(20)}, result);
  EXPECT_NEAR(pass.bounds.lo, 0.8609, 1e-4);
  EXPECT_STREQ(claim_verdict_name(pass.verdict), "PASS");
  // 10 violated of 20: the upper bound of 10/20 is below 0.75.
  const ClaimOutcome fail =
      evaluate_claim({"fail", "x < 10", {{"SDGR"}}, below(10)}, result);
  EXPECT_LT(fail.bounds.hi, 0.75);
  EXPECT_STREQ(claim_verdict_name(fail.verdict), "FAIL");
  // 15/20 holds: lower bound ~0.54 < 0.75 <= upper bound ~0.90.
  const ClaimOutcome middle =
      evaluate_claim({"mid", "x < 15", {{"SDGR"}}, below(15)}, result);
  EXPECT_LT(middle.bounds.lo, 0.75);
  EXPECT_GE(middle.bounds.hi, 0.75);
  EXPECT_STREQ(claim_verdict_name(middle.verdict), "INCONCLUSIVE");
}

TEST(EvaluateClaim, RowsThatOnlyFalsifyNeverPass) {
  // A predicate that never certifies: with nothing violated the bounds
  // stay [0, 1].
  const ClaimPredicate never = [](const ClaimSample& sample)
      -> std::optional<bool> {
    if (sample["x"] > 1.0) return false;
    return std::nullopt;
  };
  const ClaimOutcome unknown =
      evaluate_claim({"never", "x <= 1", {{"PDGR"}}, never}, two_cell_result());
  EXPECT_EQ(unknown.holds + unknown.violated, 0u);
  EXPECT_EQ(unknown.bounds.lo, 0.0);
  EXPECT_EQ(unknown.bounds.hi, 1.0);
  EXPECT_EQ(unknown.verdict, ClaimVerdict::kInconclusive);
}

TEST(EvaluateClaim, UnknownReplicationsBlockAFail) {
  // PDGR: 18 hold, 2 unknown. p0 = 0.99 cannot pass, and unknowns are not
  // violations, so (m - violated)/m = 1 and it cannot fail either.
  const ClaimOutcome outcome =
      evaluate_claim({"strict", "x < 2", {{"PDGR"}}, below(2), 0.99},
                     two_cell_result());
  EXPECT_EQ(outcome.holds, 18u);
  EXPECT_EQ(outcome.violated, 0u);
  EXPECT_EQ(outcome.verdict, ClaimVerdict::kInconclusive);
}

}  // namespace
}  // namespace churnet
