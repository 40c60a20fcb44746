#include "engine/claims.hpp"

#include <algorithm>

#include "common/assertx.hpp"

namespace churnet {

bool ClaimCells::matches(const SweepCellKey& key) const {
  return key.d >= d_min && key.d <= d_max &&
         std::find(scenarios.begin(), scenarios.end(), key.scenario) !=
             scenarios.end();
}

ClaimSample::ClaimSample(const SweepResult& result, std::size_t cell,
                         std::size_t replication)
    : metrics_(&result.metrics()),
      key_(&result.cells()[cell]),
      values_(&result.samples()[cell][replication]) {}

double ClaimSample::operator[](std::string_view metric) const {
  const auto it = std::find(metrics_->begin(), metrics_->end(), metric);
  CHURNET_EXPECTS(it != metrics_->end());
  return (*values_)[static_cast<std::size_t>(it - metrics_->begin())];
}

ClaimOutcome evaluate_claim(const ClaimRow& row, const SweepResult& result) {
  ClaimOutcome outcome;
  for (std::size_t cell = 0; cell < result.cells().size(); ++cell) {
    if (!row.cells.matches(result.cells()[cell])) continue;
    for (std::size_t rep = 0; rep < result.samples()[cell].size(); ++rep) {
      const std::optional<bool> holds =
          row.holds(ClaimSample(result, cell, rep));
      ++outcome.replications;
      if (holds.has_value()) ++(*holds ? outcome.holds : outcome.violated);
    }
  }
  const std::uint64_t m = outcome.replications;
  outcome.bounds = {clopper_pearson(outcome.holds, m, kClaimAlpha).lo,
                    clopper_pearson(m - outcome.violated, m, kClaimAlpha).hi};
  if (outcome.bounds.lo >= row.p0) {
    outcome.verdict = ClaimVerdict::kPass;
  } else if (outcome.bounds.hi < row.p0) {
    outcome.verdict = ClaimVerdict::kFail;
  }
  return outcome;
}

const char* claim_verdict_name(ClaimVerdict verdict) {
  switch (verdict) {
    case ClaimVerdict::kPass:
      return "PASS";
    case ClaimVerdict::kFail:
      return "FAIL";
    case ClaimVerdict::kInconclusive:
      break;
  }
  return "INCONCLUSIVE";
}

}  // namespace churnet
