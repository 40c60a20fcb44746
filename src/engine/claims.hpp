// Paper claims as data (DESIGN.md §8). A ClaimRow names a claim, the sweep
// cells it quantifies over and a per-replication predicate; evaluate_claim
// counts the predicate's verdicts over a SweepResult and judges the row
// PASS, FAIL or INCONCLUSIVE from one-sided Clopper-Pearson bounds — the
// finite-sample reading of a "with high probability" claim:
//
//   over the m replications the row selects, count `holds` and `violated`;
//   PASS          if the lower bound of holds/m            >= p0,
//   FAIL          if the upper bound of (m - violated)/m   <  p0,
//   INCONCLUSIVE  otherwise (unknown replications keep both doors open).
//
// Both bounds are one-sided at confidence 1 - kClaimAlpha.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "engine/sweep_runner.hpp"

namespace churnet {

/// Significance of both one-sided bounds.
inline constexpr double kClaimAlpha = 0.05;

/// The cells a row quantifies over: one of `scenarios` (resolved names),
/// with d in [d_min, d_max].
struct ClaimCells {
  std::vector<std::string> scenarios;
  std::uint32_t d_min = 0;
  std::uint32_t d_max = std::numeric_limits<std::uint32_t>::max();

  bool matches(const SweepCellKey& key) const;
};

/// One replication as a predicate reads it: its cell's n and d, and its
/// metric values by column name.
class ClaimSample {
 public:
  ClaimSample(const SweepResult& result, std::size_t cell,
              std::size_t replication);

  std::uint32_t n() const { return key_->n; }
  std::uint32_t d() const { return key_->d; }
  /// The named column's value (NaN = not observed). The column must exist.
  double operator[](std::string_view metric) const;

 private:
  const std::vector<std::string>* metrics_;
  const SweepCellKey* key_;
  const std::vector<double>* values_;
};

/// true = the claim holds in this replication, false = it is violated,
/// nullopt = unknown. A predicate that cannot certify its claim never
/// returns true.
using ClaimPredicate = std::function<std::optional<bool>(const ClaimSample&)>;

struct ClaimRow {
  std::string id;     // "T3.16"
  std::string claim;  // "completion_step <= 3 log2 n"
  ClaimCells cells;
  ClaimPredicate holds;
  double p0 = 0.75;   // required proportion of replications
};

enum class ClaimVerdict { kPass, kFail, kInconclusive };

struct ClaimOutcome {
  std::uint64_t replications = 0;  // m
  std::uint64_t holds = 0;
  std::uint64_t violated = 0;
  /// lo: lower bound of holds/m; hi: upper bound of (m - violated)/m.
  Interval bounds{0.0, 1.0};
  ClaimVerdict verdict = ClaimVerdict::kInconclusive;
};

/// Applies the verdict rule above to every replication of every cell of
/// `result` that `row.cells` selects.
ClaimOutcome evaluate_claim(const ClaimRow& row, const SweepResult& result);

/// "PASS", "FAIL" or "INCONCLUSIVE".
const char* claim_verdict_name(ClaimVerdict verdict);

}  // namespace churnet
