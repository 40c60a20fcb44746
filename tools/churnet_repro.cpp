// churnet_repro: one command per paper table/figure.
//
// Every headline measurement of "Expansion and Flooding in Dynamic Random
// Networks with Node Churn" (ICDCS 2021) is a declarative sweep + observer
// set registered here by name. Running a target regenerates its dataset as
// tidy long-format CSV (one row per observation) plus a JSON summary and a
// manifest (seed, git sha, cell count, resolved spec) under --out, so a
// figure is always `churnet_repro --only <target>` away from its data.
//
//   ./churnet_repro --list                 # every target, with its paper ref
//   ./churnet_repro --threads 0            # everything, ~1 min on 4 threads
//   ./churnet_repro --only table1,spectral-gap --threads 8
//   ./churnet_repro --quick --only spectral-gap   # pinned-seed smoke subset
//   ./churnet_repro --checkpoint ckpt/ --resume   # journaled, crash-resume
//
// --quick swaps each target for its pinned small-scale variant: the same
// grid shape at toy sizes, bit-identical for a fixed seed at any --threads
// (ctest diffs two quick targets against checked-in golden CSVs at 1 and 4
// threads).
//
// Claim checks: a target carries the paper claims its dataset measures as
// rows (engine/claims.hpp). At full scale every row is judged over the
// target's result — PASS, FAIL or INCONCLUSIVE — printed per target and in
// one closing table, and recorded in the manifest's "claims" array; the
// exit code is 1 if any row FAILs, after every dataset is written. --quick
// judges nothing: the toy sizes are determinism pins, not statistics.
//
// Determinism: a target's CSV is a pure function of (target, seed,
// scale). Cell c replication r of a target runs under derive_seed(seed, c,
// r) exactly as churnet_sweep would; observers and protocols draw from
// streams derived per replication, never from the network's RNG
// (DESIGN.md, decisions 8-12).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "churnet/churnet.hpp"
#include "common/sinks.hpp"

namespace {

using namespace churnet;

/// One paper table/figure: a named, declaratively specified sweep, plus
/// the paper claims its full-scale dataset checks.
struct ReproTarget {
  std::string name;        // CLI name ("table1")
  std::string paper_ref;   // what it reproduces ("Table 1")
  std::string description;
  std::string runtime;     // measured full-scale runtime
  SweepSpec full;
  SweepSpec quick;
  std::vector<ClaimRow> claims;
};

// ---- claim predicates (DESIGN.md §8) ---------------------------------------
// Each judges one replication: true = holds, false = violated, nullopt =
// unknown. The expansion probe only bounds expansion from above and the
// spectral estimate overstates the gap, so their rows can falsify but
// never certify.

/// Holds when value >= bound, violated when below, unknown on NaN.
std::optional<bool> at_least(double value, double bound) {
  if (std::isnan(value)) return std::nullopt;
  return value >= bound;
}

/// Violated when `refuted`, unknown otherwise: for rows that can only
/// falsify.
std::optional<bool> refuted_if(bool refuted) {
  if (refuted) return false;
  return std::nullopt;
}

/// Lemmas 3.5 / 4.10: isolated_fraction >= the lemma's bound at d.
ClaimPredicate isolated_at_least(double (*bound)(std::uint32_t)) {
  return [bound](const ClaimSample& s) {
    return at_least(s["isolated_fraction"], bound(s.d()));
  };
}

/// Lemmas 3.6 / 4.11: violated by a probed set of expansion below 0.1
/// inside the lemma's size window [n e^{-d/scale}, n/2].
ClaimPredicate no_sparse_set_in_window(double scale) {
  return [scale](const ClaimSample& s) {
    return refuted_if(s["expansion_min_ratio"] < 0.1 &&
                      s["expansion_argmin_size"] >=
                          s.n() * std::exp(-(s.d() / scale)));
  };
}

/// Thms 3.15 / 4.16: violated by a probed set of expansion below 0.1.
std::optional<bool> no_sparse_set(const ClaimSample& s) {
  return refuted_if(s["expansion_min_ratio"] < 0.1);
}

/// Thms 3.7 / 4.12, part 1: the flood dies out with at most d+1 informed.
std::optional<bool> dies_out_early(const ClaimSample& s) {
  return s["final_fraction"] == 0.0 && s["peak_informed"] <= s.d() + 1;
}

/// Thms 3.7 / 4.12, part 2: completion takes at least n/4 steps.
std::optional<bool> completes_after_quarter_n(const ClaimSample& s) {
  return at_least(s["completion_step"], s.n() / 4.0);
}

/// Thms 3.8 / 4.13: a phi = 1 - e^{-d/scale} fraction is informed within
/// B = 4 log2 n + d steps. Reaching 50% by B settles phi <= 0.5; a run
/// that stopped by B at >= phi settles any phi; missing 50% by B refutes
/// phi >= 0.5.
ClaimPredicate covers_within_budget(double scale) {
  return [scale](const ClaimSample& s) -> std::optional<bool> {
    const double phi = 1.0 - std::exp(-(s.d() / scale));
    const double budget = 4.0 * std::log2(s.n()) + s.d();
    const double half_step = s["coverage_step"];  // NaN: never reached 50%
    if ((phi <= 0.5 && half_step <= budget) ||
        (s["flood_steps"] <= budget && s["final_fraction"] >= phi)) {
      return true;
    }
    if (phi >= 0.5 && !(half_step <= budget)) return false;
    return std::nullopt;
  };
}

/// Thms 3.16 / 4.20: completion within 3 log2 n steps (NaN: violated).
std::optional<bool> completes_within_3_log2_n(const ClaimSample& s) {
  return s["completion_step"] <= 3.0 * std::log2(s.n());
}

/// Table-1 supplement: violated by a spectral gap of at most 0.05.
std::optional<bool> gap_above_5_percent(const ClaimSample& s) {
  return refuted_if(s["spectral_gap"] <= 0.05);
}

SweepSpec base_spec(std::vector<std::string> scenarios,
                    std::vector<std::uint32_t> n,
                    std::vector<std::uint32_t> d,
                    std::vector<std::string> metrics, std::string observers,
                    std::uint64_t reps) {
  SweepSpec spec;
  spec.scenarios = std::move(scenarios);
  spec.n_values = std::move(n);
  spec.d_values = std::move(d);
  spec.metrics = std::move(metrics);
  spec.observers = std::move(observers);
  spec.replications = reps;
  return spec;
}

/// The registry: every paper table/figure this binary reproduces. The
/// quick variants are pinned (sizes, reps and seeds all fixed) — they are
/// the determinism smoke surface, not statistically meaningful runs.
std::vector<ReproTarget> make_targets() {
  std::vector<ReproTarget> targets;

  // -- Table 1: the paper's summary matrix at a reference configuration.
  targets.push_back(ReproTarget{
      "table1", "Table 1",
      "all four dynamic models at a reference n across the d regimes the "
      "claims quantify over: expansion probe, spectral gap, isolated "
      "census, flooding completion/coverage per cell",
      "~8 s full scale on 4 threads",
      base_spec({"SDG", "SDGR", "PDG", "PDGR"}, {8000}, {2, 12, 21, 35},
                {"alive", "completion_step", "final_fraction",
                 "peak_informed"},
                "expansion(8)+spectral+isolated", 5),
      base_spec({"SDG", "SDGR", "PDG", "PDGR"}, {500}, {2, 8},
                {"alive", "completion_step", "final_fraction",
                 "peak_informed"},
                "expansion(8)+spectral+isolated", 2)});

  // -- Flooding time vs n (Theorems 3.16 / 4.20): completion is O(log n)
  // with regeneration.
  targets.push_back(ReproTarget{
      "flooding-time-vs-n", "Thms 3.16 / 4.20 (flooding-time figure)",
      "completion step of flooding on the regenerating models as n grows "
      "(the O(log n) claim); flood_steps/final_fraction for the tail",
      "~6 s full scale on 4 threads",
      base_spec({"SDGR", "PDGR"}, {1000, 2000, 4000, 8000, 16000}, {21, 35},
                {"alive", "completion_step", "flood_steps", "final_fraction"},
                "", 8),
      base_spec({"SDGR", "PDGR"}, {300, 600}, {8},
                {"alive", "completion_step", "flood_steps", "final_fraction"},
                "", 2),
      {{"T3.16", "SDGR completes in <= 3 log2 n, d >= 21",
        {{"SDGR"}, 21}, completes_within_3_log2_n},
       {"T4.20", "PDGR completes in <= 3 log2 n, d >= 35",
        {{"PDGR"}, 35}, completes_within_3_log2_n}}});

  // -- Flooding failure without regeneration (Theorems 3.7 / 4.12): at
  // d = 1 the flood dies out early with probability Omega_d(1); at d = 2
  // completion waits Omega_d(n) steps for the isolated nodes to die.
  const std::vector<std::string> failure_metrics = {
      "alive", "completion_step", "final_fraction", "peak_informed",
      "flood_steps"};
  targets.push_back(ReproTarget{
      "flooding-failure", "Thms 3.7 / 4.12 (flooding failure)",
      "flooding on the non-regenerating models at d = 1, 2 as n grows: "
      "early die-out (peak <= d+1 informed) and completion time vs n",
      "~4 s full scale on 4 threads",
      base_spec({"SDG", "PDG"}, {500, 1000, 2000, 4000}, {1, 2},
                failure_metrics, "", 100),
      base_spec({"SDG", "PDG"}, {300}, {1, 2}, failure_metrics, "", 2),
      {{"T3.7 die-out", "P[SDG dies at peak <= d+1] = Omega(1)",
        {{"SDG"}, 1, 1}, dies_out_early, 0.01},
       {"T4.12 die-out", "P[PDG dies at peak <= d+1] = Omega(1)",
        {{"PDG"}, 1, 1}, dies_out_early, 0.01},
       {"T3.7 Omega(n)", "SDG completes in >= n/4",
        {{"SDG"}, 2, 2}, completes_after_quarter_n},
       {"T4.12 Omega(n)", "PDG completes in >= n/4",
        {{"PDG"}, 2, 2}, completes_after_quarter_n}}});

  // -- Coverage vs d (Theorems 3.8 / 4.13): without regeneration flooding
  // still informs most nodes, with coverage -> 1 as d grows.
  targets.push_back(ReproTarget{
      "coverage-vs-d", "Thms 3.8 / 4.13 (coverage figure)",
      "terminal flooding coverage on the non-regenerating models as a "
      "function of d, with the coverage-curve observer (step to 50%, "
      "area under the curve)",
      "~1 s full scale on 4 threads",
      base_spec({"SDG", "PDG"}, {8000}, {2, 4, 8, 12, 16, 20},
                {"alive", "final_fraction", "peak_informed", "flood_steps"},
                "coverage(0.5)", 8),
      base_spec({"SDG", "PDG"}, {500}, {2, 8},
                {"alive", "final_fraction", "peak_informed", "flood_steps"},
                "coverage(0.5)", 2),
      {{"T3.8", "SDG informs 1-e^{-d/10} in 4 log2 n + d", {{"SDG"}},
        covers_within_budget(10.0)},
       {"T4.13", "PDG informs 1-e^{-d/20} in 4 log2 n + d", {{"PDG"}},
        covers_within_budget(20.0)}}});

  // -- Isolated-node regimes (Lemmas 3.5 / 4.10 and their absence under
  // regeneration), with the static baselines as contrast columns.
  targets.push_back(ReproTarget{
      "isolated-nodes", "Lemmas 3.5 / 4.10 (isolated-node regimes)",
      "isolated census and degree histogram for SDG/SDGR/PDG/PDGR and the "
      "static baselines across small d — the e^{-2d} isolation regimes "
      "and their disappearance under regeneration",
      "~3 s full scale on 4 threads",
      base_spec({"SDG", "SDGR", "PDG", "PDGR", "static-dout", "erdos-renyi"},
                {20000}, {1, 2, 3, 4, 6, 8}, {"alive"},
                "isolated+degrees", 5),
      base_spec({"SDG", "SDGR", "PDG", "PDGR", "static-dout", "erdos-renyi"},
                {400}, {1, 2}, {"alive"}, "isolated+degrees", 2),
      {{"L3.5", "SDG isolated frac >= e^{-2d}/6, d <= 4",
        {{"SDG"}, 0, 4}, isolated_at_least(lemma_3_5_isolated_fraction)},
       {"L4.10", "PDG isolated frac >= e^{-2d}/18, d <= 4",
        {{"PDG"}, 0, 4}, isolated_at_least(lemma_4_10_isolated_fraction)}}});

  // -- Large-set expansion without regeneration (Lemmas 3.6 / 4.11).
  targets.push_back(ReproTarget{
      "expansion-large-sets", "Lemmas 3.6 / 4.11 (large-set expansion)",
      "vertex-expansion probe on the non-regenerating models across the "
      "lemmas' d range; the probe covers every size, and the claim rows "
      "apply each lemma's size window to the probe's argmin",
      "~3 s full scale on 4 threads",
      base_spec({"SDG", "PDG"}, {20000}, {12, 16, 20, 24},
                {"alive", "isolated"}, "expansion(8)", 3),
      base_spec({"SDG", "PDG"}, {400}, {12}, {"alive", "isolated"},
                "expansion(8)", 2),
      {{"L3.6", "SDG |S| >= n e^{-d/10} expands, d >= 20",
        {{"SDG"}, 20}, no_sparse_set_in_window(10.0)},
       {"L4.11", "PDG |S| >= n e^{-d/20} expands, d >= 20",
        {{"PDG"}, 20}, no_sparse_set_in_window(20.0)}}});

  // -- Expansion under regeneration (Theorems 3.15 / 4.16).
  targets.push_back(ReproTarget{
      "expansion-regen", "Thms 3.15 / 4.16 (0.1-expander figure)",
      "vertex-expansion probe plus spectral gap on the regenerating "
      "models across d — where 0.1-expansion actually kicks in",
      "~11 s full scale on 4 threads",
      base_spec({"SDGR", "PDGR"}, {20000}, {3, 6, 10, 14, 21, 35},
                {"alive"}, "expansion(8)+spectral", 3),
      base_spec({"SDGR", "PDGR"}, {400}, {8}, {"alive"},
                "expansion(8)+spectral", 2),
      {{"T3.15", "SDGR is a 0.1-expander, d >= 14", {{"SDGR"}, 14},
        no_sparse_set},
       {"T4.16", "PDGR is a 0.1-expander, d >= 35", {{"PDGR"}, 35},
        no_sparse_set}}});

  // -- Resilience under adversarial and correlated churn (beyond the
  // paper's oblivious model; DESIGN.md decision 18): how expansion,
  // spectral gap, isolation and flooding coverage degrade as the adversary
  // budget grows, and under correlated mass failures / flash crowds.
  targets.push_back(ReproTarget{
      "resilience", "beyond-paper: adversarial/correlated churn",
      "degradation of expansion, spectral gap, isolated census and "
      "flooding coverage versus adversary budget (maxdeg/mindeg/cutset/"
      "eclipse at budgets 0.25/0.5/1) and under massfail/flashcrowd "
      "bursts, with the oblivious models as the budget-0 baseline",
      "~17 s full scale on 4 threads",
      base_spec({"SDGR", "SDGR+maxdeg(0.25)", "SDGR+maxdeg(0.5)",
                 "SDGR+maxdeg(1)", "SDGR+mindeg(0.5)", "SDGR+cutset(0.5)",
                 "SDGR+eclipse(0.5)", "PDGR", "PDGR+maxdeg(0.25)",
                 "PDGR+maxdeg(0.5)", "PDGR+maxdeg(1)", "PDGR+mindeg(0.5)",
                 "PDGR+cutset(0.5)", "PDGR+cutset(1)", "PDGR+eclipse(0.5)",
                 "PDGR+eclipse(1)", "PDG", "PDG+maxdeg(0.5)",
                 "PDG+mindeg(0.5)", "PDGR+massfail(0.1,1)",
                 "PDGR+massfail(0.3,1)", "PDGR+flashcrowd(0.25,1)",
                 "PDG+massfail(0.1,1)"},
                {8000}, {8, 21},
                {"alive", "isolated", "completion_step", "final_fraction",
                 "peak_informed"},
                "expansion(8)+spectral+isolated", 3),
      base_spec({"SDGR", "SDGR+maxdeg(1)", "SDGR+eclipse(0.5)", "PDGR",
                 "PDGR+maxdeg(1)", "PDGR+cutset(0.5)",
                 "PDGR+massfail(0.2,1)", "PDGR+flashcrowd(0.25,1)"},
                {300}, {8},
                {"alive", "isolated", "completion_step", "final_fraction"},
                "expansion(4)+spectral+isolated", 2)});

  // -- Spectral gap per model (the Table-1 supplement): zero gap for the
  // isolating models, baseline-comparable gap under regeneration.
  targets.push_back(ReproTarget{
      "spectral-gap", "Table 1 supplement (spectral gap per model)",
      "lazy-walk spectral gap and isolated census for every scenario and "
      "the static baselines",
      "~3 s full scale on 4 threads",
      base_spec({"SDG", "SDGR", "PDG", "PDGR", "static-dout", "erdos-renyi"},
                {10000}, {2, 8, 21}, {"alive"}, "spectral+isolated", 3),
      base_spec({"SDG", "SDGR", "PDG", "PDGR", "static-dout", "erdos-renyi"},
                {400}, {2, 8}, {"alive"}, "spectral+isolated", 2),
      {{"gap", "SDGR/PDGR spectral_gap > 0.05", {{"SDGR", "PDGR"}},
        gap_above_5_percent}}});

  return targets;
}

/// Best-effort `git rev-parse HEAD` for the manifest; "unknown" when git
/// or the repository is unavailable (the data is still reproducible from
/// the recorded seed + spec).
std::string git_sha() {
  FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buffer[128] = {0};
  std::string sha;
  if (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) sha = buffer;
  pclose(pipe);
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// One claim row judged over its target's full-scale result.
struct JudgedClaim {
  const ReproTarget* target;
  const ClaimRow* row;
  ClaimOutcome outcome;
};

/// Prints judged rows as one table (lo: lower bound of holds/reps; hi:
/// upper bound of (reps - violated)/reps).
void print_claims(std::ostream& os, std::span<const JudgedClaim> claims) {
  Table table({"target", "row", "claim", "reps", "holds", "violated", "lo",
               "hi", "p0", "verdict"});
  for (const JudgedClaim& claim : claims) {
    const ClaimOutcome& outcome = claim.outcome;
    table.add_row({claim.target->name, claim.row->id, claim.row->claim,
                   fmt_int(static_cast<std::int64_t>(outcome.replications)),
                   fmt_int(static_cast<std::int64_t>(outcome.holds)),
                   fmt_int(static_cast<std::int64_t>(outcome.violated)),
                   fmt_fixed(outcome.bounds.lo, 3),
                   fmt_fixed(outcome.bounds.hi, 3),
                   fmt_fixed(claim.row->p0, 2),
                   claim_verdict_name(outcome.verdict)});
  }
  table.print(os);
}

void write_manifest(std::ostream& os, const ReproTarget& target,
                    const SweepSpec& spec, const SweepResult& result,
                    bool quick, const std::string& sha,
                    double target_wall_seconds,
                    const std::string& trace_path,
                    std::span<const JudgedClaim> claims) {
  const PrecisionGuard precision(os);
  os << "{\"target\":";
  write_json_string(os, target.name);
  os << ",\"paper\":";
  write_json_string(os, target.paper_ref);
  os << ",\"description\":";
  write_json_string(os, target.description);
  os << ",\"scale\":\"" << (quick ? "quick" : "full") << '"'
     << ",\"git_sha\":";
  write_json_string(os, sha);
  os << ",\"seed\":" << spec.base_seed
     << ",\"cells\":" << result.cells().size()
     << ",\"replications\":" << spec.replications
     << ",\"threads\":" << result.threads_used()
     << ",\"wall_seconds\":" << result.wall_seconds()
     << ",\"target_wall_seconds\":" << target_wall_seconds
     << ",\"telemetry_trace\":";
  if (trace_path.empty()) {
    os << "null";
  } else {
    write_json_string(os, trace_path);
  }
  os << ",\"scenarios\":[";
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, spec.scenarios[i]);
  }
  os << "],\"n\":[";
  for (std::size_t i = 0; i < spec.n_values.size(); ++i) {
    os << (i > 0 ? "," : "") << spec.n_values[i];
  }
  os << "],\"d\":[";
  for (std::size_t i = 0; i < spec.d_values.size(); ++i) {
    os << (i > 0 ? "," : "") << spec.d_values[i];
  }
  os << "],\"observers\":";
  write_json_string(os, spec.observers);
  os << ",\"metrics\":[";
  for (std::size_t i = 0; i < result.metrics().size(); ++i) {
    if (i > 0) os << ',';
    write_json_string(os, result.metrics()[i]);
  }
  os << "],\"claims\":[";
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const ClaimRow& row = *claims[i].row;
    const ClaimOutcome& outcome = claims[i].outcome;
    os << (i > 0 ? ",{" : "{") << "\"id\":";
    write_json_string(os, row.id);
    os << ",\"claim\":";
    write_json_string(os, row.claim);
    os << ",\"p0\":" << row.p0
       << ",\"replications\":" << outcome.replications
       << ",\"holds\":" << outcome.holds
       << ",\"violated\":" << outcome.violated
       << ",\"holds_lower\":" << outcome.bounds.lo
       << ",\"unviolated_upper\":" << outcome.bounds.hi
       << ",\"verdict\":\"" << claim_verdict_name(outcome.verdict) << "\"}";
  }
  os << "]}\n";
}

std::ofstream open_or_die(const std::filesystem::path& path,
                          const char* what) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s file '%s'\n", what,
                 path.string().c_str());
    std::exit(1);
  }
  return file;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli(
      "churnet_repro: regenerate the paper's table/figure datasets — each "
      "target is a declarative sweep + observer set emitting tidy CSV/JSON "
      "plus a manifest (seed, git sha, cell count) under --out");
  cli.add_string("only", "",
                 "comma-separated target names (default: every target; see "
                 "--list)");
  cli.add_string("out", "results", "output directory (created if missing)");
  cli.add_int("seed", 12345, "base seed (recorded in every manifest)");
  cli.add_int("threads", 1,
              "worker threads (0 = all cores); never changes the data");
  cli.add_string("checkpoint", "",
                 "journal each target's completed jobs under "
                 "<dir>/<target>/ so a killed run can --resume with "
                 "byte-identical datasets");
  cli.add_flag("resume",
               "resume targets from --checkpoint's journals: completed "
               "jobs are restored, only missing ones run");
  cli.add_flag("quick",
               "pinned small-scale variants (seconds, bit-identical at any "
               "--threads; the CI smoke surface)");
  cli.add_string("telemetry", "",
                 "stream an NDJSON telemetry trace here (one trace for the "
                 "whole run, one span per target; never changes the data)");
  cli.add_flag("progress",
               "print heartbeat progress lines ([jobs/total] eta) to "
               "stderr while targets run");
  cli.add_flag("list", "list every target with its paper reference and exit");
  cli.add_flag("list-specs",
               "print every spec catalog (scenarios, churn, protocols, "
               "observers, metrics) and exit");
  cli.add_flag("quiet", "suppress the per-target summary tables");
  if (!cli.parse(argc, argv)) return 0;
  const auto threads =
      static_cast<unsigned>(cli.get_int_in("threads", 0, kMaxPoolThreads));

  const std::vector<ReproTarget> targets = make_targets();

  if (cli.get_flag("list-specs")) {
    print_spec_catalogs(std::cout);
    return 0;
  }
  if (cli.get_flag("list")) {
    std::printf("paper reproduction targets (CSV/JSON + manifest per "
                "target):\n");
    for (const ReproTarget& target : targets) {
      std::printf("  %-22s %s\n", target.name.c_str(),
                  target.paper_ref.c_str());
      std::printf("  %-22s %s (%s)\n", "", target.description.c_str(),
                  target.runtime.c_str());
    }
    std::printf("run all, or --only <name>[,<name>...]; --quick for the "
                "pinned smoke variants\n");
    return 0;
  }

  // Resolve the target selection; unknown names are an error listing the
  // known targets (proper exit code, CLI semantics).
  std::vector<const ReproTarget*> selected;
  const std::string only = cli.get_string("only");
  if (only.empty()) {
    for (const ReproTarget& target : targets) selected.push_back(&target);
  } else {
    for (const std::string& name : split_spec_list(only)) {
      const ReproTarget* found = nullptr;
      for (const ReproTarget& target : targets) {
        if (target.name == name) {
          found = &target;
          break;
        }
      }
      if (found == nullptr) {
        std::fprintf(stderr, "unknown target '%s'; known targets:\n",
                     name.c_str());
        for (const ReproTarget& target : targets) {
          std::fprintf(stderr, "  %s\n", target.name.c_str());
        }
        return 1;
      }
      selected.push_back(found);
    }
  }

  const bool quick = cli.get_flag("quick");
  const bool quiet = cli.get_flag("quiet");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::filesystem::path checkpoint_dir(cli.get_string("checkpoint"));
  const bool resume = cli.get_flag("resume");
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume needs --checkpoint <dir>\n");
    return 1;
  }
  const std::filesystem::path out_dir(cli.get_string("out"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create output directory '%s': %s\n",
                 out_dir.string().c_str(), ec.message().c_str());
    return 1;
  }
  const std::string sha = git_sha();

  // Telemetry: one trace for the whole run, one span per target. The sink
  // reads clocks only — every CSV/JSON/manifest byte below is identical
  // with or without it, at any --threads.
  const std::string telemetry_path = cli.get_string("telemetry");
  const bool progress = cli.get_flag("progress");
  std::ofstream trace_file;
  if (!telemetry_path.empty()) {
    trace_file.open(telemetry_path);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open telemetry file '%s'\n",
                   telemetry_path.c_str());
      return 1;
    }
  }
  std::optional<telemetry::ScopedTraceSink> scoped_sink;
  if (trace_file.is_open() || progress) {
    telemetry::TraceSink::Options options;
    options.out = trace_file.is_open() ? &trace_file : nullptr;
    options.progress = progress;
    options.tool = "churnet_repro";
    scoped_sink.emplace(options);
  }

  std::vector<JudgedClaim> judged;  // every row judged so far, in order
  for (const ReproTarget* target : selected) {
    SweepSpec spec = quick ? target->quick : target->full;
    spec.base_seed = seed;
    if (!quiet) {
      std::printf("==> %s (%s): %zu cells x %llu replications\n",
                  target->name.c_str(), target->paper_ref.c_str(),
                  spec.cell_count(),
                  static_cast<unsigned long long>(spec.replications));
    }
    const auto target_start = std::chrono::steady_clock::now();
    if (scoped_sink.has_value()) {
      scoped_sink->sink().span_begin(target->name);
    }
    // Each target journals into its own checkpoint subdirectory so a
    // multi-target run can be killed and resumed per target; the output
    // is byte-identical with or without a checkpoint, at any --threads.
    SweepServiceOptions service;
    service.threads = threads;
    if (!checkpoint_dir.empty()) {
      service.checkpoint_dir = (checkpoint_dir / target->name).string();
    }
    service.resume = resume;
    service.tool = "churnet_repro";
    SweepServiceReport report;
    std::optional<SweepResult> result;
    try {
      result.emplace(SweepService(spec, service)
                         .run(ScenarioRegistry::extended(), &report));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s: %s\n", target->name.c_str(), error.what());
      return 1;
    }
    if (!quiet && report.jobs_resumed > 0) {
      std::printf("    checkpoint: %llu job(s) resumed, %llu run this "
                  "session\n",
                  static_cast<unsigned long long>(report.jobs_resumed),
                  static_cast<unsigned long long>(report.jobs_run));
    }

    const std::filesystem::path csv_path = out_dir / (target->name + ".csv");
    const std::filesystem::path json_path =
        out_dir / (target->name + ".json");
    const std::filesystem::path manifest_path =
        out_dir / (target->name + ".manifest.json");
    {
      std::ofstream csv = open_or_die(csv_path, "CSV");
      result->write_csv(csv);
    }
    {
      std::ofstream json = open_or_die(json_path, "JSON");
      result->write_json(json);
    }
    if (scoped_sink.has_value()) {
      scoped_sink->sink().span_end(target->name);
    }
    const double target_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      target_start)
            .count();
    // Claim rows are judged at full scale only: the quick sizes are
    // determinism pins, not statistics.
    const std::size_t first_claim = judged.size();
    if (!quick) {
      for (const ClaimRow& row : target->claims) {
        judged.push_back({target, &row, evaluate_claim(row, *result)});
        if (judged.back().outcome.verdict == ClaimVerdict::kFail) {
          std::cerr << "claim FAILED:\n";
          print_claims(std::cerr, {&judged.back(), 1});
        }
      }
    }
    const std::span<const JudgedClaim> claims(judged.data() + first_claim,
                                              judged.size() - first_claim);
    {
      std::ofstream manifest = open_or_die(manifest_path, "manifest");
      write_manifest(manifest, *target, spec, *result, quick, sha,
                     target_wall, telemetry_path, claims);
    }
    if (!quiet) {
      result->to_table().print(std::cout);
      if (!claims.empty()) print_claims(std::cout, claims);
      std::printf("    wrote %s + .json + .manifest.json (%.2fs on %u "
                  "thread(s))\n\n",
                  csv_path.string().c_str(), result->wall_seconds(),
                  report.workers_used);
    }
  }

  // The closing one-screen summary of every judged row; exit 1 on a FAIL
  // only now, so every dataset above is written either way.
  if (judged.empty()) return 0;
  std::printf("paper claims: PASS if lo >= p0, FAIL if hi < p0 (one-sided "
              "Clopper-Pearson, alpha = %.2f)\n",
              kClaimAlpha);
  print_claims(std::cout, judged);
  const bool failed =
      std::any_of(judged.begin(), judged.end(), [](const JudgedClaim& c) {
        return c.outcome.verdict == ClaimVerdict::kFail;
      });
  return failed ? 1 : 0;
}
