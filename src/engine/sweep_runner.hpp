// Grid sweeps over the scenario space: the declarative spec, the resolved
// job plan and the folded result. The sweep service
// (engine/sweep_service.hpp) executes plans; churnet_sweep, churnet_repro,
// the benches and the tests all run sweeps through it.
//
// A SweepSpec names a grid — scenario list (any resolve()-able name,
// including "PDGR+pareto(2.5)+push(3)" composites) × protocol list
// (dissemination protocols; optional axis) × n list × d list — plus the
// metrics to measure and the replication budget. A SweepPlan expands the
// grid into cells and (cell, replication) jobs, and SweepPlan::fold
// collects their rows into a SweepResult: per-cell statistics, the
// full sample matrix, a tidy long-format CSV (one row per observation:
// scenario, churn, protocol, n, d, replication, seed, metric, value) and
// a JSON summary. Dissemination metrics (completion, coverage, message
// complexity) run the cell's protocol through the dissemination driver;
// flood cells are plain flooding (flood_dynamic) bit for bit.
//
// A sweep can additionally attach a metric-observer set (observe/,
// DESIGN.md §6): SweepSpec::observers names it ("expansion(8)+spectral"),
// and each observer's metric columns are appended after the sweep's own
// metrics in every cell, sink row and aggregate. Observer randomness is
// routed through streams derived from the replication seed but disjoint
// from the network's and the protocol's, so attaching snapshot or
// dissemination observers never changes any previously measured value.
// The one documented exception: a round observer (demography(w))
// requests an observation window, which advances the network by w churn
// steps before anything is measured — the window is part of the cell's
// definition, so every metric then describes the post-window instant.
//
// Seeding and determinism follow the engine's invariants (DESIGN.md,
// decision 8): the replication seed of cell c is derive_seed(base_seed, c,
// replication) — each cell is its own stream, so no two cells in any sweep
// share randomness — and samples are folded in job order after the pool
// joins, so every statistic and both sinks are bit-identical at any thread
// count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "engine/scenario.hpp"
#include "observe/observer_spec.hpp"

namespace churnet {

class JsonValue;

/// One metric the sweep can measure per replication. All metrics are
/// evaluated on a freshly built, warmed network; dissemination metrics run
/// one pass of the cell's protocol (default: flood) under the model's own
/// semantics — flood cells are plain flooding (flood_dynamic) bit for bit.
enum class SweepMetric : std::uint8_t {
  kAlive,                 // |N| after warm-up
  kMeanDegree,            // mean degree (read from the live graph)
  kMaxDegree,             // max degree (live graph)
  kIsolated,              // isolated-node count (live graph)
  kLargestComponentFrac,  // largest component / alive (snapshot)
  kCompletionStep,        // completion step (NaN if not completed)
  kFinalFraction,         // informed/alive when the run stopped
  kPeakInformed,          // max |I_t| over the run
  kFloodSteps,            // steps the run executed
  kMessages,              // total messages (rumor transmissions + probes)
  kUsefulDeliveries,      // deliveries informing a new node
  kDuplicateDeliveries,   // deliveries wasted on informed nodes
  kLostMessages,          // transmissions dropped by the lossy link
};

/// Declarative sweep grid. Build programmatically or load from JSON:
///
///   {
///     "scenarios": ["PDGR", "PDGR+pareto(2.5)"],
///     "n": [500, 1000],
///     "d": [4, 8],
///     "protocols": ["flood", "push(3)+lossy(0.9)"],  // optional axis
///     "metrics": ["alive", "completion_step"],   // optional
///     "observers": "expansion(8)+isolated",      // optional
///     "incremental_observers": false,             // optional
///     "replications": 8,                          // optional
///     "seed": 12345,                              // optional
///     "max_in_degree": 0,                         // optional
///     "intra_threads": 1                          // optional
///   }
struct SweepSpec {
  std::vector<std::string> scenarios;
  std::vector<std::uint32_t> n_values;
  std::vector<std::uint32_t> d_values;
  /// Dissemination-protocol axis (protocols/protocol_spec.hpp grammar).
  /// Empty = one implicit cell per scenario running the scenario's own
  /// protocol (flood unless the name carried a "+push(3)"-style suffix);
  /// non-empty entries override it.
  std::vector<std::string> protocols;
  std::vector<std::string> metrics = default_metrics();
  /// Metric-observer set attached to every cell
  /// (observe/observer_spec.hpp grammar); its metric columns are appended
  /// after `metrics`. Empty = no observers.
  std::string observers;
  /// Accepted and echoed in the spec provenance, with no effect (DESIGN.md
  /// §1): campaignbench's resilience.json sets it, and unknown keys are
  /// rejected. The sweep_same_incremental_observers pin ctest checks that
  /// it changes no CSV byte. It is hashed into the plan fingerprint at its
  /// default, so a checkpoint resumes with it toggled.
  bool incremental_observers = false;
  std::uint64_t replications = 8;
  std::uint64_t base_seed = 12345;
  std::uint32_t max_in_degree = 0;
  /// Accepted, range-checked and echoed in the spec provenance, with no
  /// effect: every trial runs on one thread (DESIGN.md, decision 14). It
  /// stays because campaignbench/campaign_bench.cpp reads it and unknown
  /// keys are rejected. Like incremental_observers, it is hashed into the
  /// plan fingerprint at its default.
  std::uint32_t intra_threads = 1;

  std::size_t cell_count() const {
    return scenarios.size() * std::max<std::size_t>(protocols.size(), 1) *
           n_values.size() * d_values.size();
  }

  /// The metric catalog ("alive", "mean_degree", ..., "flood_steps").
  static std::vector<std::string> known_metrics();
  /// alive, mean_degree, isolated, completion_step, final_fraction.
  static std::vector<std::string> default_metrics();

  /// Loads a spec from parsed JSON / raw text. Unknown keys, wrong types,
  /// empty lists and unknown metrics are errors (reason via `error`).
  static std::optional<SweepSpec> from_json(const JsonValue& json,
                                            std::string* error = nullptr);
  static std::optional<SweepSpec> from_json_text(std::string_view text,
                                                 std::string* error = nullptr);

  /// Structural validation (non-empty grid, known metrics, replications
  /// >= 1, n*d within the 32-bit out-slot pool, at most 2^24 jobs);
  /// scenario names are resolved later by SweepPlan. Returns an error
  /// reason, or nullopt when valid.
  std::optional<std::string> validate() const;

  /// The range rule of an integer key ("n", "d", "replications", "seed",
  /// "max_in_degree", "intra_threads"): nullopt when `value` is an exact
  /// integer in the key's range, else the reason naming the range. The
  /// JSON reader and churnet_sweep's inline flags both apply it.
  static std::optional<std::string> check_integer(std::string_view key,
                                                  double value);
};

/// One grid cell's identity in results and sinks.
struct SweepCellKey {
  std::string scenario;  // resolved name ("PDGR+pareto(2.50)")
  std::string churn;     // canonical churn spec; "none" for baselines
  std::string protocol;  // canonical protocol spec ("flood", "push(3)")
  std::uint32_t n = 0;
  std::uint32_t d = 0;
};

class SweepResult;

/// A fully resolved sweep: scenario x protocol x n x d cells, the combined
/// metric column list (spec metrics + observer columns), and the per-job
/// body. Jobs are numbered job = cell * replications + replication, and
/// run_job(job) is a pure function of (spec.base_seed, cell, replication)
/// — the plan is what every run of the sweep service shares (any thread
/// count, streamed, checkpointed or resumed), so rows computed on any
/// thread, in any completion order, fold into identical results.
class SweepPlan {
 public:
  /// Resolves every scenario/protocol/observer once (CLI semantics: an
  /// invalid spec aborts with its reason, a typo with the known catalogs).
  SweepPlan(SweepSpec spec, const ScenarioRegistry& registry);

  const SweepSpec& spec() const { return spec_; }
  const std::vector<SweepCellKey>& keys() const { return keys_; }
  /// All metric columns: spec metrics, then observer metrics.
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }
  std::uint64_t replications() const { return spec_.replications; }
  std::uint64_t job_count() const {
    return keys_.size() * spec_.replications;
  }
  std::uint64_t job_cell(std::uint64_t job) const {
    return job / spec_.replications;
  }
  std::uint64_t job_replication(std::uint64_t job) const {
    return job % spec_.replications;
  }
  /// derive_seed(base_seed, cell, replication) — the job's only seed.
  std::uint64_t job_seed(std::uint64_t job) const;

  /// Spec provenance as a raw JSON object fragment (the telemetry
  /// sweep_begin "spec" field and the result stream / journal headers).
  const std::string& spec_json() const { return spec_json_; }
  /// FNV-1a over the spec provenance (the no-effect keys at their
  /// defaults), metric columns and cell keys: two plans with equal
  /// fingerprints run the same jobs with the same seeds, so a checkpoint
  /// journal records it and refuses to resume anything else
  /// (engine/sweep_journal.hpp).
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Runs one job (build, warm, observe, disseminate, measure) and returns
  /// its sample row, one value per metric_names() entry. Emits a job event
  /// to the installed telemetry sink, if any. Thread-safe. Each calling
  /// thread keeps one graph across its jobs (the `recycled` argument of
  /// Scenario::make_warmed), so a job on a warm worker reuses the graph
  /// arrays earlier jobs grew instead of allocating its own.
  std::vector<double> run_job(std::uint64_t job) const;

  /// DynamicGraph::arena_bytes of the graph the calling thread keeps
  /// between run_job calls (0 before its first job).
  static std::size_t worker_arena_bytes();

  /// ProtocolScratch::buffer_bytes of the protocol scratch the calling
  /// thread keeps between run_job calls.
  static std::size_t worker_protocol_bytes();

  /// Folds flat job-order samples (samples[job], NaN-padded for metrics
  /// a replication did not observe) into a SweepResult. The fold reads
  /// rows by index, so it is independent of the completion order that
  /// produced them.
  SweepResult fold(const std::vector<std::vector<double>>& flat_samples,
                   double wall_seconds, unsigned threads_used) const;

 private:
  struct Cell {
    std::size_t scenario;  // index into scenarios_
    ProtocolSpec protocol;
    std::uint32_t n = 0;
    std::uint32_t d = 0;
  };

  SweepSpec spec_;
  std::vector<Scenario> scenarios_;
  std::vector<Cell> cells_;
  std::vector<SweepCellKey> keys_;
  std::vector<SweepMetric> metric_ids_;
  bool needs_degrees_ = false;
  bool needs_components_ = false;
  bool needs_flood_ = false;
  ObserverSpec observer_spec_;
  std::string observer_key_;
  bool has_observers_ = false;
  std::vector<std::string> metric_names_;
  std::string spec_json_;
  std::uint64_t fingerprint_ = 0;
};

/// Everything a sweep produced: per-cell aggregates + the sample matrix.
class SweepResult {
 public:
  /// `metric_names` is the full column list: the spec's metrics followed
  /// by the attached observers' metric columns (equal to spec.metrics when
  /// no observers are attached).
  SweepResult(SweepSpec spec, std::vector<std::string> metric_names,
              std::vector<SweepCellKey> cells,
              std::vector<std::vector<std::vector<double>>> samples,
              double wall_seconds, unsigned threads_used);

  const SweepSpec& spec() const { return spec_; }
  const std::vector<SweepCellKey>& cells() const { return cells_; }
  /// All metric columns: spec metrics, then observer metrics.
  const std::vector<std::string>& metrics() const { return metric_names_; }
  /// samples()[c][r][m]: metric m of replication r in cell c (NaN =
  /// missing observation).
  const std::vector<std::vector<std::vector<double>>>& samples() const {
    return samples_;
  }
  /// Aggregate over non-NaN samples (cell-major, metric-minor).
  const OnlineStats& stats(std::size_t cell, std::size_t metric) const;
  double wall_seconds() const { return wall_seconds_; }
  unsigned threads_used() const { return threads_used_; }

  /// One row per cell: scenario | churn | protocol | n | d | <means>.
  Table to_table() const;

  /// Tidy long format, one row per observation:
  /// scenario,churn,protocol,n,d,replication,seed,metric,value
  void write_csv(std::ostream& os) const;

  /// Machine-readable summary + samples as one JSON object.
  void write_json(std::ostream& os) const;

 private:
  SweepSpec spec_;
  std::vector<std::string> metric_names_;
  std::vector<SweepCellKey> cells_;
  std::vector<std::vector<std::vector<double>>> samples_;
  std::vector<std::vector<OnlineStats>> stats_;  // [cell][metric]
  double wall_seconds_ = 0.0;
  unsigned threads_used_ = 1;
};

}  // namespace churnet
