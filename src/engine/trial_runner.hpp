// The engine's one job pool (DESIGN.md, decision 8) and the replication
// runner built on it.
//
// run_jobs executes independent jobs on the intra-trial fork-join
// (common/intra.hpp's for_each_chunk, the only place in src/ that starts a
// thread) and owns the job-level rules: first-error capture, serialized
// completion and trace-sink progress. TrialRunner::run and the sweep
// service's in-process mode (engine/sweep_service.hpp) both run on it.
//
// A TrialRunner fans independent replications of a trial body across that
// pool. Three invariants make it safe to use for paper-grade statistics:
//
//   * Seeding: replication r runs with derive_seed(base_seed, stream, r) —
//     the base seed is never reused across replications, and distinct
//     streams (one per experiment/configuration) are decorrelated by
//     construction, so parallel trials never share randomness.
//   * Determinism: results are collected per replication index and folded
//     in index order after the pool joins, so every statistic is
//     bit-identical regardless of thread count.
//   * Missing observations: a body may return NaN for a metric (e.g.
//     "completion time" of a run that did not complete); NaN samples are
//     kept in the per-replication output but excluded from the aggregate
//     stats, whose count() then reports how many replications observed the
//     metric.
//
// The trial body must be thread-safe with respect to shared state it
// captures (the intended pattern: build everything from ctx.seed inside
// the body; see thread_local ProtocolScratch reuse in the bench binaries).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace churnet {

/// A job's sample row, and the completion hook that receives it.
using JobBody = std::function<std::vector<double>(std::uint64_t job)>;
using JobComplete =
    std::function<void(std::uint64_t job, std::vector<double>&& row)>;

/// The width run_jobs uses for `count` jobs: min(threads, count), where
/// threads 0 means one per hardware thread; always >= 1.
unsigned pool_width(unsigned threads, std::uint64_t count);

/// Runs body(job) for every job in [0, count) on pool_width(threads, count)
/// workers (width 1 runs inline on the caller) and hands each row to
/// complete(job, row) under one mutex, so completion hooks never race.
/// After the first exception (from a body or a completion hook) no new job
/// starts; the pool joins and rethrows it. Every job that starts is paired
/// with job_started/job_finished on the installed trace sink, if any.
/// Returns the width used.
unsigned run_jobs(std::uint64_t count, unsigned threads, const JobBody& body,
                  const JobComplete& complete);

struct TrialRunnerOptions {
  std::uint64_t replications = 8;
  /// Worker threads; 0 = one per hardware thread. Thread count never
  /// changes results, only wall-clock.
  unsigned threads = 1;
  std::uint64_t base_seed = 12345;
  /// derive_seed stream index; give each experiment/configuration its own
  /// stream so sweeps never share replication seeds.
  std::uint64_t stream = 0;
};

/// What a trial body receives for one replication.
struct TrialContext {
  std::uint64_t replication = 0;
  /// derive_seed(base_seed, stream, replication): the only seed the body
  /// should use.
  std::uint64_t seed = 0;
};

/// Aggregated outcome of a TrialRunner run: per-metric statistics plus the
/// full per-replication sample matrix.
class TrialResult {
 public:
  TrialResult(std::vector<std::string> metrics,
              std::vector<std::vector<double>> samples, double wall_seconds,
              unsigned threads_used);

  const std::vector<std::string>& metrics() const { return metrics_; }
  /// Aggregate over non-NaN samples of `metric` (replication order).
  const OnlineStats& stats(std::string_view metric) const;
  /// samples()[r][m]: metric m of replication r (may be NaN = missing).
  const std::vector<std::vector<double>>& samples() const { return samples_; }
  std::uint64_t replications() const { return samples_.size(); }
  double wall_seconds() const { return wall_seconds_; }
  unsigned threads_used() const { return threads_used_; }

  /// metric | count | mean | stderr | min | max summary table.
  Table to_table() const;

 private:
  std::vector<std::string> metrics_;
  std::vector<std::vector<double>> samples_;
  std::vector<OnlineStats> stats_;
  double wall_seconds_ = 0.0;
  unsigned threads_used_ = 1;
};

class TrialRunner {
 public:
  using Body = std::function<std::vector<double>(const TrialContext&)>;
  using ScalarBody = std::function<double(const TrialContext&)>;

  explicit TrialRunner(TrialRunnerOptions options = {});

  const TrialRunnerOptions& options() const { return options_; }

  /// Runs `body` once per replication on run_jobs' pool. The body must
  /// return exactly one value per declared metric.
  TrialResult run(std::vector<std::string> metrics, const Body& body) const;

  /// Single-metric convenience wrapper.
  TrialResult run(const std::string& metric, const ScalarBody& body) const;

 private:
  TrialRunnerOptions options_;
};

}  // namespace churnet
