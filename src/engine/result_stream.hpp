// Streaming *results* sink for long sweep campaigns (schema version 1).
//
// Where the telemetry trace (telemetry/trace_sink.hpp) streams
// diagnostics — phase timings, heartbeats, wall-clock — a ResultStream
// streams the science: one self-describing NDJSON line per completed
// (cell, replication) job, emitted the moment the job finishes, so a
// multi-hour campaign can be tailed, archived or fed into analysis while
// it runs instead of only after the final fold. Every row carries its
// full identity (job index, cell key, replication, derived seed) plus the
// sample values, and the header pins the plan fingerprint, so a stream is
// interpretable on its own and attributable to exactly one sweep plan.
//
// Event vocabulary:
//
//   sweep_header {"ev","schema","tool","fingerprint","cells",
//                 "replications","jobs","resumed","workers",
//                 "metrics":[...], "spec":{...}}          first line
//   row          {"ev","job","cell","replication","seed","resumed",
//                 "scenario","churn","protocol","n","d","values":[...]}
//   sweep_footer {"ev","jobs_done"}                      last line
//
// Ordering and determinism: rows appear in completion order, which varies
// with thread count and scheduling — by design; streaming is the
// point. The deterministic surfaces (CSV/JSON/table) are produced by
// SweepPlan::fold, which reads rows by job index and is therefore
// independent of the order this stream observed them in. Values are
// written with round-trip precision (max_digits10), NaN/inf as null.
//
// Threading: row() serializes on one mutex and flushes per line (rows are
// per job, never per churn step — off the hot path by construction).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace churnet {

class ResultStream {
 public:
  /// `out` and `plan` must outlive the stream.
  ResultStream(std::ostream& out, const SweepPlan& plan);

  /// Writes the sweep_header line. `resumed_jobs` is how many rows were
  /// restored from a checkpoint journal (they are re-emitted as rows with
  /// "resumed":true so the stream always covers the whole campaign);
  /// `workers` is the execution width (the job pool's thread count).
  void begin(std::uint64_t resumed_jobs, unsigned workers,
             std::string_view tool);

  /// One completed job row; thread-safe, any completion order.
  void row(std::uint64_t job, const std::vector<double>& values,
           bool resumed);

  /// Writes the sweep_footer line.
  void end(std::uint64_t jobs_done);

 private:
  std::ostream& out_;
  const SweepPlan& plan_;
  std::mutex mutex_;
};

}  // namespace churnet
