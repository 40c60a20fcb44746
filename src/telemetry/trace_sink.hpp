// Streaming NDJSON trace sink + heartbeat progress for long-running sweeps.
//
// A TraceSink turns the telemetry layer's thread-local accumulation
// (telemetry/telemetry.hpp) into a live event stream: one self-describing
// JSON object per line, flushed as it is produced, so a multi-hour sweep
// can be watched (tail -f), folded into a phase-breakdown table
// (tools/telemetry_report.py) or archived as a CI artifact while it runs.
//
// Event vocabulary (schema version 1; telemetry_report.py --check
// validates it):
//
//   trace_begin  {"ev","schema","tool","ts_ms"}              first line
//   span_begin   {"ev","name","t_s"}                        coarse phases
//   span_end     {"ev","name","t_s","wall_s"}               (targets, sweeps)
//   sweep_begin  {"ev","label","cells","reps","jobs","resumed","threads",
//                 "t_s", spec}
//   job          {"ev","cell","replication","seed","t_s","wall_s",
//                 "phases":{...s},"counters":{...}, + cell identity
//                 fields}
//   heartbeat    {"ev","t_s","jobs_done","jobs_resumed","jobs_total",
//                 "eta_s","threads_busy"}                   periodic
//   sweep_end    {"ev","label","jobs","wall_s","t_s",
//                 "phases":{...},"counters":{...}}          per-sweep sum
//   trace_end    {"ev","t_s"}                               last line
//
// Ordering: every line is self-describing and carries t_s (seconds since
// trace_begin, steady clock); under multi-threaded sweeps job lines may
// interleave in completion order, which varies run to run. The trace is
// diagnostics — the deterministic surfaces (CSV/JSON results) are written
// elsewhere and are byte-identical whether or not a sink is installed.
//
// Threading: emission serializes on one mutex; events are built off the
// hot paths (once per job / heartbeat interval, never per churn step).
// Heartbeats piggyback on job completion (checked against a monotonic
// deadline), so an idle pool emits none — a sweep whose individual jobs
// are minutes long heartbeats at job granularity, which is also the
// granularity at which any progress exists to report.
//
// Install: exactly one process-global sink, set via TraceSink::install
// (ScopedTraceSink does install + telemetry::set_enabled for a scope).
// Engine code (the job pool, SweepService, sweep jobs) consults
// TraceSink::global() and stays silent when none is installed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace churnet::telemetry {

class TraceSink {
 public:
  struct Options {
    /// NDJSON destination; nullptr = no trace lines (progress-only sink).
    /// Not owned; must outlive the sink.
    std::ostream* out = nullptr;
    /// Also print heartbeat lines to stderr ("[12/96] ..."), for humans.
    bool progress = false;
    /// Minimum seconds between heartbeat events.
    double heartbeat_seconds = 1.0;
    /// Recorded in trace_begin ("churnet_sweep", "churnet_repro", ...).
    std::string tool;
  };

  explicit TraceSink(Options options);
  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// The process-global sink, nullptr when none is installed.
  static TraceSink* global();
  /// Installs (or, with nullptr, clears) the process-global sink. Not
  /// thread-safe against concurrent engine runs — install before running.
  static void install(TraceSink* sink);

  // ---- coarse spans (targets, whole sweeps) -----------------------------

  void span_begin(std::string_view name);
  void span_end(std::string_view name);

  // ---- sweep lifecycle (called by SweepService) -------------------------

  /// `spec_json` is a raw JSON object fragment ({"scenarios":...}) spliced
  /// into the sweep_begin event as its "spec" field; pass "{}" when
  /// unknown. `resumed` is how many of jobs_total were restored from a
  /// checkpoint journal: progress starts at [resumed/total] and the
  /// heartbeat ETA is computed from this run's own completion rate over
  /// the *remaining* jobs, not the whole-campaign average.
  void sweep_begin(std::string_view label, std::uint64_t cells,
                   std::uint64_t replications, std::uint64_t jobs_total,
                   unsigned threads, std::string_view spec_json,
                   std::uint64_t resumed = 0);
  /// One completed (cell, replication) job with its phase/counter slice.
  /// `identity_json` is a raw fragment of extra key/value pairs to splice
  /// into the event ("\"scenario\":\"SDG\",\"n\":500"); may be empty.
  void job(std::uint64_t cell, std::uint64_t replication, std::uint64_t seed,
           double wall_seconds, const Totals& totals,
           std::string_view identity_json);
  void sweep_end(std::string_view label, double wall_seconds);

  // ---- pool progress (run_jobs) ----------------------------------------

  void job_started();
  /// Marks one job done; emits a heartbeat when the interval elapsed.
  void job_finished();

 private:
  struct OpenSpan {
    std::string name;
    double began_s;
  };

  double elapsed_seconds() const;
  void write_line(const std::string& line);
  void emit_heartbeat();
  /// Appends {"phases":{...},"counters":{...}} fields for `totals`.
  static void append_totals(std::string& out, const Totals& totals);

  Options options_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mutex_;       // guards the progress/aggregate state
  std::mutex write_mutex_;         // serializes NDJSON line emission
  std::vector<OpenSpan> open_spans_;
  Totals aggregate_;  // this sweep's job() totals; sweep_begin resets it
  std::uint64_t jobs_done_ = 0;
  std::uint64_t jobs_total_ = 0;
  std::uint64_t jobs_resumed_ = 0;
  std::uint64_t threads_busy_ = 0;
  double sweep_started_s_ = 0.0;
  double next_heartbeat_s_ = 0.0;
};

/// Scoped install for CLI tools: constructs a sink, installs it globally
/// and enables span recording; the destructor restores both. Use exactly
/// one per process at a time.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink::Options options)
      : sink_(std::move(options)) {
    TraceSink::install(&sink_);
    set_enabled(true);
  }
  ~ScopedTraceSink() {
    set_enabled(false);
    TraceSink::install(nullptr);
  }

  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;

  TraceSink& sink() { return sink_; }

 private:
  TraceSink sink_;
};

}  // namespace churnet::telemetry
