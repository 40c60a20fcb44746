// Sweep campaigns as a service: the one way to run a SweepSpec, with
// streaming results, checkpoint/resume and multi-process work-stealing —
// every mode byte-identical to every other (DESIGN.md decision 17).
//
// SweepService executes a SweepPlan's jobs under one of two modes:
//
//   * In-process (workers <= 1): the engine's job pool (run_jobs,
//     engine/trial_runner.hpp) over the pending job set, at most one
//     thread per pending job — first-error capture, serialized
//     completion, fold after join.
//   * Multi-process (workers >= 2): the coordinator forks N worker
//     processes *after* plan construction (the plan is shared read-only
//     via copy-on-write). Each worker owns a command pipe (job batches
//     in) and a result pipe (sample rows out, raw IEEE-754 bits — no
//     text round-trip). The coordinator polls result pipes and hands a
//     new batch to whichever worker drains first, so the queue is
//     self-balancing; a worker that exits early is detected as EOF with
//     jobs outstanding and fails the run.
//
// Either way every completed row lands in the same three sinks: the
// in-memory sample matrix (folded by job index into the SweepResult),
// the optional checkpoint journal (engine/sweep_journal.hpp, fsync'd
// once per batch) and the optional streaming result sink
// (engine/result_stream.hpp). Rows are pure functions of (base_seed,
// cell, replication) and the fold reads them by index, so thread count,
// worker count, batch size, completion order and kill/resume cycles all
// produce byte-identical CSV/JSON — the contract the kill-resume and
// 1-vs-4-worker tests and the release-smoke CI cmp's pin.
//
// Telemetry: run() drives the installed TraceSink's sweep lifecycle
// (resumed-aware: ETA from remaining jobs). Job progress, which feeds the
// heartbeats, comes from run_jobs in process and from the coordinator's
// handout and result loop when forked. Forked workers never write the
// parent's trace; with worker_trace_prefix set, worker k streams its own
// trace to "<prefix><k>.ndjson" tagged "worker":k, and
// tools/telemetry_report.py folds the per-worker files back into one
// report.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "engine/sweep_runner.hpp"

namespace churnet {

struct SweepServiceOptions {
  /// In-process pool threads when workers <= 1 (0 = all cores); the pool
  /// is never wider than the pending job count.
  unsigned threads = 1;
  /// >= 2 forks that many worker processes (coordinator/worker mode);
  /// 0 or 1 = in-process.
  unsigned workers = 0;
  /// Checkpoint directory (journal.ndjson inside); empty = no journal.
  std::string checkpoint_dir{};
  /// Load an existing journal in checkpoint_dir and run only the missing
  /// jobs. Safe when no journal exists yet (starts fresh).
  bool resume = false;
  /// Streaming NDJSON results sink; nullptr = none. Not owned.
  std::ostream* results = nullptr;
  /// Jobs per work-stealing handout and per journal fsync. 0 = auto
  /// (pending / (8 * width), clamped to [1, 64]). A SIGKILL loses at
  /// most this many in-flight jobs.
  std::uint64_t batch = 0;
  /// Test hook for the kill-resume torture tests: after this many jobs
  /// have been journaled by this run, sync the journal and raise(SIGKILL)
  /// — a deterministic mid-campaign crash. 0 = off.
  std::uint64_t kill_after = 0;
  /// Worker k writes its own telemetry trace to "<prefix><k>.ndjson"
  /// (schema v1, tagged "worker":k). Empty = workers trace nothing.
  std::string worker_trace_prefix{};
  /// Recorded in stream headers and worker traces.
  std::string tool = "churnet_sweep";
};

/// What the run did (for heartbeat-style summaries in the CLIs).
struct SweepServiceReport {
  std::uint64_t jobs_total = 0;
  std::uint64_t jobs_resumed = 0;  // restored from the journal
  std::uint64_t jobs_run = 0;      // executed by this run
  /// In-process: the pool width actually used, min(threads, pending
  /// jobs) and >= 1. Forked: the worker process count.
  unsigned workers_used = 1;
};

class SweepService {
 public:
  /// Aborts (CLI semantics) when the spec fails validate(); throws
  /// std::runtime_error at run() time for environment failures (journal
  /// corruption, plan/checkpoint mismatch, a dead worker).
  SweepService(SweepSpec spec, SweepServiceOptions options);

  const SweepSpec& spec() const { return spec_; }
  const SweepServiceOptions& options() const { return options_; }

  /// Runs the campaign (resuming from the checkpoint when asked) and
  /// folds the full sample matrix into a SweepResult, byte-identical at
  /// any thread count, worker count and kill/resume history.
  SweepResult run(const ScenarioRegistry& registry =
                      ScenarioRegistry::extended(),
                  SweepServiceReport* report = nullptr) const;

 private:
  SweepSpec spec_;
  SweepServiceOptions options_;
};

}  // namespace churnet
