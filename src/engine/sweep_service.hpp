// Sweep campaigns as a service: the one way to run a SweepSpec, with
// streaming results and checkpoint/resume — byte-identical at any thread
// count and kill/resume history (DESIGN.md decision 17).
//
// SweepService runs a SweepPlan's pending jobs on the engine's job pool
// (run_jobs, engine/job_pool.hpp), at most one thread per pending
// job: first-error capture, serialized completion, fold after join.
// Every completed row lands in the same three sinks: the in-memory
// sample matrix (folded by job index into the SweepResult), the optional
// checkpoint journal (engine/sweep_journal.hpp) and the optional
// streaming result sink (engine/result_stream.hpp). Rows are pure
// functions of (base_seed, cell, replication) and the fold reads them by
// index, so thread count, completion order and kill/resume cycles all
// produce byte-identical CSV/JSON — the contract the kill-resume and
// 1-vs-4-thread tests and the release-smoke CI cmp's pin.
//
// Telemetry: run() drives the installed TraceSink's sweep lifecycle
// (resumed-aware: ETA from remaining jobs); run_jobs reports job
// progress, which feeds the heartbeats.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "engine/sweep_runner.hpp"

namespace churnet {

struct SweepServiceOptions {
  /// Job pool threads (0 = all cores); the pool is never wider than the
  /// pending job count.
  unsigned threads = 1;
  /// Checkpoint directory (journal.ndjson inside); empty = no journal.
  std::string checkpoint_dir{};
  /// Load an existing journal in checkpoint_dir and run only the missing
  /// jobs. Safe when no journal exists yet (starts fresh).
  bool resume = false;
  /// Streaming NDJSON results sink; nullptr = none. Not owned.
  std::ostream* results = nullptr;
  /// Test hook for the kill-resume torture tests: after this many jobs
  /// have been journaled by this run, sync the journal and raise(SIGKILL)
  /// — a deterministic mid-campaign crash. 0 = off.
  std::uint64_t kill_after = 0;
  /// Recorded in stream headers.
  std::string tool = "churnet_sweep";
};

/// What the run did (for heartbeat-style summaries in the CLIs).
struct SweepServiceReport {
  std::uint64_t jobs_total = 0;
  std::uint64_t jobs_resumed = 0;  // restored from the journal
  std::uint64_t jobs_run = 0;      // executed by this run
  /// The pool width actually used: min(threads, pending jobs), >= 1.
  unsigned workers_used = 1;
};

class SweepService {
 public:
  /// Aborts (CLI semantics) when the spec fails validate(); throws
  /// std::runtime_error at run() time for environment failures (journal
  /// corruption, plan/checkpoint mismatch).
  SweepService(SweepSpec spec, SweepServiceOptions options);

  const SweepSpec& spec() const { return spec_; }
  const SweepServiceOptions& options() const { return options_; }

  /// Runs the campaign (resuming from the checkpoint when asked) and
  /// folds the full sample matrix into a SweepResult, byte-identical at
  /// any thread count and kill/resume history.
  SweepResult run(const ScenarioRegistry& registry =
                      ScenarioRegistry::extended(),
                  SweepServiceReport* report = nullptr) const;

 private:
  SweepSpec spec_;
  SweepServiceOptions options_;
};

}  // namespace churnet
