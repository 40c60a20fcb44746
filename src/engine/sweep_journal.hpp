// Checkpoint journal for sweep campaigns: crash-safe, bit-exact resume.
//
// A SweepJournal is an append-only NDJSON file (<dir>/journal.ndjson)
// recording every completed (cell, replication) job of one sweep plan.
// Because job seeds are re-derivable (derive_seed(base_seed, cell, rep),
// DESIGN.md decision 8), the journal only needs to record *which* jobs
// finished and their sample values — a resumed run rebuilds the identical
// plan, replays the journaled rows into the sample matrix and runs only
// the missing jobs, producing final CSV/JSON byte-identical to an
// uninterrupted run.
//
// File format (one JSON object per line):
//
//   journal_begin {"ev","schema","fingerprint","jobs","metrics"}
//   done          {"ev","job","seed","v":["0x3ff0...", ...]}
//
// Values are IEEE-754 bit patterns as hex strings, not JSON numbers: the
// repo's JSON reader parses numbers as doubles with 53-bit integer
// precision and decimal round-trips invite formatting drift, while bit
// patterns restore the exact double a crashed run computed — the resume
// contract is *byte*-identical output, so nothing less is acceptable.
// Seeds are hex strings for the same reason (u64 > 2^53); they are
// provenance only and re-derived, never parsed back into the run.
//
// Durability: records are appended with O_APPEND write(2) calls, so a
// killed process loses no record already appended; sync() (fsync), which
// the sweep service calls every few rows and at the end, guards against
// OS crashes only. A crash can truncate only the final line (single
// sequential writer), so load() tolerates exactly that: an unparseable
// or incomplete *last* line is dropped; damage
// anywhere else, a fingerprint mismatch, or a metric-count mismatch is a
// hard std::runtime_error — resuming a different plan against a journal
// would silently mix incompatible samples.
//
// A resumed run appends to the same file, so journals survive repeated
// kill/resume cycles; duplicate records for a job keep the last one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/sweep_runner.hpp"

namespace churnet {

class SweepJournal {
 public:
  /// Opens (creating the directory and file as needed) the journal for
  /// `plan` under `dir`. With `resume` false the journal must be fresh —
  /// an existing non-empty journal is a runtime_error (pass --resume or
  /// choose a new directory; silently overwriting a checkpoint would
  /// destroy it). With `resume` true an existing journal is loaded and
  /// validated against the plan; a missing one starts fresh, so --resume
  /// is safe to pass unconditionally. Throws std::runtime_error on IO
  /// errors, corruption or plan mismatch.
  SweepJournal(const std::string& dir, const SweepPlan& plan, bool resume);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Rows restored from a previous run, sorted by job index (duplicates
  /// collapsed, last record wins). Each value vector has exactly one
  /// entry per plan metric column.
  const std::vector<std::pair<std::uint64_t, std::vector<double>>>&
  completed() const {
    return completed_;
  }

  /// Appends one done record (buffered by the OS; not yet durable).
  void append(std::uint64_t job, std::uint64_t seed,
              const std::vector<double>& values);

  /// Durability barrier: fsync everything appended so far.
  void sync();

  /// Records appended by *this* run (not counting restored ones).
  std::uint64_t appended() const { return appended_; }

  static std::string journal_path(const std::string& dir);

 private:
  void load(const std::string& text, const SweepPlan& plan);
  void write_line(const std::string& line);

  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> completed_;
};

}  // namespace churnet
