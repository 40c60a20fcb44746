// Runtime telemetry: hierarchical phase timers and monotonic counters for
// the simulation engine itself (DESIGN.md §7, decision 16).
//
// The observer pipeline measures the *graph*; this layer measures the
// *system* — where a multi-hour sweep spends its wall clock (genesis
// wiring, churn stepping, dissemination, snapshot builds, observation) and
// how much work it pushed through (churn events, messages, snapshot
// bytes). Accumulation is thread-local (one fixed-size
// `Totals` per thread, no locks, no allocation); drivers fold per-trial
// slices out of the thread-local stream with a `TrialRecorder` and hand
// them to the TraceSink (telemetry/trace_sink.hpp) for NDJSON streaming.
//
// The hard contract — telemetry is off-path by construction:
//
//   * No RNG: nothing here draws randomness or touches any network, graph
//     or observer state. Spans read the steady clock; counters increment a
//     thread-local integer. Every deterministic output (sweep CSV/JSON,
//     repro goldens, BENCH deterministic fields) is byte-identical with
//     telemetry on or off, at any thread count — CI cmp's it.
//   * Zero steady-state allocation: `Totals` is a fixed struct, the
//     thread-local accumulator is eagerly constructed, and span
//     enter/exit, counting and recorder snapshots never allocate
//     (tests/test_telemetry.cpp pins this with a counting allocator).
//   * Cheap when dormant: spans check one relaxed atomic and skip the
//     clock when disabled; counters are a single thread-local add. Spans
//     wrap *loops and phases*, never individual churn steps, so the
//     enabled-mode overhead on the steady churn loop stays < 3%
//     (bench_perf_suite's telemetry_overhead section pins it).
//
// Phase hierarchy (what nests inside what, for report folding):
//
//   genesis        — model construction + warm-up (make_warmed)
//   churn          — observation-window churn loops (outside dissemination)
//   dissemination  — one flood/protocol run, churn-during-flood included
//   observe        — ObserverSet::observe (measurement point)
//     snapshot     — dense Snapshot capture (child of observe)
//
// Same-phase re-entry is depth-guarded: only the outermost span of a phase
// records time, so a run_growth_phase span inside a make_warmed span never
// double-counts genesis nanoseconds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace churnet::telemetry {

enum class Phase : std::uint8_t {
  kGenesis = 0,    // model construction + warm-up
  kChurn,          // observation-window churn stepping
  kDissemination,  // one flood / protocol run
  kObserve,        // ObserverSet::observe measurement point
  kSnapshot,       // dense snapshot capture
};
inline constexpr std::size_t kPhaseCount = 5;

enum class Counter : std::uint8_t {
  kChurnEvents = 0,  // node births + deaths (DynamicGraph mutations)
  kMessages,         // dissemination messages (transmissions + probes)
  kSnapshotBytes,    // bytes materialized into dense snapshots
  kSnapshots,        // dense snapshot captures
  kObservations,     // ObserverSet::observe calls
  kTrials,           // trials folded by a TrialRecorder
};
inline constexpr std::size_t kCounterCount = 6;

/// Stable lower_snake names for sinks and reports ("genesis", "churn", ...).
const char* phase_name(Phase phase);
/// Stable lower_snake names ("churn_events", "messages", ...).
const char* counter_name(Counter counter);

/// One accumulation bucket: per-phase span nanoseconds + call counts plus
/// the monotonic counters. Plain data; merging and diffing are exact
/// (unsigned wrap-free in practice: 2^64 ns ≈ 584 years).
struct Totals {
  std::uint64_t phase_ns[kPhaseCount] = {};
  std::uint64_t phase_calls[kPhaseCount] = {};
  std::uint64_t counters[kCounterCount] = {};

  void clear() { *this = Totals{}; }
  void merge(const Totals& other) {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      phase_ns[p] += other.phase_ns[p];
      phase_calls[p] += other.phase_calls[p];
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      counters[c] += other.counters[c];
    }
  }
  /// this - since, field by field (for TrialRecorder slices).
  Totals diff(const Totals& since) const {
    Totals out;
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      out.phase_ns[p] = phase_ns[p] - since.phase_ns[p];
      out.phase_calls[p] = phase_calls[p] - since.phase_calls[p];
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      out.counters[c] = counters[c] - since.counters[c];
    }
    return out;
  }
  std::uint64_t phase_total_ns() const {
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < kPhaseCount; ++p) total += phase_ns[p];
    return total;
  }
  bool empty() const {
    for (std::size_t p = 0; p < kPhaseCount; ++p) {
      if (phase_ns[p] != 0 || phase_calls[p] != 0) return false;
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      if (counters[c] != 0) return false;
    }
    return true;
  }
};

namespace detail {

/// Global runtime switch. Spans consult it so a build that never asks for
/// telemetry pays one relaxed load per phase, not two clock reads.
inline std::atomic<bool> g_enabled{false};

/// Thread-local accumulation state. Eagerly value-initialized per thread;
/// fixed size, so touching it never allocates.
struct ThreadState {
  Totals totals;
  std::uint32_t depth[kPhaseCount] = {};  // same-phase re-entry guard
};
inline thread_local ThreadState t_state;

}  // namespace detail

/// Whether spans are currently recording. Counters accumulate regardless
/// (a thread-local add is cheaper than a well-predicted branch plus an
/// add); only clock reads are gated.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
/// Flips span recording process-wide (ScopedTraceSink does this for CLI
/// runs). Affects only whether time is measured — never what any
/// simulation computes.
inline void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

/// Adds `by` to a monotonic counter of the calling thread.
inline void count(Counter counter, std::uint64_t by = 1) {
  detail::t_state.totals.counters[static_cast<std::size_t>(counter)] += by;
}

/// A copy of the calling thread's accumulated totals.
inline Totals thread_totals() { return detail::t_state.totals; }

/// Resets the calling thread's totals (tests; drivers use TrialRecorder
/// diffs instead so concurrent accumulation is never lost).
inline void reset_thread_totals() {
  detail::t_state.totals.clear();
}

/// RAII phase span. Constructed cheaply when telemetry is disabled (one
/// relaxed load); when enabled, the outermost span of each phase on each
/// thread accumulates its wall time and call count into the thread totals.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase) {
    if (!enabled()) return;
    const auto index = static_cast<std::size_t>(phase);
    depth_index_ = index;  // we incremented: the destructor rebalances
    if (detail::t_state.depth[index]++ != 0) return;  // inner same-phase span
    record_ = true;
    start_ = std::chrono::steady_clock::now();
  }
  ~PhaseTimer() {
    if (depth_index_ == kPhaseCount) return;  // constructed while disabled
    detail::ThreadState& state = detail::t_state;
    if (record_) {
      state.totals.phase_ns[depth_index_] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
      state.totals.phase_calls[depth_index_] += 1;
    }
    --state.depth[depth_index_];
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  // kPhaseCount = constructed while disabled (fully inert). Inner (nested
  // same-phase) spans balance the depth counter but record nothing, so the
  // outermost span stays authoritative and time is never double-counted.
  std::size_t depth_index_ = kPhaseCount;
  bool record_ = false;
  std::chrono::steady_clock::time_point start_{};
};

/// Snapshot-diff recorder for one trial on one thread: construct before
/// the trial body, finish() after — the difference is exactly this trial's
/// phase time and counter traffic (thread-local accumulation makes the
/// diff race-free). Also bumps Counter::kTrials.
class TrialRecorder {
 public:
  TrialRecorder() : start_(detail::t_state.totals) {}
  Totals finish() const {
    count(Counter::kTrials);
    return detail::t_state.totals.diff(start_);
  }

 private:
  Totals start_;
};

}  // namespace churnet::telemetry
