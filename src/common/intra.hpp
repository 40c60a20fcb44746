// Intra-trial fork-join: run a fixed partition of work across a small
// worker pool such that the result is byte-identical at every thread
// count. for_each_chunk is also the only code in src/ that starts a
// thread: the engine's job pool (run_jobs, engine/job_pool.hpp) runs its
// jobs on it, one job per chunk, and effective_intra_threads resolves that
// pool's `threads` knob too.
//
// The determinism recipe (DESIGN.md, "Intra-trial parallelism"): split the
// work into chunks whose boundaries depend only on the input size — never
// on the thread count — have each chunk write only its own output buffer,
// and merge the buffers serially in chunk-index order. Workers may execute
// chunks in any order (they pull indices from a shared atomic counter), but
// since chunk outputs are disjoint and the merge order is fixed, the final
// result at intra_threads=k is the sequential result for every k. That
// property is what the CI determinism smoke and the equivalence tests pin.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace churnet {

/// Resolves an intra_threads knob: 0 = one worker per hardware thread,
/// otherwise the requested count. Always >= 1.
inline unsigned effective_intra_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Runs fn(chunk_index, worker_index) for every chunk in [0, chunk_count).
/// With threads <= 1 (or a single chunk) this is a plain serial loop on
/// worker 0 — no thread is ever spawned, so the sequential path stays the
/// oracle. Otherwise min(threads, chunk_count) workers pull chunk indices
/// from an atomic counter; worker_index selects per-worker scratch buffers
/// and is in [0, workers).
template <typename Fn>
void for_each_chunk(unsigned threads, std::size_t chunk_count, Fn&& fn) {
  if (threads <= 1 || chunk_count <= 1) {
    for (std::size_t c = 0; c < chunk_count; ++c) fn(c, 0u);
    return;
  }
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads, chunk_count));
  std::atomic<std::size_t> next{0};
  auto run = [&](unsigned worker) {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunk_count;
         c = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(c, worker);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w) pool.emplace_back(run, w);
  run(0);
  for (std::thread& worker : pool) worker.join();
}

}  // namespace churnet
