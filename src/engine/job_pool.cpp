#include "engine/job_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "telemetry/trace_sink.hpp"

namespace churnet {

unsigned pool_width(unsigned threads, std::uint64_t count) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(std::clamp<std::uint64_t>(count, 1, threads));
}

unsigned run_jobs(std::uint64_t count, unsigned threads, const JobBody& body,
                  const JobComplete& complete) {
  const unsigned width = pool_width(threads, count);
  // Pool progress for the installed trace sink (if any): feeds the
  // heartbeat's jobs-done / threads-busy gauges. Never touches a job's
  // inputs, so results are identical with or without a sink.
  telemetry::TraceSink* const sink = telemetry::TraceSink::global();
  std::mutex mutex;
  std::exception_ptr first_error;
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> next{0};
  // Each worker pulls job indices from the shared counter until they run
  // out; which worker runs a job never reaches its row.
  const auto work = [&] {
    for (std::uint64_t job = next.fetch_add(1, std::memory_order_relaxed);
         job < count; job = next.fetch_add(1, std::memory_order_relaxed)) {
      if (failed) return;  // drain: no job starts after the first error
      if (sink != nullptr) sink->job_started();
      std::exception_ptr error;
      std::vector<double> row;
      try {
        row = body(job);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (error == nullptr) {
        try {
          complete(job, std::move(row));
        } catch (...) {
          error = std::current_exception();
        }
      }
      if (error != nullptr && first_error == nullptr) {
        first_error = error;
        failed = true;
      }
      // Under the mutex: the heartbeat a job_finished emits is then never
      // overtaken by an older one.
      if (sink != nullptr) sink->job_finished();
    }
  };
  {
    // Worker 0 is the caller, so width 1 starts no thread. The workers
    // join as this scope ends, also when one of them fails to start.
    std::vector<std::jthread> workers;
    workers.reserve(width - 1);
    for (unsigned w = 1; w < width; ++w) workers.emplace_back(work);
    work();
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return width;
}

}  // namespace churnet
