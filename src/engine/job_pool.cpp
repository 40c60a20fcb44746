#include "engine/job_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <utility>

#include "common/intra.hpp"
#include "telemetry/trace_sink.hpp"

namespace churnet {

unsigned pool_width(unsigned threads, std::uint64_t count) {
  return static_cast<unsigned>(std::clamp<std::uint64_t>(
      count, 1, effective_intra_threads(threads)));
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
  for_each_chunk(width, count, [&](std::size_t job, unsigned) {
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
  });
  if (first_error != nullptr) std::rethrow_exception(first_error);
  return width;
}

}  // namespace churnet
