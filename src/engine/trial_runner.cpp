#include "engine/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <utility>

#include "common/assertx.hpp"
#include "common/intra.hpp"
#include "common/rng.hpp"
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

TrialResult::TrialResult(std::vector<std::string> metrics,
                         std::vector<std::vector<double>> samples,
                         double wall_seconds, unsigned threads_used)
    : metrics_(std::move(metrics)),
      samples_(std::move(samples)),
      wall_seconds_(wall_seconds),
      threads_used_(threads_used) {
  stats_.resize(metrics_.size());
  // Fold in replication order: aggregation is independent of the thread
  // interleaving that produced the samples.
  for (const std::vector<double>& row : samples_) {
    CHURNET_ASSERT(row.size() == metrics_.size());
    for (std::size_t m = 0; m < row.size(); ++m) {
      if (!std::isnan(row[m])) stats_[m].add(row[m]);
    }
  }
}

const OnlineStats& TrialResult::stats(std::string_view metric) const {
  for (std::size_t m = 0; m < metrics_.size(); ++m) {
    if (metrics_[m] == metric) return stats_[m];
  }
  CHURNET_EXPECTS(false && "unknown metric");
  return stats_.front();
}

Table TrialResult::to_table() const {
  Table table({"metric", "count", "mean", "stderr", "min", "max"});
  for (std::size_t m = 0; m < metrics_.size(); ++m) {
    const OnlineStats& s = stats_[m];
    table.add_row({metrics_[m],
                   fmt_int(static_cast<std::int64_t>(s.count())),
                   s.count() > 0 ? fmt_fixed(s.mean(), 4) : "-",
                   s.count() > 1 ? fmt_fixed(s.stderr_mean(), 4) : "-",
                   s.count() > 0 ? fmt_fixed(s.min(), 4) : "-",
                   s.count() > 0 ? fmt_fixed(s.max(), 4) : "-"});
  }
  return table;
}

TrialRunner::TrialRunner(TrialRunnerOptions options) : options_(options) {
  CHURNET_EXPECTS(options_.replications > 0);
}

TrialResult TrialRunner::run(std::vector<std::string> metrics,
                             const Body& body) const {
  CHURNET_EXPECTS(!metrics.empty());
  std::vector<std::vector<double>> samples(options_.replications);
  const auto start = std::chrono::steady_clock::now();
  const unsigned threads = run_jobs(
      options_.replications, options_.threads,
      [&](std::uint64_t rep) {
        TrialContext ctx;
        ctx.replication = rep;
        ctx.seed = derive_seed(options_.base_seed, options_.stream, rep);
        return body(ctx);
      },
      [&](std::uint64_t rep, std::vector<double>&& row) {
        CHURNET_ASSERT(row.size() == metrics.size());
        samples[rep] = std::move(row);
      });
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  return TrialResult(std::move(metrics), std::move(samples), wall, threads);
}

TrialResult TrialRunner::run(const std::string& metric,
                             const ScalarBody& body) const {
  return run(std::vector<std::string>{metric},
             [&body](const TrialContext& ctx) {
               return std::vector<double>{body(ctx)};
             });
}

}  // namespace churnet
