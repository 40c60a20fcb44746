#include "engine/sweep_service.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <vector>

#include "common/assertx.hpp"
#include "engine/job_pool.hpp"
#include "engine/result_stream.hpp"
#include "engine/sweep_journal.hpp"
#include "telemetry/trace_sink.hpp"

namespace churnet {

SweepService::SweepService(SweepSpec spec, SweepServiceOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  if (const std::optional<std::string> reason = spec_.validate()) {
    std::fprintf(stderr, "invalid sweep spec: %s\n", reason->c_str());
    std::abort();
  }
}

SweepResult SweepService::run(const ScenarioRegistry& registry,
                              SweepServiceReport* report) const {
  const SweepPlan plan(spec_, registry);
  const std::uint64_t jobs = plan.job_count();
  const auto start = std::chrono::steady_clock::now();

  std::vector<std::vector<double>> flat(jobs);
  std::vector<char> have(jobs, 0);
  std::optional<SweepJournal> journal;
  std::uint64_t resumed = 0;
  if (!options_.checkpoint_dir.empty()) {
    journal.emplace(options_.checkpoint_dir, plan, options_.resume);
    for (const auto& [job, values] : journal->completed()) {
      flat[job] = values;
      have[job] = 1;
      ++resumed;
    }
  }
  std::vector<std::uint64_t> pending;
  pending.reserve(jobs - resumed);
  for (std::uint64_t j = 0; j < jobs; ++j) {
    if (!have[j]) pending.push_back(j);
  }

  const unsigned width = pool_width(options_.threads, pending.size());
  // Journal fsync period: ~8 syncs per pool thread, at most 64 rows
  // apart. Appends are write(2) calls, so a killed process loses nothing
  // already appended; the sync guards against OS crashes only.
  const std::uint64_t sync_every = std::clamp<std::uint64_t>(
      pending.size() / (8ull * width), 1, 64);

  std::optional<ResultStream> stream;
  if (options_.results != nullptr) {
    stream.emplace(*options_.results, plan);
    stream->begin(resumed, width, options_.tool);
    // Re-emit journaled rows (job order, flagged resumed) so the stream
    // covers the whole campaign even after a kill/resume cycle.
    for (std::uint64_t j = 0; j < jobs; ++j) {
      if (have[j]) stream->row(j, flat[j], true);
    }
  }

  telemetry::TraceSink* const sink = telemetry::TraceSink::global();
  if (sink != nullptr) {
    sink->sweep_begin("sweep", plan.keys().size(), plan.replications(),
                      jobs, width, plan.spec_json(), resumed);
  }

  std::uint64_t appended = 0;
  if (!pending.empty()) {
    run_jobs(
        pending.size(), width,
        [&](std::uint64_t i) { return plan.run_job(pending[i]); },
        [&](std::uint64_t i, std::vector<double>&& values) {
          const std::uint64_t job = pending[i];
          CHURNET_ASSERT(values.size() == plan.metric_names().size());
          flat[job] = std::move(values);
          if (journal.has_value()) {
            journal->append(job, plan.job_seed(job), flat[job]);
          }
          if (stream.has_value()) stream->row(job, flat[job], false);
          ++appended;
          if (journal.has_value() && appended % sync_every == 0) {
            journal->sync();
          }
          if (options_.kill_after != 0 && appended >= options_.kill_after) {
            // Deterministic mid-campaign crash for the kill-resume tests:
            // make everything appended durable, then die without any
            // cleanup.
            if (journal.has_value()) journal->sync();
            std::raise(SIGKILL);
          }
        });
    if (journal.has_value()) journal->sync();
  }

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (sink != nullptr) sink->sweep_end("sweep", wall);
  if (stream.has_value()) stream->end(jobs);
  if (report != nullptr) {
    report->jobs_total = jobs;
    report->jobs_resumed = resumed;
    report->jobs_run = appended;
    report->workers_used = width;
  }
  return plan.fold(flat, wall, width);
}

}  // namespace churnet
