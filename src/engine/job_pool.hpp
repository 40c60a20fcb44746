// The engine's one job pool (DESIGN.md, decision 8).
//
// run_jobs runs independent jobs on a fork-join pool that pulls job
// indices from one atomic counter; it is the only code in src/ that starts
// a thread, since each trial runs on one (DESIGN.md, decision 14). It owns
// the job-level rules: first-error capture, serialized completion and
// trace-sink progress. The sweep service runs every campaign on it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace churnet {

/// A job's sample row, and the completion hook that receives it.
using JobBody = std::function<std::vector<double>(std::uint64_t job)>;
using JobComplete =
    std::function<void(std::uint64_t job, std::vector<double>&& row)>;

/// The largest --threads value churnet_sweep and churnet_repro accept.
inline constexpr unsigned kMaxPoolThreads = 1024;

/// The width run_jobs uses for `count` jobs: min(threads, count), where
/// threads 0 means one per hardware thread; always >= 1.
unsigned pool_width(unsigned threads, std::uint64_t count);

/// Runs body(job) for every job in [0, count) on pool_width(threads, count)
/// workers (width 1 runs inline on the caller) and hands each row to
/// complete(job, row) under one mutex, so completion hooks never race.
/// After the first exception (from a body or a completion hook) no new job
/// starts; the pool joins and rethrows it. Every job that starts is paired
/// with job_started/job_finished on the installed trace sink, if any.
/// Returns the width used.
unsigned run_jobs(std::uint64_t count, unsigned threads, const JobBody& body,
                  const JobComplete& complete);

}  // namespace churnet
