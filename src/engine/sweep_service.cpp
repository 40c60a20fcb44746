#include "engine/sweep_service.hpp"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/assertx.hpp"
#include "engine/result_stream.hpp"
#include "engine/sweep_journal.hpp"
#include "engine/trial_runner.hpp"
#include "telemetry/trace_sink.hpp"

namespace churnet {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("sweep service: " + what);
}

[[noreturn]] void fail_errno(const std::string& what) {
  fail(what + ": " + std::strerror(errno));
}

/// Reads exactly `size` bytes; false on clean EOF before the first byte.
/// EOF mid-record and hard errors throw — a torn frame means the peer
/// died.
bool read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<unsigned char*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, bytes + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("pipe read failed");
    }
    if (n == 0) {
      if (got == 0) return false;
      fail("pipe closed mid-frame (peer died)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

void write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::write(fd, bytes + sent, size - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE) fail("worker process died (broken pipe)");
      fail_errno("pipe write failed");
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// Forked worker body: receive job-id batches on cmd_fd, run them through
/// the shared (copy-on-write) plan and stream raw result frames
/// {u64 job; u64 count; double values[count]} back on res_fd — binary bits,
/// no text round-trip, so the coordinator folds the exact doubles this
/// process computed. Exits on EOF / zero-count shutdown.
[[noreturn]] void worker_main(const SweepPlan& plan, unsigned worker_id,
                              int cmd_fd, int res_fd,
                              const std::string& trace_prefix,
                              const std::string& tool) {
  // The parent's trace sink (and its stream) must never see writes from
  // this process: uninstall the inherited global before anything runs.
  telemetry::set_enabled(false);
  telemetry::TraceSink::install(nullptr);
  int exit_code = 0;
  try {
    std::ofstream trace;
    std::optional<telemetry::ScopedTraceSink> scoped;
    if (!trace_prefix.empty()) {
      const std::string path =
          trace_prefix + std::to_string(worker_id) + ".ndjson";
      trace.open(path);
      if (!trace.is_open()) fail("cannot open worker trace '" + path + "'");
      telemetry::TraceSink::Options options;
      options.out = &trace;
      options.tool = tool;
      options.worker = static_cast<int>(worker_id);
      scoped.emplace(std::move(options));
    }
    std::vector<std::uint64_t> jobs;
    for (;;) {
      std::uint64_t count = 0;
      if (!read_full(cmd_fd, &count, sizeof count) || count == 0) break;
      jobs.resize(count);
      if (!read_full(cmd_fd, jobs.data(),
                     count * sizeof(std::uint64_t))) {
        break;
      }
      for (const std::uint64_t job : jobs) {
        const std::vector<double> values = plan.run_job(job);
        const std::uint64_t header[2] = {
            job, static_cast<std::uint64_t>(values.size())};
        write_full(res_fd, header, sizeof header);
        write_full(res_fd, values.data(), values.size() * sizeof(double));
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sweep worker %u: %s\n", worker_id, error.what());
    exit_code = 1;
  }
  // _Exit: this is a fork of the coordinator — running its atexit
  // handlers or flushing its inherited stdio buffers here would corrupt
  // the parent's output.
  std::_Exit(exit_code);
}

/// Restores the previous SIGPIPE disposition on scope exit. A worker
/// dying between handouts turns the next command write into EPIPE (a
/// clean runtime_error) instead of killing the coordinator.
class ScopedSigpipeIgnore {
 public:
  ScopedSigpipeIgnore() {
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &previous_);
  }
  ~ScopedSigpipeIgnore() { ::sigaction(SIGPIPE, &previous_, nullptr); }

  ScopedSigpipeIgnore(const ScopedSigpipeIgnore&) = delete;
  ScopedSigpipeIgnore& operator=(const ScopedSigpipeIgnore&) = delete;

 private:
  struct sigaction previous_ {};
};

struct WorkerProc {
  pid_t pid = -1;
  int cmd_fd = -1;  // coordinator -> worker: {u64 count; u64 jobs[count]}
  int res_fd = -1;  // worker -> coordinator: result frames
  std::vector<unsigned char> buffer;  // partial-frame reassembly
  std::uint64_t outstanding = 0;      // jobs handed out, results pending
  bool open = true;                   // res_fd not yet at EOF
};

/// Coordinator/worker execution. Work-stealing by construction: each
/// worker gets one batch; whoever returns its last result first gets the
/// next batch, so fast workers drain the queue while slow ones finish.
void run_workers(const SweepPlan& plan,
                 const std::vector<std::uint64_t>& pending,
                 unsigned workers, std::uint64_t batch,
                 const SweepServiceOptions& options,
                 const JobComplete& complete) {
  telemetry::TraceSink* const sink = telemetry::TraceSink::global();
  const std::size_t metric_count = plan.metric_names().size();
  const ScopedSigpipeIgnore sigpipe_guard;
  std::vector<WorkerProc> procs(workers);
  std::size_t cursor = 0;  // next pending index to hand out

  const auto cleanup = [&procs]() noexcept {
    // Closing the command pipes is the shutdown signal; then reap.
    for (WorkerProc& w : procs) {
      if (w.cmd_fd >= 0) ::close(w.cmd_fd);
      w.cmd_fd = -1;
    }
    for (WorkerProc& w : procs) {
      if (w.pid > 0) ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
      if (w.res_fd >= 0) ::close(w.res_fd);
      w.res_fd = -1;
    }
  };

  try {
    // Fork after flushing: a child must not inherit (and later replay)
    // buffered parent output.
    std::fflush(nullptr);
    for (unsigned k = 0; k < workers; ++k) {
      int cmd[2];
      int res[2];
      if (::pipe(cmd) != 0 || ::pipe(res) != 0) fail_errno("pipe");
      const pid_t pid = ::fork();
      if (pid < 0) fail_errno("fork");
      if (pid == 0) {
        ::close(cmd[1]);
        ::close(res[0]);
        for (unsigned j = 0; j < k; ++j) {
          ::close(procs[j].cmd_fd);
          ::close(procs[j].res_fd);
        }
        worker_main(plan, k, cmd[0], res[1], options.worker_trace_prefix,
                    options.tool);
      }
      ::close(cmd[0]);
      ::close(res[1]);
      procs[k].pid = pid;
      procs[k].cmd_fd = cmd[1];
      procs[k].res_fd = res[0];
    }

    const auto handout = [&](WorkerProc& w) {
      const std::uint64_t count = std::min<std::uint64_t>(
          batch, static_cast<std::uint64_t>(pending.size() - cursor));
      if (count == 0) return;
      std::vector<std::uint64_t> frame(count + 1);
      frame[0] = count;
      std::copy(pending.begin() + static_cast<std::ptrdiff_t>(cursor),
                pending.begin() + static_cast<std::ptrdiff_t>(cursor + count),
                frame.begin() + 1);
      cursor += count;
      w.outstanding = count;
      if (sink != nullptr) {
        for (std::uint64_t i = 0; i < count; ++i) sink->job_started();
      }
      write_full(w.cmd_fd, frame.data(),
                 frame.size() * sizeof(std::uint64_t));
    };
    for (WorkerProc& w : procs) handout(w);

    std::uint64_t received = 0;
    std::vector<pollfd> fds;
    std::vector<std::size_t> owners;
    unsigned char chunk[1 << 16];
    while (received < pending.size()) {
      fds.clear();
      owners.clear();
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i].open && procs[i].outstanding > 0) {
          fds.push_back(pollfd{procs[i].res_fd, POLLIN, 0});
          owners.push_back(i);
        }
      }
      if (fds.empty()) fail("all workers idle with jobs remaining");
      int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        fail_errno("poll failed");
      }
      for (std::size_t f = 0; f < fds.size(); ++f) {
        if (fds[f].revents == 0) continue;
        WorkerProc& w = procs[owners[f]];
        const ssize_t n = ::read(w.res_fd, chunk, sizeof chunk);
        if (n < 0) {
          if (errno == EINTR) continue;
          fail_errno("pipe read failed");
        }
        if (n == 0) {
          if (w.outstanding > 0) {
            fail("worker " + std::to_string(owners[f]) +
                 " died with " + std::to_string(w.outstanding) +
                 " job(s) outstanding");
          }
          w.open = false;
          continue;
        }
        w.buffer.insert(w.buffer.end(), chunk, chunk + n);
        // Drain every complete frame: {u64 job; u64 count; doubles}.
        std::size_t offset = 0;
        while (w.buffer.size() - offset >= 2 * sizeof(std::uint64_t)) {
          std::uint64_t header[2];
          std::memcpy(header, w.buffer.data() + offset, sizeof header);
          if (header[1] != metric_count) {
            fail("worker result frame with wrong metric count");
          }
          const std::size_t need =
              sizeof header + header[1] * sizeof(double);
          if (w.buffer.size() - offset < need) break;
          std::vector<double> values(header[1]);
          std::memcpy(values.data(), w.buffer.data() + offset + sizeof header,
                      header[1] * sizeof(double));
          offset += need;
          CHURNET_ASSERT(w.outstanding > 0);
          --w.outstanding;
          ++received;
          complete(header[0], std::move(values));
          if (sink != nullptr) sink->job_finished();
        }
        w.buffer.erase(w.buffer.begin(),
                       w.buffer.begin() + static_cast<std::ptrdiff_t>(offset));
        if (w.outstanding == 0) handout(w);
      }
    }

    for (WorkerProc& w : procs) {
      ::close(w.cmd_fd);  // EOF = shutdown
      w.cmd_fd = -1;
    }
    for (std::size_t i = 0; i < procs.size(); ++i) {
      int status = 0;
      if (::waitpid(procs[i].pid, &status, 0) < 0) fail_errno("waitpid");
      procs[i].pid = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        fail("worker " + std::to_string(i) + " exited abnormally");
      }
      ::close(procs[i].res_fd);
      procs[i].res_fd = -1;
    }
  } catch (...) {
    cleanup();
    throw;
  }
}

}  // namespace

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

  const bool forked = options_.workers >= 2 && !pending.empty();
  const unsigned width =
      forked ? options_.workers : pool_width(options_.threads, pending.size());

  std::uint64_t batch = options_.batch;
  if (batch == 0) {
    // Auto: ~8 handouts per execution slot keeps the steal queue busy
    // while bounding both fsync frequency and SIGKILL loss.
    batch = pending.size() / (8ull * width);
    batch = std::clamp<std::uint64_t>(batch, 1, 64);
  }

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
  const JobComplete complete = [&](std::uint64_t job,
                                   std::vector<double>&& values) {
    CHURNET_ASSERT(values.size() == plan.metric_names().size());
    flat[job] = std::move(values);
    have[job] = 1;
    if (journal.has_value()) {
      journal->append(job, plan.job_seed(job), flat[job]);
    }
    if (stream.has_value()) stream->row(job, flat[job], false);
    ++appended;
    if (journal.has_value() && appended % batch == 0) journal->sync();
    if (options_.kill_after != 0 && appended >= options_.kill_after) {
      // Deterministic mid-campaign crash for the kill-resume tests: make
      // everything appended durable, then die without any cleanup.
      if (journal.has_value()) journal->sync();
      std::raise(SIGKILL);
    }
  };

  if (!pending.empty()) {
    if (forked) {
      run_workers(plan, pending, options_.workers, batch, options_,
                  complete);
    } else {
      run_jobs(
          pending.size(), width,
          [&](std::uint64_t i) { return plan.run_job(pending[i]); },
          [&](std::uint64_t i, std::vector<double>&& values) {
            complete(pending[i], std::move(values));
          });
    }
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
