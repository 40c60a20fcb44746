// Tests for engine/sweep_service.hpp (+ sweep_journal / result_stream):
// the byte-identity contract of the campaign service. Service output must
// equal a pool-free serial fold of SweepPlan::run_job at any thread count
// and across SIGKILL/resume cycles; journals must refuse damage anywhere
// but the torn tail and refuse plans they were not written for, but not a
// plan that differs only in a key accepted with no effect.
#include "engine/sweep_service.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/sweep_journal.hpp"
#include "engine/sweep_runner.hpp"

namespace churnet {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.scenarios = {"SDGR"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"alive", "completion_step", "final_fraction"};
  spec.replications = 8;
  spec.base_seed = 777;
  return spec;
}

/// The reference every service run must match: the plan's jobs run in
/// order on the calling thread and folded, with no pool at all.
SweepResult serial_reference(const SweepSpec& spec) {
  const SweepPlan plan(spec, ScenarioRegistry::extended());
  std::vector<std::vector<double>> rows;
  for (std::uint64_t job = 0; job < plan.job_count(); ++job) {
    rows.push_back(plan.run_job(job));
  }
  return plan.fold(rows, 0.0, 1);
}

std::string csv_of(const SweepResult& result) {
  std::ostringstream out;
  result.write_csv(out);
  return out.str();
}

std::string json_of(const SweepResult& result) {
  std::ostringstream out;
  result.write_json(out);
  return out.str();
}

/// Fresh scratch directory under the system temp dir; callers remove it.
std::filesystem::path make_temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("churnet_sweep_service_" + tag + "_" + std::to_string(::getpid()) +
       "_" + std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::filesystem::path& path,
                const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(SweepService, MatchesSerialFoldByteIdenticalAtAnyThreadCount) {
  const SweepSpec spec = small_spec();
  const SweepResult plain = serial_reference(spec);

  for (const unsigned threads : {1u, 4u, 0u}) {
    SweepServiceOptions options;
    options.threads = threads;
    const SweepResult service = SweepService(spec, options).run();
    EXPECT_EQ(csv_of(plain), csv_of(service)) << threads << " threads";
    EXPECT_EQ(json_of(plain), json_of(service)) << threads << " threads";
  }
}

TEST(SweepService, ReportsThePoolWidthItUsed) {
  // Two jobs cannot keep eight threads busy: the report, the folded
  // result and the result-stream header all say 2.
  SweepSpec spec = small_spec();
  spec.replications = 2;
  std::ostringstream stream;
  SweepServiceReport report;
  const SweepResult result =
      SweepService(spec, {.threads = 8, .results = &stream})
          .run(ScenarioRegistry::extended(), &report);
  EXPECT_EQ(report.workers_used, 2u);
  EXPECT_EQ(result.threads_used(), 2u);
  EXPECT_NE(stream.str().find("\"workers\":2,"), std::string::npos)
      << stream.str();
}

TEST(SweepService, StreamsOneRowPerJobBetweenHeaderAndFooter) {
  const SweepSpec spec = small_spec();
  std::ostringstream stream;
  SweepServiceOptions options;
  options.results = &stream;
  const SweepResult result = SweepService(spec, options).run();
  (void)result;

  std::istringstream lines(stream.str());
  std::string line;
  std::vector<std::string> events;
  while (std::getline(lines, line)) events.push_back(line);
  ASSERT_EQ(events.size(), 10u);  // header + 8 rows + footer
  EXPECT_NE(events.front().find("\"ev\":\"sweep_header\""),
            std::string::npos);
  EXPECT_NE(events.front().find("\"jobs\":8"), std::string::npos);
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_NE(events[i].find("\"ev\":\"row\""), std::string::npos) << i;
    EXPECT_NE(events[i].find("\"resumed\":false"), std::string::npos) << i;
    EXPECT_NE(events[i].find("\"scenario\":\"SDGR\""), std::string::npos)
        << i;
  }
  EXPECT_NE(events.back().find("\"ev\":\"sweep_footer\""),
            std::string::npos);
  EXPECT_NE(events.back().find("\"jobs_done\":8"), std::string::npos);
}

TEST(SweepService, SigkillMidRunThenResumeIsByteIdentical) {
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("kill_resume");

  // The crashing run must die in a child process: kill_after raises
  // SIGKILL in whichever process journals the Nth job.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SweepServiceOptions options;
    options.threads = 1;
    options.checkpoint_dir = dir.string();
    options.kill_after = 3;
    try {
      (void)SweepService(spec, options).run();
    } catch (...) {
    }
    std::_Exit(42);  // only reachable if the kill hook failed to fire
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited instead of dying";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  SweepServiceOptions resume;
  resume.threads = 1;
  resume.checkpoint_dir = dir.string();
  resume.resume = true;
  SweepServiceReport report;
  const SweepResult resumed =
      SweepService(spec, resume).run(ScenarioRegistry::extended(), &report);

  // Journal appends are write(2) calls, so every job journaled before
  // the kill survives it.
  EXPECT_GE(report.jobs_resumed, 3u);
  EXPECT_LT(report.jobs_resumed, 8u);
  EXPECT_EQ(report.jobs_resumed + report.jobs_run, 8u);

  const SweepResult plain = serial_reference(spec);
  EXPECT_EQ(csv_of(plain), csv_of(resumed));
  EXPECT_EQ(json_of(plain), json_of(resumed));
  std::filesystem::remove_all(dir);
}

TEST(SweepService, ResumeOfCompleteCampaignRunsNothingAndTagsRows) {
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("complete");

  SweepServiceOptions first;
  first.checkpoint_dir = dir.string();
  const SweepResult full = SweepService(spec, first).run();

  std::ostringstream stream;
  SweepServiceOptions again;
  again.checkpoint_dir = dir.string();
  again.resume = true;
  again.results = &stream;
  SweepServiceReport report;
  const SweepResult resumed =
      SweepService(spec, again).run(ScenarioRegistry::extended(), &report);

  EXPECT_EQ(report.jobs_resumed, 8u);
  EXPECT_EQ(report.jobs_run, 0u);
  EXPECT_EQ(csv_of(full), csv_of(resumed));
  EXPECT_EQ(json_of(full), json_of(resumed));

  // Restored rows still stream (so a tail -f consumer sees the whole
  // campaign), tagged resumed:true.
  const std::string text = stream.str();
  EXPECT_NE(text.find("\"resumed\":8"), std::string::npos);
  std::istringstream lines(text);
  std::string line;
  std::size_t resumed_rows = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"ev\":\"row\"") == std::string::npos) continue;
    EXPECT_NE(line.find("\"resumed\":true"), std::string::npos);
    ++resumed_rows;
  }
  EXPECT_EQ(resumed_rows, 8u);
  std::filesystem::remove_all(dir);
}

TEST(SweepService, FreshRunRefusesExistingJournal) {
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("refuse");

  SweepServiceOptions options;
  options.checkpoint_dir = dir.string();
  (void)SweepService(spec, options).run();

  // Same options, no resume: silently overwriting a checkpoint would
  // destroy it, so this must throw instead.
  EXPECT_THROW((void)SweepService(spec, options).run(), std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(SweepService, ResumeRefusesDifferentPlanFingerprint) {
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("fingerprint");

  SweepServiceOptions options;
  options.checkpoint_dir = dir.string();
  (void)SweepService(spec, options).run();

  SweepSpec other = small_spec();
  other.base_seed = 778;
  SweepServiceOptions resume = options;
  resume.resume = true;
  EXPECT_THROW((void)SweepService(other, resume).run(),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(SweepService, ResumeAcceptsNoOpKnobs) {
  // intra_threads and incremental_observers change no output byte, so the
  // fingerprint leaves them out: a resume that toggles both picks up the
  // journal a default spec wrote.
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("noop_knobs");

  SweepServiceOptions options;
  options.checkpoint_dir = dir.string();
  const SweepResult full = SweepService(spec, options).run();

  SweepSpec toggled = small_spec();
  toggled.intra_threads = 4;
  toggled.incremental_observers = true;
  SweepServiceOptions resume = options;
  resume.resume = true;
  SweepServiceReport report;
  const SweepResult resumed = SweepService(toggled, resume)
                                  .run(ScenarioRegistry::extended(), &report);

  EXPECT_EQ(report.jobs_resumed, 8u);
  EXPECT_EQ(report.jobs_run, 0u);
  EXPECT_EQ(csv_of(full), csv_of(resumed));
  std::filesystem::remove_all(dir);
}

TEST(SweepService, TornTailIsDroppedMidFileDamageThrows) {
  const SweepSpec spec = small_spec();
  const std::filesystem::path dir = make_temp_dir("damage");

  SweepServiceOptions options;
  options.checkpoint_dir = dir.string();
  const SweepResult full = SweepService(spec, options).run();

  const std::filesystem::path journal =
      SweepJournal::journal_path(dir.string());
  const std::string intact = read_file(journal);
  ASSERT_FALSE(intact.empty());

  // A crash can tear only the final line (single sequential writer):
  // an incomplete last record is dropped and the job re-runs.
  write_file(journal, intact + R"({"ev":"done","job":3,"se)");
  SweepServiceOptions resume = options;
  resume.resume = true;
  SweepServiceReport report;
  const SweepResult resumed =
      SweepService(spec, resume).run(ScenarioRegistry::extended(), &report);
  EXPECT_EQ(report.jobs_resumed, 8u);
  EXPECT_EQ(csv_of(full), csv_of(resumed));

  // Damage anywhere else means the journal cannot be trusted: hard error.
  std::string corrupt = read_file(journal);
  const std::size_t second_line = corrupt.find('\n') + 1;
  corrupt[second_line] = 'X';
  write_file(journal, corrupt);
  EXPECT_THROW((void)SweepService(spec, resume).run(), std::runtime_error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace churnet
