// Tests for the telemetry layer (src/telemetry/): phase timers, counters,
// trial recorders, the NDJSON trace sink — and the two hard contracts:
//
//   * zero steady-state allocation (counting-allocator pin on span
//     enter/exit, counting and recorder snapshots);
//   * off-path by construction (sweep CSV byte-identical with telemetry
//     on or off, at 1 and 8 threads).
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "engine/sweep_service.hpp"
#include "telemetry/trace_sink.hpp"

// ---- counting global allocator ---------------------------------------------
//
// Same idiom as test_graph_stress.cpp: overriding the global operator
// new/delete pair observes every heap allocation the process makes, so the
// zero-allocation contract is pinned against the real allocator.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = ((size | 1) + alignment - 1) & ~(alignment - 1);
  if (void* p = std::aligned_alloc(alignment, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace churnet {
namespace {

namespace tel = telemetry;

// Restores the global enabled flag and clears this thread's totals around
// each test, so test order never matters.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tel::set_enabled(false);
    tel::reset_thread_totals();
  }
  void TearDown() override {
    tel::set_enabled(false);
    tel::reset_thread_totals();
  }
};

// ---- names ------------------------------------------------------------------

TEST_F(TelemetryTest, PhaseAndCounterNamesAreStable) {
  EXPECT_STREQ(tel::phase_name(tel::Phase::kGenesis), "genesis");
  EXPECT_STREQ(tel::phase_name(tel::Phase::kChurn), "churn");
  EXPECT_STREQ(tel::phase_name(tel::Phase::kDissemination), "dissemination");
  EXPECT_STREQ(tel::phase_name(tel::Phase::kObserve), "observe");
  EXPECT_STREQ(tel::phase_name(tel::Phase::kSnapshot), "snapshot");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kChurnEvents), "churn_events");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kMessages), "messages");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kSnapshotBytes),
               "snapshot_bytes");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kSnapshots), "snapshots");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kObservations),
               "observations");
  EXPECT_STREQ(tel::counter_name(tel::Counter::kTrials), "trials");
}

// ---- Totals arithmetic ------------------------------------------------------

TEST_F(TelemetryTest, TotalsMergeAndDiffAreExact) {
  tel::Totals a;
  a.phase_ns[0] = 100;
  a.phase_calls[0] = 2;
  a.counters[1] = 7;
  tel::Totals b;
  b.phase_ns[0] = 40;
  b.phase_calls[0] = 1;
  b.counters[1] = 3;
  tel::Totals merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.phase_ns[0], 140u);
  EXPECT_EQ(merged.phase_calls[0], 3u);
  EXPECT_EQ(merged.counters[1], 10u);
  const tel::Totals diff = merged.diff(b);
  EXPECT_EQ(diff.phase_ns[0], a.phase_ns[0]);
  EXPECT_EQ(diff.phase_calls[0], a.phase_calls[0]);
  EXPECT_EQ(diff.counters[1], a.counters[1]);
  EXPECT_TRUE(tel::Totals{}.empty());
  EXPECT_FALSE(merged.empty());
  EXPECT_EQ(merged.phase_total_ns(), 140u);
}

// ---- spans and counters -----------------------------------------------------

TEST_F(TelemetryTest, SpansRecordOnlyWhenEnabled) {
  {
    const tel::PhaseTimer span(tel::Phase::kChurn);
  }
  EXPECT_TRUE(tel::thread_totals().empty());

  tel::set_enabled(true);
  {
    const tel::PhaseTimer span(tel::Phase::kChurn);
  }
  const tel::Totals totals = tel::thread_totals();
  const auto churn = static_cast<std::size_t>(tel::Phase::kChurn);
  EXPECT_EQ(totals.phase_calls[churn], 1u);
}

TEST_F(TelemetryTest, NestedSamePhaseSpansRecordOnceAtTheOutermost) {
  tel::set_enabled(true);
  {
    const tel::PhaseTimer outer(tel::Phase::kGenesis);
    {
      const tel::PhaseTimer inner(tel::Phase::kGenesis);  // depth-guarded
      const tel::PhaseTimer other(tel::Phase::kObserve);  // different phase
    }
  }
  const tel::Totals totals = tel::thread_totals();
  const auto genesis = static_cast<std::size_t>(tel::Phase::kGenesis);
  const auto observe = static_cast<std::size_t>(tel::Phase::kObserve);
  EXPECT_EQ(totals.phase_calls[genesis], 1u);  // inner span did not record
  EXPECT_EQ(totals.phase_calls[observe], 1u);
  // The depth counters rebalanced: a fresh outermost span records again.
  {
    const tel::PhaseTimer again(tel::Phase::kGenesis);
  }
  EXPECT_EQ(tel::thread_totals().phase_calls[genesis], 2u);
}

TEST_F(TelemetryTest, SpanToggledMidFlightStaysBalanced) {
  // A span constructed while disabled must stay inert even if telemetry is
  // enabled before its destructor runs (and vice versa).
  {
    const tel::PhaseTimer span(tel::Phase::kChurn);
    tel::set_enabled(true);
  }
  const auto churn = static_cast<std::size_t>(tel::Phase::kChurn);
  EXPECT_EQ(tel::thread_totals().phase_calls[churn], 0u);
  {
    const tel::PhaseTimer span(tel::Phase::kChurn);
    tel::set_enabled(false);
  }
  EXPECT_EQ(tel::thread_totals().phase_calls[churn], 1u);
}

TEST_F(TelemetryTest, CountersAccumulateRegardlessOfEnabled) {
  tel::count(tel::Counter::kChurnEvents);
  tel::count(tel::Counter::kMessages, 5);
  const tel::Totals totals = tel::thread_totals();
  EXPECT_EQ(totals.counters[static_cast<std::size_t>(
                tel::Counter::kChurnEvents)],
            1u);
  EXPECT_EQ(
      totals.counters[static_cast<std::size_t>(tel::Counter::kMessages)],
      5u);
}

TEST_F(TelemetryTest, TrialRecorderSlicesThreadTotals) {
  tel::set_enabled(true);
  tel::count(tel::Counter::kMessages, 100);  // pre-trial traffic
  const tel::TrialRecorder recorder;
  tel::count(tel::Counter::kMessages, 7);
  {
    const tel::PhaseTimer span(tel::Phase::kObserve);
  }
  const tel::Totals slice = recorder.finish();
  EXPECT_EQ(
      slice.counters[static_cast<std::size_t>(tel::Counter::kMessages)], 7u);
  EXPECT_EQ(
      slice.counters[static_cast<std::size_t>(tel::Counter::kTrials)], 1u);
  EXPECT_EQ(
      slice.phase_calls[static_cast<std::size_t>(tel::Phase::kObserve)], 1u);
}

// ---- zero steady-state allocation -------------------------------------------

TEST_F(TelemetryTest, SpansCountersAndRecordersNeverAllocate) {
  tel::set_enabled(true);
  // Warm up: first touch of the thread-local state, lazy clock init, etc.
  {
    const tel::PhaseTimer warm(tel::Phase::kChurn);
    tel::count(tel::Counter::kChurnEvents);
  }
  const tel::TrialRecorder warm_recorder;
  (void)warm_recorder.finish();

  const std::uint64_t before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const tel::TrialRecorder recorder;
    {
      const tel::PhaseTimer churn(tel::Phase::kChurn);
      const tel::PhaseTimer snapshot(tel::Phase::kSnapshot);
      tel::count(tel::Counter::kChurnEvents);
      tel::count(tel::Counter::kSnapshotBytes, 4096);
    }
    const tel::Totals slice = recorder.finish();
    ASSERT_FALSE(slice.empty());
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "telemetry hot path allocated " << (after - before) << " time(s)";
}

// ---- off-path contract: byte-identical results ------------------------------

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR+pareto(2.5)"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"alive", "completion_step"};
  spec.observers = "expansion(4)";
  spec.replications = 3;
  spec.base_seed = 20210707;
  return spec;
}

std::string run_sweep_csv(unsigned threads, bool with_sink,
                          std::string* trace_out = nullptr) {
  std::ostringstream trace;
  std::optional<tel::ScopedTraceSink> scoped;
  if (with_sink) {
    tel::TraceSink::Options options;
    options.out = &trace;
    options.tool = "test_telemetry";
    options.heartbeat_seconds = 0.0;  // heartbeat on every job
    scoped.emplace(options);
  }
  const SweepResult result =
      SweepService(tiny_spec(), {.threads = threads}).run();
  scoped.reset();  // flush trace_end
  if (trace_out != nullptr) *trace_out = trace.str();
  std::ostringstream csv;
  result.write_csv(csv);
  return csv.str();
}

TEST_F(TelemetryTest, SweepCsvIsByteIdenticalWithTelemetryOnOrOff) {
  const std::string off_t1 = run_sweep_csv(1, /*with_sink=*/false);
  const std::string on_t1 = run_sweep_csv(1, /*with_sink=*/true);
  const std::string off_t8 = run_sweep_csv(8, /*with_sink=*/false);
  const std::string on_t8 = run_sweep_csv(8, /*with_sink=*/true);
  EXPECT_EQ(off_t1, on_t1);
  EXPECT_EQ(off_t1, off_t8);
  EXPECT_EQ(off_t1, on_t8);
  EXPECT_NE(off_t1.find("scenario"), std::string::npos);  // sanity: not empty
}

// ---- NDJSON trace schema ----------------------------------------------------

TEST_F(TelemetryTest, TraceIsWellFormedSchemaV1Ndjson) {
  std::string trace;
  (void)run_sweep_csv(2, /*with_sink=*/true, &trace);
  ASSERT_FALSE(trace.empty());

  const std::set<std::string> known = {
      "trace_begin", "span_begin", "span_end",  "sweep_begin",
      "job",         "heartbeat",  "sweep_end", "trace_end"};
  std::set<std::string> seen;
  std::istringstream lines(trace);
  std::string line;
  std::string first_ev;
  std::string last_ev;
  std::uint64_t jobs = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::string error;
    const std::optional<JsonValue> event = JsonValue::parse(line, &error);
    ASSERT_TRUE(event.has_value()) << error << "\nline: " << line;
    ASSERT_TRUE(event->is_object()) << line;
    const JsonValue* ev = event->find("ev");
    ASSERT_NE(ev, nullptr) << line;
    ASSERT_TRUE(known.count(ev->as_string())) << line;
    seen.insert(ev->as_string());
    if (first_ev.empty()) first_ev = ev->as_string();
    last_ev = ev->as_string();

    if (ev->as_string() == "trace_begin") {
      ASSERT_NE(event->find("schema"), nullptr);
      EXPECT_EQ(event->find("schema")->as_number(), 1.0);
      ASSERT_NE(event->find("tool"), nullptr);
      EXPECT_EQ(event->find("tool")->as_string(), "test_telemetry");
    } else if (ev->as_string() == "sweep_begin") {
      ASSERT_NE(event->find("spec"), nullptr);
      EXPECT_TRUE(event->find("spec")->is_object()) << line;
      ASSERT_NE(event->find("jobs"), nullptr);
      EXPECT_EQ(event->find("jobs")->as_number(), 6.0);  // 2 cells x 3 reps
    } else if (ev->as_string() == "job") {
      ++jobs;
      for (const char* key : {"cell", "replication", "seed", "wall_s"}) {
        ASSERT_NE(event->find(key), nullptr) << "job missing " << key;
      }
      ASSERT_NE(event->find("phases"), nullptr);
      ASSERT_TRUE(event->find("phases")->is_object()) << line;
      ASSERT_NE(event->find("counters"), nullptr);
      ASSERT_TRUE(event->find("counters")->is_object()) << line;
      // Identity fields spliced by SweepPlan::run_job.
      ASSERT_NE(event->find("scenario"), nullptr) << line;
      ASSERT_NE(event->find("n"), nullptr) << line;
    }
  }
  EXPECT_EQ(first_ev, "trace_begin");
  EXPECT_EQ(last_ev, "trace_end");
  EXPECT_EQ(jobs, 6u);
  for (const char* required :
       {"trace_begin", "sweep_begin", "job", "heartbeat", "sweep_end",
        "trace_end"}) {
    EXPECT_TRUE(seen.count(required)) << "trace never emitted " << required;
  }
}

// Every started job is finished exactly once: the last heartbeat of a
// campaign sees all jobs done and no thread busy.
TEST_F(TelemetryTest, LastHeartbeatSeesEveryJobDoneAndNoThreadBusy) {
  std::string trace;
  (void)run_sweep_csv(4, /*with_sink=*/true, &trace);
  std::optional<JsonValue> last;
  std::istringstream lines(trace);
  std::string line;
  while (std::getline(lines, line)) {
    std::optional<JsonValue> event = JsonValue::parse(line);
    ASSERT_TRUE(event.has_value()) << line;
    const JsonValue* ev = event->find("ev");
    if (ev != nullptr && ev->as_string() == "heartbeat") last = event;
  }
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->find("jobs_total")->as_number(), 6.0);
  EXPECT_EQ(last->find("jobs_done")->as_number(),
            last->find("jobs_total")->as_number());
  EXPECT_EQ(last->find("threads_busy")->as_number(), 0.0);
}

TEST_F(TelemetryTest, JobEventsCarryNonZeroPhaseAndCounterTraffic) {
  // Two sweeps under one sink: each sweep_end sums that sweep's jobs only,
  // so a multi-sweep trace's sweep_end records add up to its job events.
  std::ostringstream trace;
  {
    tel::TraceSink::Options options;
    options.out = &trace;
    options.tool = "test_telemetry";
    const tel::ScopedTraceSink scoped(options);
    for (int sweep = 0; sweep < 2; ++sweep) {
      (void)SweepService(tiny_spec(), {.threads = 1}).run();
    }
  }
  std::istringstream lines(trace.str());
  std::string line;
  int sweep_ends = 0;
  while (std::getline(lines, line)) {
    const std::optional<JsonValue> event = JsonValue::parse(line);
    ASSERT_TRUE(event.has_value());
    const JsonValue* ev = event->find("ev");
    if (ev == nullptr || ev->as_string() != "sweep_end") continue;
    ++sweep_ends;
    const JsonValue* counters = event->find("counters");
    ASSERT_NE(counters, nullptr);
    const JsonValue* churn_events = counters->find("churn_events");
    ASSERT_NE(churn_events, nullptr);
    EXPECT_GT(churn_events->as_number(), 0.0);
    const JsonValue* trials = counters->find("trials");
    ASSERT_NE(trials, nullptr);
    // tiny_spec runs 2 cells x 3 replications per sweep.
    EXPECT_EQ(trials->as_number(), 6.0) << "sweep " << sweep_ends;
    const JsonValue* jobs = event->find("jobs");
    ASSERT_NE(jobs, nullptr);
    EXPECT_EQ(jobs->as_number(), 6.0);
  }
  EXPECT_EQ(sweep_ends, 2);
}

}  // namespace
}  // namespace churnet
