// Tests for engine/sweep_runner.hpp: spec loading/validation, grid
// expansion, derive_seed-routed cell streams, determinism across thread
// counts, and the long-format CSV / JSON sinks. Sweeps run through the
// sweep service's in-process pool (engine/sweep_service.hpp).
#include "engine/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "engine/sweep_service.hpp"

namespace churnet {
namespace {

SweepSpec small_spec() {
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR+pareto(2.5)"};
  spec.n_values = {100, 200};
  spec.d_values = {4};
  spec.metrics = {"alive", "completion_step"};
  spec.replications = 3;
  spec.base_seed = 777;
  return spec;
}

TEST(SweepSpec, FromJsonTextLoadsEveryKey) {
  std::string error;
  const auto spec = SweepSpec::from_json_text(
      R"json({"scenarios": ["PDGR", "SDG"], "n": [300], "d": [4, 8],
          "protocols": ["flood", "push(3)"],
          "metrics": ["alive"], "replications": 5, "seed": 99,
          "max_in_degree": 16})json",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->scenarios, (std::vector<std::string>{"PDGR", "SDG"}));
  EXPECT_EQ(spec->n_values, (std::vector<std::uint32_t>{300}));
  EXPECT_EQ(spec->d_values, (std::vector<std::uint32_t>{4, 8}));
  EXPECT_EQ(spec->protocols,
            (std::vector<std::string>{"flood", "push(3)"}));
  EXPECT_EQ(spec->metrics, (std::vector<std::string>{"alive"}));
  EXPECT_EQ(spec->replications, 5u);
  EXPECT_EQ(spec->base_seed, 99u);
  EXPECT_EQ(spec->max_in_degree, 16u);
  EXPECT_EQ(spec->cell_count(), 8u);
}

TEST(SweepSpec, OmittedMetricsKeepDefaults) {
  std::string error;
  const auto spec = SweepSpec::from_json_text(
      R"({"scenarios": ["PDGR"], "n": [300], "d": [4]})", &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->metrics, SweepSpec::default_metrics());
  EXPECT_EQ(spec->replications, 8u);
}

TEST(SweepSpec, RejectsBadConfigsWithReasons) {
  const auto error_of = [](std::string_view text) {
    std::string error;
    EXPECT_FALSE(SweepSpec::from_json_text(text, &error).has_value())
        << text;
    return error;
  };
  EXPECT_NE(error_of("[1,2]").find("must be a JSON object"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenario": ["PDGR"]})").find("unknown sweep key"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [300]})")
                .find("at least one d"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": [], "n": [300], "d": [4]})")
                .find("at least one scenario"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [0], "d": [4]})")
                .find("integer in [1"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [300], "d": [4],
                         "metrics": ["bogus"]})")
                .find("unknown metric 'bogus'"),
            std::string::npos);
  // Protocol-axis entries are validated up front with the parser's reason.
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [300], "d": [4],
                         "protocols": ["smoke-signal"]})")
                .find("unknown protocol 'smoke-signal'"),
            std::string::npos);
  EXPECT_NE(error_of(R"json({"scenarios": ["PDGR"], "n": [300], "d": [4],
                         "protocols": ["flood+lossy(2)"]})json")
                .find("delivery probability"),
            std::string::npos);
  EXPECT_NE(error_of("{\"scenarios\": [\"PDGR\"], \"n\": [300], \"d\": [4]")
                .find("offset"),
            std::string::npos);  // malformed JSON surfaces the parser error
  // Fractional and out-of-range numbers are errors, never silently
  // truncated (the casts would be lossy or undefined).
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [2.5], "d": [4]})")
                .find("integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [5e9], "d": [4]})")
                .find("integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [300], "d": [4],
                         "replications": 2.5})")
                .find("integer"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"scenarios": ["PDGR"], "n": [300], "d": [4],
                         "seed": -1})")
                .find("integer"),
            std::string::npos);
}

TEST(SweepSpec, BoundsTheOutSlotPoolAndTheJobCount) {
  // Checked by validate() alone: nothing here builds a network or a job.
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR"};
  spec.n_values = {1u << 16};
  spec.d_values = {4, 65535};
  spec.replications = 1;
  EXPECT_FALSE(spec.validate().has_value());  // n*d = 2^32 - 2^16
  spec.d_values = {4, 65536};                 // n*d = 2^32
  const std::optional<std::string> pool = spec.validate();
  ASSERT_TRUE(pool.has_value());
  EXPECT_NE(pool->find("n*d must fit the 32-bit out-slot pool: n=65536, "
                       "d=65536 needs 4294967296 out-slots, at most "
                       "4294967295"),
            std::string::npos)
      << *pool;

  spec.d_values = {4};  // two cells
  spec.replications = std::uint64_t{1} << 23;
  EXPECT_FALSE(spec.validate().has_value());  // 2^24 jobs
  spec.replications += 1;
  const std::optional<std::string> jobs = spec.validate();
  ASSERT_TRUE(jobs.has_value());
  EXPECT_NE(jobs->find("too many jobs: 2 cell(s) x 8388609 replications; "
                       "the result matrix holds at most 16777216 jobs"),
            std::string::npos)
      << *jobs;
  // The JSON reader's largest replication count cannot overflow the
  // product with the cell count.
  spec.replications = 1'000'000'000'000'000ull;
  EXPECT_TRUE(spec.validate().has_value());
}

TEST(SweepSpec, KnownMetricsCoverTheCatalog) {
  const std::vector<std::string> known = SweepSpec::known_metrics();
  EXPECT_GE(known.size(), 9u);
  for (const std::string& metric : SweepSpec::default_metrics()) {
    EXPECT_NE(std::find(known.begin(), known.end(), metric), known.end())
        << metric;
  }
}

TEST(Sweep, ExpandsGridScenarioMajorWithChurnColumn) {
  const SweepResult result = SweepService(small_spec(), {.threads = 1}).run();
  ASSERT_EQ(result.cells().size(), 4u);
  EXPECT_EQ(result.cells()[0].scenario, "SDGR");
  EXPECT_EQ(result.cells()[0].churn, "stream");
  EXPECT_EQ(result.cells()[0].protocol, "flood");  // the implicit default
  EXPECT_EQ(result.cells()[0].n, 100u);
  EXPECT_EQ(result.cells()[1].n, 200u);
  EXPECT_EQ(result.cells()[2].scenario, "PDGR+pareto(2.50)");
  EXPECT_EQ(result.cells()[2].churn, "pareto(2.50)");
  // Streaming cells hold exactly n alive nodes after warm-up.
  EXPECT_DOUBLE_EQ(result.stats(0, 0).mean(), 100.0);
  EXPECT_DOUBLE_EQ(result.stats(1, 0).mean(), 200.0);
  EXPECT_EQ(result.stats(0, 0).count(), 3u);
}

TEST(Sweep, ProtocolAxisMultipliesTheGrid) {
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR"};
  spec.protocols = {"flood", "push(2)"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"final_fraction", "messages", "useful_deliveries",
                  "duplicate_deliveries"};
  spec.replications = 2;
  const SweepResult result = SweepService(spec, {.threads = 2}).run();
  ASSERT_EQ(result.cells().size(), 4u);
  // Protocol axis nests inside the scenario axis.
  EXPECT_EQ(result.cells()[0].protocol, "flood");
  EXPECT_EQ(result.cells()[1].protocol, "push(2)");
  EXPECT_EQ(result.cells()[0].scenario, "SDGR");
  EXPECT_EQ(result.cells()[1].scenario, "SDGR");
  EXPECT_EQ(result.cells()[2].scenario, "PDGR");
  // Message columns are populated: every informed node past the source is
  // one useful delivery, and messages dominate useful deliveries.
  for (std::size_t c = 0; c < result.cells().size(); ++c) {
    EXPECT_GT(result.stats(c, 1).mean(), 0.0) << c;       // messages
    EXPECT_GE(result.stats(c, 1).mean(),
              result.stats(c, 2).mean())
        << c;  // messages >= useful
  }
  // Gossip wastes messages on duplicates; flood under streaming dedup
  // accounts them too. Either way the duplicate column is meaningful.
  EXPECT_GT(result.stats(1, 3).mean(), 0.0);
}

TEST(Sweep, ScenarioCarriedProtocolsFlowIntoCells) {
  SweepSpec spec;
  spec.scenarios = {"PDGR+push(3)+lossy(0.9)"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"final_fraction", "lost_messages"};
  spec.replications = 2;
  const SweepResult result = SweepService(spec, {.threads = 1}).run();
  ASSERT_EQ(result.cells().size(), 1u);
  EXPECT_EQ(result.cells()[0].scenario, "PDGR+push(3)+lossy(0.90)");
  EXPECT_EQ(result.cells()[0].protocol, "push(3)+lossy(0.90)");
  // The lossy wrapper actually ran: losses were recorded.
  EXPECT_GT(result.stats(0, 1).mean(), 0.0);
  // An explicit protocol axis overrides the scenario's own protocol.
  spec.protocols = {"flood"};
  const SweepResult overridden = SweepService(spec, {.threads = 1}).run();
  EXPECT_EQ(overridden.cells()[0].protocol, "flood");
  EXPECT_DOUBLE_EQ(overridden.stats(0, 1).mean(), 0.0);
}

TEST(Sweep, FloodCellsMatchThePlainFloodDriver) {
  // The dissemination path is the only path sweeps use now; its flood
  // numbers must equal running the flood driver directly under the same
  // derive_seed routing (the bit-identity guarantee, observed end to end).
  SweepSpec spec;
  spec.scenarios = {"SDGR", "PDGR"};
  spec.n_values = {150};
  spec.d_values = {4};
  spec.metrics = {"completion_step", "final_fraction", "peak_informed"};
  spec.replications = 3;
  spec.base_seed = 4242;
  const SweepResult result = SweepService(spec, {.threads = 2}).run();
  for (std::size_t c = 0; c < result.cells().size(); ++c) {
    const Scenario scenario =
        ScenarioRegistry::extended().resolve(result.cells()[c].scenario);
    for (std::size_t r = 0; r < spec.replications; ++r) {
      ScenarioParams params;
      params.n = result.cells()[c].n;
      params.d = result.cells()[c].d;
      params.seed = derive_seed(spec.base_seed, c, r);
      AnyNetwork net = scenario.make_warmed(params);
      const FloodTrace trace = net.flood();
      const double expected_step =
          trace.completed ? static_cast<double>(trace.completion_step)
                          : std::nan("");
      const double actual_step = result.samples()[c][r][0];
      if (std::isnan(expected_step)) {
        EXPECT_TRUE(std::isnan(actual_step));
      } else {
        EXPECT_EQ(actual_step, expected_step) << c << " " << r;
      }
      EXPECT_EQ(result.samples()[c][r][1], trace.final_fraction);
      EXPECT_EQ(result.samples()[c][r][2],
                static_cast<double>(trace.peak_informed));
    }
  }
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  // Includes a protocol axis with randomized gossip + loss: protocol RNG
  // streams are derive_seed-routed per job, so even the message columns
  // are bit-identical at 1 and 8 threads.
  SweepSpec spec = small_spec();
  spec.protocols = {"flood", "push(2)+lossy(0.9)"};
  spec.metrics = {"alive", "completion_step", "messages", "lost_messages"};
  const SweepResult serial = SweepService(spec, {.threads = 1}).run();
  const SweepResult parallel = SweepService(spec, {.threads = 8}).run();
  ASSERT_EQ(serial.cells().size(), parallel.cells().size());
  for (std::size_t c = 0; c < serial.cells().size(); ++c) {
    for (std::size_t r = 0; r < spec.replications; ++r) {
      for (std::size_t m = 0; m < spec.metrics.size(); ++m) {
        const double a = serial.samples()[c][r][m];
        const double b = parallel.samples()[c][r][m];
        if (std::isnan(a)) {
          EXPECT_TRUE(std::isnan(b));
        } else {
          EXPECT_EQ(a, b) << "cell " << c << " rep " << r << " metric " << m;
        }
      }
    }
  }
  std::ostringstream csv_serial, csv_parallel;
  serial.write_csv(csv_serial);
  parallel.write_csv(csv_parallel);
  EXPECT_EQ(csv_serial.str(), csv_parallel.str());
}

TEST(Sweep, CsvIsTidyLongFormatWithCellStreamSeeds) {
  const SweepSpec spec = small_spec();
  const SweepResult result = SweepService(spec, {.threads = 2}).run();
  std::ostringstream os;
  result.write_csv(os);
  const std::string csv = os.str();

  EXPECT_EQ(
      csv.find("scenario,churn,protocol,n,d,replication,seed,metric,value"),
      0u);
  // One row per (cell, replication, metric) plus the header.
  std::size_t rows = 0;
  for (const char c : csv) rows += c == '\n' ? 1 : 0;
  EXPECT_EQ(rows, 1u + 4u * 3u * 2u);
  // Cell c, replication r runs under derive_seed(base, c, r): cell 2 is
  // the pareto scenario at n=100.
  const std::string expected_row =
      "PDGR+pareto(2.50),pareto(2.50),flood,100,4,1," +
      std::to_string(derive_seed(777, 2, 1)) + ",alive,";
  EXPECT_NE(csv.find(expected_row), std::string::npos) << csv;
}

TEST(Sweep, JsonSinkParsesBackAndSummarizes) {
  const SweepResult result = SweepService(small_spec(), {.threads = 2}).run();
  std::ostringstream os;
  result.write_json(os);

  std::string error;
  const auto json = JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(json.has_value()) << error;
  EXPECT_DOUBLE_EQ(json->find("replications")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(json->find("base_seed")->as_number(), 777.0);
  const JsonValue* cells = json->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 4u);
  const JsonValue& first = cells->items()[0];
  EXPECT_EQ(first.find("scenario")->as_string(), "SDGR");
  EXPECT_EQ(first.find("churn")->as_string(), "stream");
  EXPECT_EQ(first.find("protocol")->as_string(), "flood");
  const JsonValue* alive = first.find("metrics")->find("alive");
  ASSERT_NE(alive, nullptr);
  EXPECT_DOUBLE_EQ(alive->find("mean")->as_number(), 100.0);
  EXPECT_EQ(first.find("samples")->items().size(), 3u);
}

TEST(Sweep, CommaBearingChurnSpecsStayOneCsvColumn) {
  // "bursty(4,0.5)" contains commas: the scenario and churn fields must be
  // RFC-4180 quoted so every data row keeps exactly 9 columns.
  SweepSpec spec;
  spec.scenarios = {"PDGR+bursty(4,0.5)"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"alive"};
  spec.replications = 2;
  const SweepResult result = SweepService(spec, {.threads = 1}).run();
  std::ostringstream os;
  result.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find(
                "\"PDGR+bursty(4.00,0.50)\",\"bursty(4.00,0.50)\",flood,"),
            std::string::npos)
      << csv;
  // Count unquoted commas per data line: exactly 8 separators.
  std::size_t line_start = csv.find('\n') + 1;
  while (line_start < csv.size()) {
    const std::size_t line_end = csv.find('\n', line_start);
    ASSERT_NE(line_end, std::string::npos);
    int separators = 0;
    bool in_quotes = false;
    for (std::size_t i = line_start; i < line_end; ++i) {
      if (csv[i] == '"') in_quotes = !in_quotes;
      if (csv[i] == ',' && !in_quotes) ++separators;
    }
    EXPECT_EQ(separators, 8) << csv.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
  }
}

TEST(Sweep, TableHasOneRowPerCell) {
  const SweepResult result = SweepService(small_spec(), {.threads = 1}).run();
  EXPECT_EQ(result.to_table().row_count(), 4u);
}

TEST(SweepResult, NanSamplesAreExcludedFromStatsButKeptInSamples) {
  // NaN marks a missing observation (a run that never completed): the fold
  // keeps it in samples() and leaves it out of stats().
  SweepSpec spec;
  spec.scenarios = {"SDGR"};
  spec.n_values = {100};
  spec.d_values = {4};
  spec.metrics = {"alive", "completion_step"};
  spec.replications = 4;
  const SweepPlan plan(spec, ScenarioRegistry::paper());
  const double nan = std::nan("");
  const SweepResult result = plan.fold(
      {{100.0, 3.0}, {100.0, nan}, {100.0, 5.0}, {100.0, nan}}, 0.0, 1);
  EXPECT_EQ(result.stats(0, 0).count(), 4u);
  EXPECT_EQ(result.stats(0, 1).count(), 2u);
  EXPECT_DOUBLE_EQ(result.stats(0, 1).mean(), 4.0);
  ASSERT_EQ(result.samples()[0].size(), 4u);
  EXPECT_TRUE(std::isnan(result.samples()[0][1][1]));
  EXPECT_TRUE(std::isnan(result.samples()[0][3][1]));
}

// A worker frees its protocol scratch after a cell's last job: a flood
// job that follows a push(3) cell's last job holds no more than the flood
// job alone grows (a buffer never shrinks within a job, so that bounds
// what it held throughout), and after the flood cell's last job nothing
// is held. The scratch is thread-local, so each worker is a fresh thread.
TEST(SweepPlan, FloodAfterPushKeepsOnlyWhatTheFloodNeeds) {
  SweepSpec spec;
  spec.scenarios = {"SDGR+push(3)", "SDGR"};
  spec.n_values = {4000};
  spec.d_values = {8};
  spec.replications = 2;
  const SweepPlan plan(spec, ScenarioRegistry::paper());
  // Jobs 0 and 1 push, jobs 2 and 3 flood; jobs 1 and 3 end their cells.
  std::size_t flood_alone = 0;
  std::thread([&] {
    plan.run_job(2);
    flood_alone = SweepPlan::worker_protocol_bytes();
  }).join();
  std::size_t after_push = 0;
  std::size_t after_flood = 0;
  std::size_t after_cell = 1;
  std::thread([&] {
    plan.run_job(0);
    after_push = SweepPlan::worker_protocol_bytes();
    plan.run_job(1);
    plan.run_job(2);
    after_flood = SweepPlan::worker_protocol_bytes();
    plan.run_job(3);
    after_cell = SweepPlan::worker_protocol_bytes();
  }).join();
  EXPECT_GT(after_push, 3 * flood_alone);
  EXPECT_LE(after_flood, flood_alone);
  EXPECT_EQ(after_cell, 0u);
}

}  // namespace
}  // namespace churnet
