// Tests for benchutil/experiment.hpp.
#include "benchutil/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

namespace churnet {
namespace {

TEST(DeriveSeed, DeterministicAndDistinct) {
  EXPECT_EQ(derive_seed(1, 2, 3), derive_seed(1, 2, 3));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base = 0; base < 4; ++base) {
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
      for (std::uint64_t rep = 0; rep < 4; ++rep) {
        seeds.insert(derive_seed(base, stream, rep));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(Scaled, AppliesFactorWithFloor) {
  EXPECT_EQ(scaled(100, 1.0), 100u);
  EXPECT_EQ(scaled(100, 0.5), 50u);
  EXPECT_EQ(scaled(100, 4.0), 400u);
  EXPECT_EQ(scaled(1, 0.01), 1u);
  EXPECT_EQ(scaled(10, 0.01, 5), 5u);
}

TEST(ScaleFromCli, DefaultIsUnity) {
  Cli cli("test");
  add_standard_options(cli);
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  const BenchScale scale = scale_from_cli(cli);
  EXPECT_DOUBLE_EQ(scale.size_factor, 1.0);
  EXPECT_DOUBLE_EQ(scale.rep_factor, 1.0);
  EXPECT_EQ(seed_from_cli(cli), 12345u);
}

TEST(ScaleFromCli, QuickHalves) {
  Cli cli("test");
  add_standard_options(cli);
  const char* argv[] = {"prog", "--quick"};
  ASSERT_TRUE(cli.parse(2, argv));
  const BenchScale scale = scale_from_cli(cli);
  EXPECT_DOUBLE_EQ(scale.size_factor, 0.5);
  EXPECT_DOUBLE_EQ(scale.rep_factor, 0.5);
}

TEST(ScaleFromCli, FullQuadruplesAndRepsFactorStacks) {
  Cli cli("test");
  add_standard_options(cli);
  const char* argv[] = {"prog", "--full", "--reps-factor", "2.0"};
  ASSERT_TRUE(cli.parse(4, argv));
  const BenchScale scale = scale_from_cli(cli);
  EXPECT_DOUBLE_EQ(scale.size_factor, 4.0);
  EXPECT_DOUBLE_EQ(scale.rep_factor, 8.0);
}

TEST(Verdict, Strings) {
  EXPECT_EQ(verdict(true), "PASS");
  EXPECT_EQ(verdict(false), "FAIL");
}

TEST(ResultOutput, CsvAndJsonFlagsPersistRecordedTrials) {
  const std::string csv_path = ::testing::TempDir() + "churnet_results.csv";
  const std::string json_path = ::testing::TempDir() + "churnet_results.json";

  Cli cli("test");
  add_standard_options(cli);
  const std::string csv_arg = "--csv=" + csv_path;
  const std::string json_arg = "--json=" + json_path;
  const char* argv[] = {"prog", csv_arg.c_str(), json_arg.c_str()};
  ASSERT_TRUE(cli.parse(3, argv));
  (void)scale_from_cli(cli);  // arms the result log from --csv/--json

  TrialRunnerOptions options;
  options.replications = 3;
  options.base_seed = 5;
  options.stream = 2;
  record_trial("explicit", TrialRunner(options).run(
                               "metric_x", [](const TrialContext& ctx) {
                                 return static_cast<double>(ctx.replication);
                               }));
  flush_result_output();

  std::ifstream csv(csv_path);
  ASSERT_TRUE(csv.good());
  std::stringstream csv_text;
  csv_text << csv.rdbuf();
  EXPECT_NE(csv_text.str().find("label,stream,replication,seed,metric,value"),
            std::string::npos);
  EXPECT_NE(csv_text.str().find("explicit,2,1," +
                                std::to_string(derive_seed(5, 2, 1)) +
                                ",metric_x,1"),
            std::string::npos);

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream json_text;
  json_text << json.rdbuf();
  EXPECT_EQ(json_text.str().front(), '{');
  EXPECT_NE(json_text.str().find("\"label\":\"explicit\""),
            std::string::npos);
  EXPECT_NE(json_text.str().find("\"metric_x\":{\"count\":3"),
            std::string::npos);

  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
  // Disarm the log for any later tests in this process.
  Cli reset("test");
  add_standard_options(reset);
  const char* reset_argv[] = {"prog"};
  ASSERT_TRUE(reset.parse(1, reset_argv));
  configure_result_output(reset);
}

}  // namespace
}  // namespace churnet
