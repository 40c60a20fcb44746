// Tests for benchutil/experiment.hpp.
#include "benchutil/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>

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

TEST(ScaleFromCli, RejectsARepsFactorThatIsNotFiniteAndPositive) {
  for (const char* factor : {"-1", "0", "nan", "inf"}) {
    Cli cli("test");
    add_standard_options(cli);
    const char* argv[] = {"prog", "--reps-factor", factor};
    ASSERT_TRUE(cli.parse(3, argv)) << factor;
    EXPECT_EXIT(scale_from_cli(cli), ::testing::ExitedWithCode(2),
                "option '--reps-factor' must be a finite number > 0")
        << factor;
  }
}

TEST(Scaled, RejectsACountPastTheBenchLimit) {
  EXPECT_EQ(scaled(std::uint64_t{1} << 52, 2.0),
            static_cast<std::uint64_t>(kMaxBenchCount));
  EXPECT_EXIT(scaled(8, 1e300), ::testing::ExitedWithCode(2),
              "must be in \\[0, 9007199254740992\\]");
  EXPECT_EXIT(scaled(8, std::nan("")), ::testing::ExitedWithCode(2),
              "check --reps-factor");
}

TEST(Verdict, Strings) {
  EXPECT_EQ(verdict(true), "PASS");
  EXPECT_EQ(verdict(false), "FAIL");
}

}  // namespace
}  // namespace churnet
