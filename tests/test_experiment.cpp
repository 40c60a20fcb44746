// Tests for benchutil/experiment.hpp.
#include "benchutil/experiment.hpp"

#include <gtest/gtest.h>

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

TEST(Verdict, Strings) {
  EXPECT_EQ(verdict(true), "PASS");
  EXPECT_EQ(verdict(false), "FAIL");
}

}  // namespace
}  // namespace churnet
