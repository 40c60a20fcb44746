// Tests for common/table.hpp and common/cli.hpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"

namespace churnet {
namespace {

TEST(Formatting, FixedAndScientific) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(2.0, 0), "2");
  EXPECT_EQ(fmt_sci(12345.678, 2), "1.23e+04");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_percent(0.1234, 1), "12.3%");
}

TEST(Table, RenderAlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.render();
  // Header, rule, two rows.
  int lines = 0;
  for (const char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(Table, RowCount) {
  Table table({"a"});
  EXPECT_EQ(table.row_count(), 0u);
  table.add_row({"1"});
  table.add_row({"2"});
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table table({"a", "b"});
  table.add_row({"1", "2"});
  std::ostringstream out;
  table.write_csv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(Table, PrintMatchesRender) {
  Table table({"h"});
  table.add_row({"v"});
  std::ostringstream out;
  table.print(out);
  EXPECT_EQ(out.str(), table.render());
}

class CliTest : public ::testing::Test {
 protected:
  Cli make_cli() {
    Cli cli("test program");
    cli.add_int("n", 100, "network size");
    cli.add_double("rate", 0.5, "a rate");
    cli.add_string("mode", "fast", "a mode");
    cli.add_flag("verbose", "chatty output");
    return cli;
  }
};

TEST_F(CliTest, DefaultsWhenNoArguments) {
  Cli cli = make_cli();
  const char* argv[] = {"prog"};
  EXPECT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.5);
  EXPECT_EQ(cli.get_string("mode"), "fast");
  EXPECT_FALSE(cli.get_flag("verbose"));
}

TEST_F(CliTest, SpaceSeparatedValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "42", "--rate", "1.25"};
  EXPECT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.25);
}

TEST_F(CliTest, EqualsSeparatedValues) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n=7", "--mode=slow"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
  EXPECT_EQ(cli.get_string("mode"), "slow");
}

TEST_F(CliTest, FlagsToggle) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--verbose"};
  EXPECT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_flag("verbose"));
}

TEST_F(CliTest, HelpReturnsFalse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST_F(CliTest, NegativeNumbersParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "-5"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), -5);
}

TEST_F(CliTest, Int64ExtremesParse) {
  Cli cli = make_cli();
  const char* argv[] = {"prog", "--n", "9223372036854775807"};
  EXPECT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), INT64_MAX);
  const char* low[] = {"prog", "--n=-9223372036854775808"};
  EXPECT_TRUE(cli.parse(2, low));
  EXPECT_EQ(cli.get_int("n"), INT64_MIN);
}

TEST_F(CliTest, MalformedIntegersExitTwoNamingOptionAndText) {
  // Text, trailing junk, past INT64_MAX, empty, leading blank, a fraction.
  for (const char* text : {"abc", "12x", "9223372036854775808", "", " 7",
                           "1e6", "4.0"}) {
    Cli cli = make_cli();
    const std::string arg = std::string("--n=") + text;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(2),
                "option '--n' needs a whole base-10 integer in int64 range, "
                "got '" + std::string(text) + "'")
        << text;
  }
}

TEST_F(CliTest, MalformedDoublesExitTwoNamingOptionAndText) {
  for (const char* text : {"abc", "1.5x", "", "0.5 "}) {
    Cli cli = make_cli();
    const std::string arg = std::string("--rate=") + text;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(2),
                "option '--rate' needs a number, got '" + std::string(text) +
                    "'")
        << text;
  }
}

TEST_F(CliTest, CheckedIntegerAccessorEnforcesItsRange) {
  Cli cli = make_cli();
  const char* edge[] = {"prog", "--n", "1024"};
  ASSERT_TRUE(cli.parse(3, edge));
  EXPECT_EQ(cli.get_int_in("n", 0, 1024), 1024);
  for (const char* text : {"5000000000", "-1", "1025"}) {
    Cli bad = make_cli();
    const char* argv[] = {"prog", "--n", text};
    ASSERT_TRUE(bad.parse(3, argv));
    EXPECT_EXIT(bad.get_int_in("n", 0, 1024), ::testing::ExitedWithCode(2),
                "option '--n' must be an integer in \\[0, 1024\\], got '" +
                    std::string(text) + "'")
        << text;
  }
}

}  // namespace
}  // namespace churnet
