#include "flags.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace leosim::cli {
namespace {

TEST(CliFlagsTest, AppliesValuesInOrder) {
  StudyConfig config;
  EXPECT_EQ(ParseFlags({"--pairs=30", "--cities=400", "--spacing=4",
                        "--aircraft=0", "--snapshots=2", "--step=60.5",
                        "--csv=out/p", "--metrics-out=m.json", "--bp",
                        "--log-level=info"},
                       &config),
            "");
  EXPECT_EQ(config.num_pairs, 30);
  EXPECT_EQ(config.num_cities, 400);
  EXPECT_DOUBLE_EQ(config.relay_spacing_deg, 4.0);
  EXPECT_DOUBLE_EQ(config.aircraft_scale, 0.0);
  EXPECT_EQ(config.num_snapshots, 2);
  EXPECT_DOUBLE_EQ(config.step_sec, 60.5);
  EXPECT_EQ(config.csv_prefix, "out/p");
  EXPECT_EQ(config.metrics_out, "m.json");
  EXPECT_TRUE(config.bent_pipe);
  EXPECT_EQ(config.log_level, "info");
  EXPECT_FALSE(config.help);
}

TEST(CliFlagsTest, FullExpandsToPaperScaleAndLaterFlagsWin) {
  StudyConfig config;
  EXPECT_EQ(ParseFlags({"--full"}, &config), "");
  EXPECT_EQ(config.num_cities, 1000);
  EXPECT_EQ(config.num_pairs, 5000);
  EXPECT_DOUBLE_EQ(config.relay_spacing_deg, 0.5);
  EXPECT_EQ(config.num_snapshots, 96);
  EXPECT_DOUBLE_EQ(config.step_sec, 900.0);
  EXPECT_EQ(ParseFlags({"--full", "--pairs=7"}, &config), "");
  EXPECT_EQ(config.num_pairs, 7);
}

TEST(CliFlagsTest, HelpSetsTheHelpFlag) {
  for (const char* flag : {"--help", "-h"}) {
    StudyConfig config;
    EXPECT_EQ(ParseFlags({flag}, &config), "");
    EXPECT_TRUE(config.help) << flag;
  }
}

TEST(CliFlagsTest, RejectsUnknownFlags) {
  StudyConfig config;
  EXPECT_EQ(ParseFlags({"--pair=10"}, &config), "unknown flag --pair=10");
  EXPECT_EQ(ParseFlags({"--frob"}, &config), "unknown flag --frob");
  EXPECT_EQ(ParseFlags({"--bp=1"}, &config), "unknown flag --bp=1");
  EXPECT_EQ(ParseFlags({"positional"}, &config), "unknown flag positional");
}

TEST(CliFlagsTest, RejectsMalformedAndOutOfRangeValues) {
  const struct {
    const char* flag;
    const char* message;
  } cases[] = {
      {"--pairs=abc", "invalid value 'abc' for --pairs (expected an integer >= 0)"},
      {"--pairs=10x", "invalid value '10x' for --pairs (expected an integer >= 0)"},
      {"--pairs=-5", "invalid value '-5' for --pairs (expected an integer >= 0)"},
      {"--pairs=", "invalid value '' for --pairs (expected an integer >= 0)"},
      {"--pairs=2147483648",
       "invalid value '2147483648' for --pairs (expected an integer >= 0)"},
      {"--cities=1", "invalid value '1' for --cities (expected an integer >= 2)"},
      {"--snapshots=0",
       "invalid value '0' for --snapshots (expected an integer >= 1)"},
      {"--step=0", "invalid value '0' for --step (expected a number > 0)"},
      {"--step=nan", "invalid value 'nan' for --step (expected a number > 0)"},
      {"--step=inf", "invalid value 'inf' for --step (expected a number > 0)"},
      {"--step=1e999", "invalid value '1e999' for --step (expected a number > 0)"},
      {"--spacing=-1", "invalid value '-1' for --spacing (expected a number > 0)"},
      {"--aircraft=-0.5",
       "invalid value '-0.5' for --aircraft (expected a number >= 0)"},
      {"--progress=0", "invalid value '0' for --progress (expected a number > 0)"},
      {"--log-level=bogus",
       "invalid value 'bogus' for --log-level (expected off, error, warn, info "
       "or debug)"},
      {"--metrics-out=", "invalid value '' for --metrics-out (expected a path)"},
      // `leosim_cli trace` cannot be told to record into no directory.
      {"--trace-net-out=", "invalid value '' for --trace-net-out (expected a path)"},
  };
  for (const auto& c : cases) {
    StudyConfig config;
    EXPECT_EQ(ParseFlags({c.flag}, &config), c.message);
    // A rejected value leaves the default in place.
    EXPECT_EQ(config.num_pairs, StudyConfig().num_pairs) << c.flag;
    EXPECT_EQ(config.step_sec, StudyConfig().step_sec) << c.flag;
  }
}

TEST(CliFlagsTest, StopsAtTheFirstBadFlag) {
  StudyConfig config;
  EXPECT_EQ(ParseFlags({"--pairs=3", "--step=x", "--pairs=4"}, &config),
            "invalid value 'x' for --step (expected a number > 0)");
  EXPECT_EQ(config.num_pairs, 3);
}

TEST(CliFlagsTest, NumberParsersRequireTheWholeString) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-3"), -3);
  EXPECT_FALSE(ParseInt(""));
  EXPECT_FALSE(ParseInt("4 2"));
  EXPECT_FALSE(ParseInt("+4"));
  EXPECT_FALSE(ParseInt("99999999999"));
  EXPECT_EQ(ParseDouble("14.25"), 14.25);
  EXPECT_EQ(ParseDouble("1e2"), 100.0);
  EXPECT_FALSE(ParseDouble("14.25GHz"));
  EXPECT_FALSE(ParseDouble("nan"));
  EXPECT_FALSE(ParseDouble("-inf"));
}

TEST(CliFlagsTest, FlagsAreDoubleDashArgumentsAndDashH) {
  EXPECT_TRUE(IsFlag("--pairs=3"));
  EXPECT_TRUE(IsFlag("-h"));
  EXPECT_FALSE(IsFlag("-3"));
  EXPECT_FALSE(IsFlag("Paris"));
}

}  // namespace
}  // namespace leosim::cli
