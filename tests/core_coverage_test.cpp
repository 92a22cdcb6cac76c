#include "core/coverage_study.hpp"

#include <gtest/gtest.h>

#include "core/scenario.hpp"
#include "geo/coordinates.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {
namespace {

CoverageStudyOptions FastOptions() {
  CoverageStudyOptions options;
  options.duration_sec = 1800.0;
  options.step_sec = 120.0;
  return options;
}

std::vector<CoverageRow> StarlinkCoverage(const CoverageStudyOptions& options) {
  const Scenario starlink = Scenario::Starlink();
  return RunCoverageStudy({starlink.shell}, starlink.radio.min_elevation_deg,
                          options);
}

TEST(CoverageStudyTest, MidLatitudesAlwaysCovered) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {30.0, 45.0, 50.0};
  const auto rows = StarlinkCoverage(options);
  for (const CoverageRow& row : rows) {
    EXPECT_DOUBLE_EQ(row.availability, 1.0) << row.latitude_deg;
    EXPECT_GT(row.mean_visible, 2.0) << row.latitude_deg;
  }
}

TEST(CoverageStudyTest, NoCoverageWellAboveInclination) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {75.0};
  const auto rows = StarlinkCoverage(options);
  EXPECT_DOUBLE_EQ(rows[0].availability, 0.0);
  EXPECT_DOUBLE_EQ(rows[0].mean_visible, 0.0);
}

TEST(CoverageStudyTest, DensityPeaksNearInclinationLatitude) {
  CoverageStudyOptions options = FastOptions();
  options.latitudes_deg = {0.0, 53.0};
  const auto rows = StarlinkCoverage(options);
  EXPECT_GT(rows[1].mean_visible, 2.0 * rows[0].mean_visible);
}

TEST(StarlinkGen1Test, ShellRosterMatchesFilings) {
  const auto shells = orbit::StarlinkGen1AllShells();
  ASSERT_EQ(shells.size(), 5u);
  int total = 0;
  for (const auto& s : shells) {
    total += s.TotalSatellites();
  }
  // 1584 + 1584 + 720 + 348 + 172 = 4408.
  EXPECT_EQ(total, 4408);
  EXPECT_DOUBLE_EQ(shells[0].inclination_deg, 53.0);
  EXPECT_DOUBLE_EQ(shells[2].inclination_deg, 70.0);
  EXPECT_DOUBLE_EQ(shells[3].inclination_deg, 97.6);
}

TEST(StarlinkGen1Test, PolarShellsCoverHighLatitudes) {
  orbit::Constellation all;
  for (const auto& s : orbit::StarlinkGen1AllShells()) {
    all.AddShell(s);
  }
  // Some satellite reaches beyond 80 degrees latitude.
  double max_lat = 0.0;
  for (const auto& p : all.PositionsEcef(0.0)) {
    max_lat = std::max(max_lat, geo::EcefToGeodetic(p).latitude_deg);
  }
  EXPECT_GT(max_lat, 80.0);
}

}  // namespace
}  // namespace leosim::core
