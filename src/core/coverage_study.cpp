#include "core/coverage_study.hpp"

#include "core/report.hpp"
#include "core/temporal_sweep.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

namespace {

// Every terminal sits on this meridian.
constexpr double kTerminalLongitudeDeg = 10.0;

}  // namespace

std::vector<CoverageRow> RunCoverageStudy(const std::vector<orbit::OrbitalShell>& shells,
                                          double min_elevation_deg,
                                          const CoverageStudyOptions& options) {
  const StudyTimer timer;
  orbit::Constellation constellation;
  for (const orbit::OrbitalShell& shell : shells) {
    constellation.AddShell(shell);
  }
  std::vector<CoverageRow> rows;
  std::vector<geo::Vec3> row_ecef;
  for (const double lat : options.latitudes_deg) {
    rows.push_back({lat, 0.0, 0.0});
    row_ecef.push_back(geo::GeodeticToEcef({lat, kTerminalLongitudeDeg, 0.0}));
  }
  std::vector<double> times;
  for (int i = 0; i * options.step_sec <= options.duration_sec; ++i) {
    times.push_back(i * options.step_sec);
  }
  const std::vector<std::vector<std::vector<int>>> visible_at =
      SampleVisibility("coverage", constellation, min_elevation_deg, row_ecef, times);
  for (const std::vector<std::vector<int>>& visible : visible_at) {
    for (size_t i = 0; i < rows.size(); ++i) {
      rows[i].mean_visible += static_cast<double>(visible[i].size());
      if (!visible[i].empty()) {
        rows[i].availability += 1.0;
      }
    }
  }
  for (CoverageRow& row : rows) {
    row.mean_visible /= times.size();
    row.availability /= times.size();
  }
  StudySummary summary;
  summary.study = "coverage";
  summary.snapshots_built = times.size();
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return rows;
}

}  // namespace leosim::core
