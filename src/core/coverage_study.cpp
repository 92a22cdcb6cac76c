#include "core/coverage_study.hpp"

#include <algorithm>

#include "core/report.hpp"
#include "geo/geodesic.hpp"
#include "link/visibility.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

std::vector<CoverageRow> RunCoverageStudy(const std::vector<orbit::OrbitalShell>& shells,
                                          double min_elevation_deg,
                                          const CoverageStudyOptions& options) {
  const StudyTimer timer;
  orbit::Constellation constellation;
  double max_altitude_km = 0.0;
  for (const orbit::OrbitalShell& shell : shells) {
    constellation.AddShell(shell);
    max_altitude_km = std::max(max_altitude_km, shell.altitude_km);
  }
  const double coverage = geo::CoverageRadiusKm(max_altitude_km, min_elevation_deg);

  std::vector<CoverageRow> rows;
  rows.reserve(options.latitudes_deg.size());
  for (const double lat : options.latitudes_deg) {
    rows.push_back({lat, 0.0, 0.0});
  }

  std::vector<geo::Vec3> row_ecef;
  row_ecef.reserve(rows.size());
  for (const CoverageRow& row : rows) {
    row_ecef.push_back(
        geo::GeodeticToEcef({row.latitude_deg, options.longitude_deg, 0.0}));
  }

  int samples = 0;
  std::vector<geo::Vec3> sats;
  link::SatelliteIndex index;
  std::vector<int> visible;
  for (double t = 0.0; t <= options.duration_sec; t += options.step_sec) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, coverage + 100.0);
    ++samples;
    for (size_t i = 0; i < rows.size(); ++i) {
      CoverageRow& row = rows[i];
      index.VisibleInto(row_ecef[i], min_elevation_deg, &visible);
      row.mean_visible += static_cast<double>(visible.size());
      if (static_cast<int>(visible.size()) >= options.min_satellites) {
        row.availability += 1.0;
      }
    }
  }
  for (CoverageRow& row : rows) {
    row.mean_visible /= samples;
    row.availability /= samples;
  }
  StudySummary summary;
  summary.study = "coverage";
  summary.snapshots_built = static_cast<uint64_t>(samples);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return rows;
}

}  // namespace leosim::core
