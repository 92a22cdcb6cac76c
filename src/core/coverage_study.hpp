// Service coverage and availability by latitude: what fraction of time a
// terminal sees at least one satellite, and the mean number in view.
// Explains the paper's geography — Starlink's 53-degree shell serves
// mid-latitudes densely, the Equator thinly, and nothing above ~57
// degrees — which in turn shapes every BP-vs-ISL comparison.
#pragma once

#include <vector>

#include "orbit/walker.hpp"

namespace leosim::core {

struct CoverageStudyOptions {
  std::vector<double> latitudes_deg{0,  10, 20, 30, 40, 45, 50, 53, 56, 60};
  double duration_sec{5700.0};  // ~one orbital period
  double step_sec{60.0};
};

struct CoverageRow {
  double latitude_deg{0.0};
  double mean_visible{0.0};
  double availability{0.0};  // fraction of samples with a satellite in view
};

// A terminal at each of options.latitudes_deg (longitude 10 deg E),
// seeing the satellites of every shell in `shells` above
// `min_elevation_deg`; the visibility search radius is the highest
// shell's coverage radius.
std::vector<CoverageRow> RunCoverageStudy(const std::vector<orbit::OrbitalShell>& shells,
                                          double min_elevation_deg,
                                          const CoverageStudyOptions& options);

}  // namespace leosim::core
