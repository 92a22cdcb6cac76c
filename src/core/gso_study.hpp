// GSO arc-avoidance study (paper §7, Fig. 9): how much of a terminal's
// usable sky the GSO exclusion angle removes, as a function of latitude.
// Near the Equator only small shaded regions of elevation remain usable;
// at higher latitudes the GSO arc sits low in the southern sky and the
// exclusion barely bites.
#pragma once

#include <vector>

#include "link/gso.hpp"

namespace leosim::core {

struct GsoStudyOptions {
  double separation_deg{link::kStarlinkGsoSeparationDeg};
  // Sky-dome sampling resolution.
  double azimuth_step_deg{3.0};
  double elevation_step_deg{1.5};
};

struct GsoStudyRow {
  double latitude_deg{0.0};
  // Fraction of the usable sky dome (elevation >= 40 deg, Starlink's
  // full-deployment minimum) lost to the exclusion, solid-angle weighted.
  double excluded_sky_fraction{0.0};
};

std::vector<GsoStudyRow> RunGsoArcStudy(const std::vector<double>& latitudes_deg,
                                        const GsoStudyOptions& options);

}  // namespace leosim::core
