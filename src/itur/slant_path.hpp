// Total atmospheric attenuation on a ground-satellite slant path — the
// leosim equivalent of ITU-Rpy's `atmospheric_attenuation_slant_path`
// (paper §6). Combines gaseous (P.676), cloud (P.840), rain (P.618/838/839)
// and tropospheric scintillation per P.618 §2.5, with climatological inputs
// drawn from the synthetic climate fields (data/climate.hpp).
#pragma once

#include "geo/coordinates.hpp"

namespace leosim::itur {

struct AttenuationBreakdown {
  double gas_db{0.0};
  double cloud_db{0.0};
  double rain_db{0.0};
  double scintillation_db{0.0};
  double total_db{0.0};
};

// Attenuation exceeded `exceedance_pct` percent of an average year on the
// path from the ground point `gt` to a satellite seen at `elevation_deg`,
// at `frequency_ghz`, for a consumer terminal (see ScintillationFadeDb).
// Exceedance is clamped to [0.001, 5] (the P.618 validity range); the
// paper's headline statistic uses 0.5% (the "99.5th percentile").
AttenuationBreakdown SlantPathAttenuation(const geo::GeodeticCoord& gt,
                                          double elevation_deg,
                                          double frequency_ghz,
                                          double exceedance_pct);

// Convenience: total dB only.
double SlantPathAttenuationDb(const geo::GeodeticCoord& gt, double elevation_deg,
                              double frequency_ghz, double exceedance_pct);

// Fraction of transmitted power that survives `attenuation_db`.
double ReceivedPowerFraction(double attenuation_db);

}  // namespace leosim::itur
