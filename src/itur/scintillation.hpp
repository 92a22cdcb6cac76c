// Tropospheric scintillation fading (ITU-R P.618 §2.4.1).
#pragma once

namespace leosim::itur {

struct ScintillationParams {
  double frequency_ghz{12.0};
  double elevation_deg{30.0};
  double nwet{50.0};  // wet refractivity, N-units
};

// Scintillation fade depth (dB) exceeded `exceedance_pct` percent of the
// time, for exceedance in [0.01, 50], at a consumer-scale terminal: a
// 0.7 m antenna of 50% efficiency.
double ScintillationFadeDb(const ScintillationParams& params, double exceedance_pct);

}  // namespace leosim::itur
