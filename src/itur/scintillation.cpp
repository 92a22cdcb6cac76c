#include "itur/scintillation.hpp"

#include <algorithm>
#include <cmath>

#include "geo/angles.hpp"

namespace leosim::itur {

namespace {

constexpr double kAntennaDiameterM = 0.7;
constexpr double kAntennaEfficiency = 0.5;

}  // namespace

double ScintillationFadeDb(const ScintillationParams& params, double exceedance_pct) {
  const double p = std::clamp(exceedance_pct, 0.01, 50.0);
  const double el = std::clamp(params.elevation_deg, 5.0, 90.0);
  const double sin_el = std::sin(geo::DegToRad(el));

  // Reference standard deviation from the wet refractivity.
  const double sigma_ref = 3.6e-3 + 1.0e-4 * params.nwet;  // dB

  // Effective turbulence path length (h_L = 1000 m).
  const double path_m = 2000.0 / (std::sqrt(sin_el * sin_el + 2.35e-4) + sin_el);

  // Antenna averaging factor.
  const double d_eff = kAntennaDiameterM * std::sqrt(kAntennaEfficiency);
  const double x = 1.22 * d_eff * d_eff * params.frequency_ghz / (path_m / 1000.0);
  double averaging = 0.0;
  if (x < 7.0) {
    const double inner = 3.86 * std::pow(x * x + 1.0, 11.0 / 12.0) *
                             std::sin(11.0 / 6.0 * std::atan(1.0 / x)) -
                         7.08 * std::pow(x, 5.0 / 6.0);
    averaging = inner > 0.0 ? std::sqrt(inner) : 0.0;
  }

  const double sigma = sigma_ref * std::pow(params.frequency_ghz, 7.0 / 12.0) *
                       averaging / std::pow(sin_el, 1.2);

  // Time-percentage factor.
  const double log_p = std::log10(p);
  const double a_p = -0.061 * log_p * log_p * log_p + 0.072 * log_p * log_p -
                     1.71 * log_p + 3.0;
  return std::max(a_p * sigma, 0.0);
}

}  // namespace leosim::itur
