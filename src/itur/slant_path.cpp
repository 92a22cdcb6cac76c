#include "itur/slant_path.hpp"

#include <algorithm>
#include <cmath>

#include "data/climate.hpp"
#include "itur/p618.hpp"
#include "itur/p676.hpp"
#include "itur/p839.hpp"
#include "itur/p840.hpp"
#include "itur/scintillation.hpp"

namespace leosim::itur {

AttenuationBreakdown SlantPathAttenuation(const geo::GeodeticCoord& gt,
                                          double elevation_deg,
                                          double frequency_ghz,
                                          double exceedance_pct) {
  const double p = std::clamp(exceedance_pct, 0.001, 5.0);
  const double lat = gt.latitude_deg;
  const double lon = gt.longitude_deg;

  AttenuationBreakdown out;

  const double temperature = data::SurfaceTemperatureK(lat, lon);
  const double vapour = data::WaterVapourDensityGPerM3(lat, lon);
  out.gas_db = GaseousAttenuationDb(frequency_ghz, elevation_deg, vapour, temperature);

  out.cloud_db = CloudAttenuationDb(frequency_ghz, elevation_deg,
                                    data::CloudLiquidWaterKgPerM2(lat, lon));

  RainPathParams rain;
  rain.frequency_ghz = frequency_ghz;
  rain.elevation_deg = elevation_deg;
  rain.latitude_deg = lat;
  rain.station_height_km = std::max(gt.altitude_km, 0.0);
  rain.rain_rate_001 = data::RainRate001MmPerHour(lat, lon);
  rain.rain_height_km = RainHeightKm(data::ZeroDegreeIsothermKm(lat, lon));
  out.rain_db = RainAttenuationDb(rain, p);

  ScintillationParams scint;
  scint.frequency_ghz = frequency_ghz;
  scint.elevation_deg = elevation_deg;
  scint.nwet = data::WetRefractivityNUnits(lat, lon);
  out.scintillation_db = ScintillationFadeDb(scint, p);

  // P.618 §2.5 combination: gas + sqrt((rain + cloud)^2 + scint^2).
  out.total_db =
      out.gas_db + std::sqrt((out.rain_db + out.cloud_db) * (out.rain_db + out.cloud_db) +
                             out.scintillation_db * out.scintillation_db);
  return out;
}

double SlantPathAttenuationDb(const geo::GeodeticCoord& gt, double elevation_deg,
                              double frequency_ghz, double exceedance_pct) {
  return SlantPathAttenuation(gt, elevation_deg, frequency_ghz, exceedance_pct).total_db;
}

double ReceivedPowerFraction(double attenuation_db) {
  return std::pow(10.0, -attenuation_db / 10.0);
}

}  // namespace leosim::itur
