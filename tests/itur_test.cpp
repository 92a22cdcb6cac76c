#include "itur/slant_path.hpp"

#include <gtest/gtest.h>

#include "itur/p618.hpp"
#include "itur/p676.hpp"
#include "itur/p838.hpp"
#include "itur/p839.hpp"
#include "itur/p840.hpp"
#include "itur/scintillation.hpp"

namespace leosim::itur {
namespace {

TEST(P838Test, KnownTableValues) {
  const RainCoefficients c10 = P838Coefficients(10.0, Polarisation::kHorizontal);
  EXPECT_NEAR(c10.k, 0.01217, 1e-5);
  EXPECT_NEAR(c10.alpha, 1.2571, 1e-4);
  const RainCoefficients c20v = P838Coefficients(20.0, Polarisation::kVertical);
  EXPECT_NEAR(c20v.k, 0.09611, 1e-5);
  EXPECT_NEAR(c20v.alpha, 0.9847, 1e-4);
}

TEST(P838Test, CircularBetweenLinearPolarisations) {
  for (double f : {10.0, 14.25, 20.0, 30.0}) {
    const double kh = P838Coefficients(f, Polarisation::kHorizontal).k;
    const double kv = P838Coefficients(f, Polarisation::kVertical).k;
    const double kc = P838Coefficients(f, Polarisation::kCircular).k;
    EXPECT_GE(kc, std::min(kh, kv));
    EXPECT_LE(kc, std::max(kh, kv));
  }
}

TEST(P838Test, InterpolationIsMonotoneInBand) {
  double prev = 0.0;
  for (double f = 10.0; f <= 30.0; f += 0.5) {
    const double k = P838Coefficients(f, Polarisation::kCircular).k;
    EXPECT_GT(k, prev) << "f=" << f;
    prev = k;
  }
}

TEST(P838Test, OutOfRangeThrows) {
  EXPECT_THROW(P838Coefficients(0.5, Polarisation::kCircular), std::out_of_range);
  EXPECT_THROW(P838Coefficients(150.0, Polarisation::kCircular), std::out_of_range);
}

TEST(P838Test, SpecificAttenuationGrowsWithRainRate) {
  const double a = SpecificRainAttenuationDbPerKm(12.0, 10.0);
  const double b = SpecificRainAttenuationDbPerKm(12.0, 50.0);
  EXPECT_GT(b, a);
  EXPECT_GT(a, 0.0);
  EXPECT_DOUBLE_EQ(SpecificRainAttenuationDbPerKm(12.0, 0.0), 0.0);
}

TEST(P838Test, KuBandMagnitudeSane) {
  // At 12 GHz and 40 mm/h the specific attenuation is ~1.9 dB/km.
  const double gamma = SpecificRainAttenuationDbPerKm(12.0, 40.0);
  EXPECT_GT(gamma, 1.0);
  EXPECT_LT(gamma, 4.0);
}

TEST(P839Test, RainHeightOffset) {
  EXPECT_DOUBLE_EQ(RainHeightKm(5.0), 5.36);
  EXPECT_DOUBLE_EQ(RainHeightKm(0.0), 0.36);
}

TEST(P840Test, CoefficientIncreasesWithFrequency) {
  EXPECT_GT(CloudSpecificCoefficient(30.0), CloudSpecificCoefficient(12.0));
  EXPECT_GT(CloudSpecificCoefficient(12.0), 0.0);
}

TEST(P840Test, KuBandCoefficientMagnitude) {
  // P.840 Kl at ~12 GHz, 0 C is roughly 0.1 (dB/km)/(g/m^3).
  const double kl = CloudSpecificCoefficient(12.0, 273.15);
  EXPECT_GT(kl, 0.03);
  EXPECT_LT(kl, 0.3);
}

TEST(P840Test, LowerElevationMoreCloudAttenuation) {
  const double low = CloudAttenuationDb(12.0, 10.0, 1.0);
  const double high = CloudAttenuationDb(12.0, 80.0, 1.0);
  EXPECT_GT(low, high);
}

TEST(P676Test, OxygenPositiveAndSmallAtKuBand) {
  const double gamma = OxygenSpecificAttenuationDbPerKm(12.0);
  EXPECT_GT(gamma, 0.0);
  EXPECT_LT(gamma, 0.03);  // ~0.009 dB/km in the recommendation
}

TEST(P676Test, VapourPeaksNear22GHz) {
  const double at_22 = WaterVapourSpecificAttenuationDbPerKm(22.235, 10.0);
  const double at_12 = WaterVapourSpecificAttenuationDbPerKm(12.0, 10.0);
  const double at_30 = WaterVapourSpecificAttenuationDbPerKm(30.0, 10.0);
  EXPECT_GT(at_22, at_12);
  EXPECT_GT(at_22, at_30);
}

TEST(P676Test, MoreVapourMoreAttenuation) {
  EXPECT_GT(WaterVapourSpecificAttenuationDbPerKm(12.0, 20.0),
            WaterVapourSpecificAttenuationDbPerKm(12.0, 5.0));
}

TEST(P676Test, SlantGaseousCosecantBehaviour) {
  const double zenith = GaseousAttenuationDb(12.0, 90.0, 10.0);
  const double at_30 = GaseousAttenuationDb(12.0, 30.0, 10.0);
  EXPECT_NEAR(at_30, zenith * 2.0, zenith * 0.01);
}

TEST(P618Test, TropicalHeavierThanTemperate) {
  RainPathParams tropical;
  tropical.frequency_ghz = 12.0;
  tropical.elevation_deg = 40.0;
  tropical.latitude_deg = 2.0;
  tropical.rain_rate_001 = 90.0;
  tropical.rain_height_km = 5.36;

  RainPathParams temperate = tropical;
  temperate.latitude_deg = 48.0;
  temperate.rain_rate_001 = 30.0;
  temperate.rain_height_km = 3.6;

  EXPECT_GT(RainAttenuation001Db(tropical), RainAttenuation001Db(temperate));
}

TEST(P618Test, Ku001MagnitudeSane) {
  // Temperate Ku-band downlink at 30 deg elevation: A_0.01 typically
  // ~4-15 dB.
  RainPathParams params;
  params.frequency_ghz = 11.7;
  params.elevation_deg = 30.0;
  params.latitude_deg = 48.0;
  params.rain_rate_001 = 30.0;
  params.rain_height_km = 3.6;
  const double a001 = RainAttenuation001Db(params);
  EXPECT_GT(a001, 2.0);
  EXPECT_LT(a001, 20.0);
}

TEST(P618Test, AttenuationDecreasesWithExceedance) {
  RainPathParams params;
  params.frequency_ghz = 12.0;
  params.elevation_deg = 35.0;
  params.latitude_deg = 10.0;
  params.rain_rate_001 = 60.0;
  params.rain_height_km = 5.36;
  double prev = 1e9;
  for (double p : {0.01, 0.1, 0.5, 1.0, 3.0}) {
    const double a = RainAttenuationDb(params, p);
    EXPECT_LT(a, prev) << "p=" << p;
    EXPECT_GT(a, 0.0);
    prev = a;
  }
}

TEST(P618Test, ConsistentAt001) {
  RainPathParams params;
  params.frequency_ghz = 14.25;
  params.elevation_deg = 45.0;
  params.latitude_deg = -10.0;
  params.rain_rate_001 = 70.0;
  params.rain_height_km = 5.36;
  EXPECT_NEAR(RainAttenuationDb(params, 0.01), RainAttenuation001Db(params), 1e-9);
}

TEST(P618Test, NoRainBelowStation) {
  RainPathParams params;
  params.rain_height_km = 1.0;
  params.station_height_km = 2.0;
  EXPECT_DOUBLE_EQ(RainAttenuation001Db(params), 0.0);
}

TEST(ScintillationTest, PositiveAndDecreasingWithExceedance) {
  ScintillationParams params;
  params.frequency_ghz = 12.0;
  params.elevation_deg = 20.0;
  params.nwet = 80.0;
  const double deep = ScintillationFadeDb(params, 0.01);
  const double shallow = ScintillationFadeDb(params, 10.0);
  EXPECT_GT(deep, shallow);
  EXPECT_GE(shallow, 0.0);
  EXPECT_LT(deep, 5.0);  // sub-dB to a few dB at Ku band
}

TEST(ScintillationTest, WorseAtLowElevation) {
  ScintillationParams low;
  low.elevation_deg = 10.0;
  ScintillationParams high = low;
  high.elevation_deg = 60.0;
  EXPECT_GT(ScintillationFadeDb(low, 0.1), ScintillationFadeDb(high, 0.1));
}

TEST(SlantPathTest, TropicsWorseThanMidLatitudes) {
  const double singapore =
      SlantPathAttenuationDb({1.35, 103.8, 0.0}, 40.0, 14.25, 0.5);
  const double london = SlantPathAttenuationDb({51.5, -0.13, 0.0}, 40.0, 14.25, 0.5);
  EXPECT_GT(singapore, london);
}

TEST(SlantPathTest, BreakdownSumsConsistently) {
  const AttenuationBreakdown b =
      SlantPathAttenuation({10.0, 80.0, 0.0}, 35.0, 11.7, 0.5);
  EXPECT_GT(b.gas_db, 0.0);
  EXPECT_GT(b.cloud_db, 0.0);
  EXPECT_GT(b.rain_db, 0.0);
  EXPECT_GE(b.scintillation_db, 0.0);
  EXPECT_GE(b.total_db, b.gas_db);
  EXPECT_LE(b.total_db, b.gas_db + b.rain_db + b.cloud_db + b.scintillation_db + 1e-9);
}

TEST(SlantPathTest, PaperExceedanceMagnitudes) {
  // The paper's Fig. 8 reports ~5 dB for tropical hops and ~2.2 dB for the
  // end-point hops at 1% exceedance; our model should produce single-digit
  // dB values of the same order.
  const double tropics = SlantPathAttenuationDb({5.0, 110.0, 0.0}, 35.0, 14.25, 1.0);
  EXPECT_GT(tropics, 0.5);
  EXPECT_LT(tropics, 12.0);
}

TEST(SlantPathTest, ReceivedPowerFraction) {
  EXPECT_DOUBLE_EQ(ReceivedPowerFraction(0.0), 1.0);
  EXPECT_NEAR(ReceivedPowerFraction(3.0), 0.501, 0.001);
  EXPECT_NEAR(ReceivedPowerFraction(5.0), 0.316, 0.001);
  EXPECT_NEAR(ReceivedPowerFraction(1.0), 0.794, 0.001);  // the paper's "11%"
}

// Parameterized: total attenuation decreases monotonically with elevation
// for a fixed site and exceedance.
class ElevationMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(ElevationMonotoneTest, LowerElevationWorse) {
  const double el = GetParam();
  const geo::GeodeticCoord site{20.0, 75.0, 0.0};
  const double here = SlantPathAttenuationDb(site, el, 12.0, 0.5);
  const double higher = SlantPathAttenuationDb(site, el + 10.0, 12.0, 0.5);
  EXPECT_GT(here, higher);
}

INSTANTIATE_TEST_SUITE_P(Elevations, ElevationMonotoneTest,
                         ::testing::Values(10.0, 20.0, 30.0, 45.0, 60.0, 75.0));

}  // namespace
}  // namespace leosim::itur
