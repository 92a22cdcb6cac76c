#include "orbit/tle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "geo/coordinates.hpp"
#include "orbit/elements.hpp"

namespace leosim::orbit {
namespace {

// The canonical ISS element set used in the SGP4 literature (Vallado et
// al.); both lines carry checksum 7.
constexpr const char* kIssLine1 =
    "1 25544U 98067A   08264.51782528 -.00002182  00000-0 -11606-4 0  2927";
constexpr const char* kIssLine2 =
    "2 25544  51.6416 247.4627 0006703 130.5360 325.0288 15.72125391563537";

// Builds a valid near-circular TLE pair with correct checksums.
std::pair<std::string, std::string> SyntheticTle(int catalog, double incl,
                                                 double raan, double mean_anomaly,
                                                 double mean_motion) {
  char line1[70];
  char line2[70];
  std::snprintf(line1, sizeof(line1),
                "1 %05dU 20001A   20001.00000000  .00000000  00000-0  00000-0 0  999",
                catalog);
  std::snprintf(line2, sizeof(line2),
                "2 %05d %8.4f %8.4f 0001000 000.0000 %8.4f %11.8f    1",
                catalog, incl, raan, mean_anomaly, mean_motion);
  std::string l1(line1);
  std::string l2(line2);
  l1 += static_cast<char>('0' + TleChecksum(l1));
  l2 += static_cast<char>('0' + TleChecksum(l2));
  return {l1, l2};
}

TEST(TleTest, ChecksumOfRealLines) {
  EXPECT_EQ(TleChecksum(kIssLine1), 7);
  EXPECT_EQ(TleChecksum(kIssLine2), 7);
}

TEST(TleTest, ParsesIssElements) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2, "ISS (ZARYA)");
  EXPECT_EQ(tle.name, "ISS (ZARYA)");
  EXPECT_EQ(tle.catalog_number, 25544);
  EXPECT_EQ(tle.epoch_year, 2008);
  EXPECT_NEAR(tle.epoch_day, 264.51782528, 1e-8);
  EXPECT_NEAR(tle.inclination_deg, 51.6416, 1e-4);
  EXPECT_NEAR(tle.raan_deg, 247.4627, 1e-4);
  EXPECT_NEAR(tle.eccentricity, 0.0006703, 1e-7);
  EXPECT_NEAR(tle.arg_perigee_deg, 130.5360, 1e-4);
  EXPECT_NEAR(tle.mean_anomaly_deg, 325.0288, 1e-4);
  EXPECT_NEAR(tle.mean_motion_rev_per_day, 15.72125391, 1e-8);
}

TEST(TleTest, IssAltitudePlausible) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2);
  // ISS orbits at roughly 340-360 km (this epoch was a low phase).
  EXPECT_GT(tle.AltitudeKm(), 300.0);
  EXPECT_LT(tle.AltitudeKm(), 400.0);
}

TEST(TleTest, CircularElementsCombineAnomalyAndPerigee) {
  const Tle tle = ParseTle(kIssLine1, kIssLine2);
  const CircularOrbitElements e = tle.ToCircularElements();
  EXPECT_NEAR(e.arg_latitude_epoch_deg,
              std::fmod(130.5360 + 325.0288, 360.0), 1e-6);
  EXPECT_NEAR(e.inclination_deg, 51.6416, 1e-4);
}

TEST(TleTest, RejectsCorruptedChecksum) {
  std::string bad = kIssLine1;
  bad[68] = '3';
  EXPECT_THROW(ParseTle(bad, kIssLine2), std::invalid_argument);
}

TEST(TleTest, RejectsWrongTagAndShortLines) {
  EXPECT_THROW(ParseTle(kIssLine2, kIssLine2), std::invalid_argument);
  EXPECT_THROW(ParseTle("1 25544U", kIssLine2), std::invalid_argument);
}

TEST(TleTest, RejectsEccentricOrbit) {
  // A Molniya-like eccentricity (0.74) must be refused by the circular model.
  std::string line2 = kIssLine2;
  line2.replace(26, 7, "7400000");
  line2[68] = static_cast<char>('0' + TleChecksum(line2));
  EXPECT_THROW(ParseTle(kIssLine1, line2), std::invalid_argument);
}

// kIssLine2 with `text` over columns [first, first + size) (1-indexed)
// and a recomputed checksum.
std::string IssLine2With(int first, const std::string& text) {
  std::string line2 = kIssLine2;
  line2.replace(static_cast<size_t>(first - 1), text.size(), text);
  line2[68] = static_cast<char>('0' + TleChecksum(line2));
  return line2;
}

TEST(TleTest, RejectsNonIntegerCatalogNumber) {
  for (const char* field : {"  nan", " 9e99", "  1.5", "  inf", " -123", "12 34"}) {
    EXPECT_THROW(ParseTle(kIssLine1, IssLine2With(3, field)), std::invalid_argument)
        << "catalog field '" << field << "'";
  }
}

TEST(TleTest, RejectsNonFiniteAndTrailingReals) {
  for (const char* field : {"     nan", "     inf", "51.6x16", "1e999999"}) {
    EXPECT_THROW(ParseTle(kIssLine1, IssLine2With(9, field)), std::invalid_argument)
        << "inclination field '" << field << "'";
  }
}

TEST(TleTest, AcceptsExplicitPlusAndBareFraction) {
  EXPECT_EQ(ParseTle(kIssLine1, IssLine2With(3, "+5544")).catalog_number, 5544);
  EXPECT_DOUBLE_EQ(ParseTle(kIssLine1, IssLine2With(18, "-.500000")).raan_deg, -0.5);
  EXPECT_THROW(ParseTle(kIssLine1, IssLine2With(3, "+-554")), std::invalid_argument);
}

TEST(TleTest, SyntheticRoundTrip) {
  // 15.05 rev/day ~ 550 km.
  const auto [l1, l2] = SyntheticTle(44713, 53.0, 120.0, 45.0, 15.05);
  const Tle tle = ParseTle(l1, l2);
  EXPECT_EQ(tle.catalog_number, 44713);
  EXPECT_NEAR(tle.inclination_deg, 53.0, 1e-4);
  EXPECT_NEAR(tle.AltitudeKm(), 550.0, 25.0);
}

TEST(TleTest, CatalogParsing3LineFormat) {
  const auto [a1, a2] = SyntheticTle(44713, 53.0, 0.0, 0.0, 15.05);
  const auto [b1, b2] = SyntheticTle(44714, 53.0, 5.0, 16.36, 15.05);
  const std::string text = "STARLINK-1007\n" + a1 + "\n" + a2 +
                           "\nSTARLINK-1008\n" + b1 + "\n" + b2 + "\n";
  const std::vector<Tle> tles = ParseTleCatalog(text);
  ASSERT_EQ(tles.size(), 2u);
  EXPECT_EQ(tles[0].name, "STARLINK-1007");
  EXPECT_EQ(tles[1].name, "STARLINK-1008");
  EXPECT_EQ(tles[1].catalog_number, 44714);
}

TEST(TleTest, CatalogParsing2LineFormat) {
  const auto [a1, a2] = SyntheticTle(1, 53.0, 0.0, 0.0, 15.05);
  const auto [b1, b2] = SyntheticTle(2, 97.5, 10.0, 0.0, 14.8);
  const std::vector<Tle> tles =
      ParseTleCatalog(a1 + "\n" + a2 + "\n" + b1 + "\n" + b2);
  ASSERT_EQ(tles.size(), 2u);
  EXPECT_TRUE(tles[0].name.empty());
}

TEST(TleTest, ConstellationFromCatalog) {
  std::string text;
  const int count = 24;
  for (int i = 0; i < count; ++i) {
    const auto [l1, l2] =
        SyntheticTle(1000 + i, 53.0, i * 15.0, i * 15.0, 15.05);
    text += l1 + "\n" + l2 + "\n";
  }
  const std::vector<Tle> tles = ParseTleCatalog(text);
  const Constellation c = ConstellationFromTles(tles);
  EXPECT_EQ(c.NumSatellites(), count);
  EXPECT_EQ(c.NumShells(), 1);
  EXPECT_NEAR(c.shell(0).altitude_km, 550.0, 25.0);
  // Satellites propagate on distinct orbits at the common altitude.
  const auto positions = c.PositionsEcef(600.0);
  for (const auto& p : positions) {
    EXPECT_NEAR(p.Norm() - geo::kEarthRadiusKm, c.shell(0).altitude_km, 30.0);
  }
  EXPECT_THROW(ConstellationFromTles({}), std::invalid_argument);
}

// Fuzz-style robustness: random single-character corruptions of valid
// lines must either parse (if the corruption is benign, e.g. in padding)
// or throw std::invalid_argument — never crash or mis-parse silently into
// absurd elements.
class TleFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(TleFuzzTest, CorruptedLinesThrowOrParseSanely) {
  const int seed = GetParam();
  uint64_t x = 0x1234567ULL * static_cast<uint64_t>(seed + 1);
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::string l1 = kIssLine1;
  std::string l2 = kIssLine2;
  std::string& target = (next() % 2 == 0) ? l1 : l2;
  const size_t pos = next() % target.size();
  const char replacement = static_cast<char>(' ' + next() % 95);
  target[pos] = replacement;
  try {
    const Tle tle = ParseTle(l1, l2);
    // If it parsed, the elements must still be physically plausible.
    EXPECT_GE(tle.inclination_deg, 0.0);
    EXPECT_LE(tle.inclination_deg, 180.0);
    EXPECT_GT(tle.mean_motion_rev_per_day, 0.0);
  } catch (const std::invalid_argument&) {
    // Expected for most corruptions (checksum or field failure).
  }
}

INSTANTIATE_TEST_SUITE_P(RandomCorruptions, TleFuzzTest, ::testing::Range(0, 60));

TEST(TleTest, FromElementsValidatesCounts) {
  OrbitalShell metadata;
  metadata.num_planes = 2;
  metadata.sats_per_plane = 2;
  const std::vector<CircularOrbitElements> three(3);
  EXPECT_THROW(Constellation::FromElements(metadata, three), std::invalid_argument);
}

}  // namespace
}  // namespace leosim::orbit
