// Randomized property test: the cell-hashed SatelliteIndex must agree
// exactly with the brute-force visibility scan for arbitrary ground
// points — including the poles and the antimeridian, where the index's
// longitude wrapping and polar cell handling earn their keep — for both
// paper constellations' coverage radii. Seeded std::mt19937 (fixed
// seed), so failures reproduce deterministically.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "link/visibility.hpp"
#include "orbit/walker.hpp"

namespace leosim::link {
namespace {

struct ShellCase {
  const char* name;
  orbit::OrbitalShell shell;
  double min_elevation_deg;
};

std::vector<ShellCase> ShellCases() {
  return {{"starlink", orbit::StarlinkShell1(), 25.0},
          {"kuiper", orbit::KuiperShell1(), 30.0}};
}

// Ground points that historically break lat/lon cell hashes: both poles,
// the antimeridian at several latitudes, and the exact +/-180 seam.
std::vector<geo::GeodeticCoord> AdversarialPoints() {
  return {{90.0, 0.0, 0.0},      {-90.0, 0.0, 0.0},    {89.9, 45.0, 0.0},
          {-89.9, -135.0, 0.0},  {0.0, 180.0, 0.0},    {0.0, -180.0, 0.0},
          {51.3, 179.99, 0.0},   {51.3, -179.99, 0.0}, {-44.5, 180.0, 0.0},
          {66.5, -179.5, 0.0},   {-66.5, 179.5, 0.0},  {0.0, 0.0, 0.0}};
}

TEST(VisibilityPropertyTest, IndexMatchesBruteForceOnRandomAndAdversarialPoints) {
  std::mt19937 rng(20260805u);
  // sin(lat) uniform => points uniform on the sphere (no polar clumping,
  // but the adversarial list covers the poles explicitly anyway).
  std::uniform_real_distribution<double> sin_lat(-1.0, 1.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  std::uniform_real_distribution<double> time_sec(0.0, 5400.0);

  for (const ShellCase& sc : ShellCases()) {
    const auto constellation = orbit::Constellation::WalkerDelta(sc.shell);
    const double radius_km =
        IndexSearchRadiusKm(sc.shell.altitude_km, sc.min_elevation_deg);

    std::vector<geo::Vec3> sats;
    SatelliteIndex index;
    std::vector<int> indexed;
    for (int round = 0; round < 3; ++round) {
      constellation.PositionsEcefInto(time_sec(rng), &sats);
      index.Rebuild(sats, radius_km);

      std::vector<geo::GeodeticCoord> probes = AdversarialPoints();
      for (int i = 0; i < 40; ++i) {
        const double lat =
            geo::RadToDeg(std::asin(sin_lat(rng)));
        probes.push_back({lat, lon(rng), 0.0});
      }

      for (const geo::GeodeticCoord& probe : probes) {
        const geo::Vec3 gt = geo::GeodeticToEcef(probe);
        const std::vector<int> brute =
            VisibleSatellitesBruteForce(gt, sats, sc.min_elevation_deg);
        index.VisibleInto(gt, sc.min_elevation_deg, &indexed);
        EXPECT_EQ(brute, indexed)
            << sc.name << " round=" << round << " lat=" << probe.latitude_deg
            << " lon=" << probe.longitude_deg;
      }
    }
  }
}

TEST(VisibilityPropertyTest, RebuildMatchesFreshIndex) {
  // Reusing one index across rebuilds must behave exactly like
  // constructing a fresh index per snapshot.
  const auto constellation =
      orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
  const double radius_km = IndexSearchRadiusKm(550.0, 25.0);
  const geo::Vec3 gt = geo::GeodeticToEcef({47.4, -122.3, 0.0});

  SatelliteIndex reused;
  for (const double t : {0.0, 930.0, 1860.0}) {
    const std::vector<geo::Vec3> sats = constellation.PositionsEcef(t);
    reused.Rebuild(sats, radius_km);
    const SatelliteIndex fresh(sats, radius_km);
    EXPECT_EQ(fresh.Visible(gt, 25.0), reused.Visible(gt, 25.0)) << "t=" << t;
  }
}

}  // namespace
}  // namespace leosim::link
