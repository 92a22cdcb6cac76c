#include <vector>
struct Vec3 {};
struct Constellation {
  void PositionsEcefInto(double t, std::vector<Vec3>* out) const;
};
struct SatelliteIndex {
  void Rebuild(const std::vector<Vec3>& sats, double radius_km);
};
void Sample(const Constellation& constellation, double duration, double step) {
  std::vector<Vec3> sats;
  SatelliteIndex index;
  for (double t = 0.0; t <= duration; t += step) {
    constellation.PositionsEcefInto(t, &sats);
    index.Rebuild(sats, 1000.0);
  }
}
