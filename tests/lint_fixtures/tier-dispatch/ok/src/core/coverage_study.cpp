// Samples through SampleVisibility instead of a private SatelliteIndex /
// PositionsEcefInto time loop; mentioning them here is fine, and so are
// names that merely start with ShortestPath (a ShortestPathTree member).
#include <vector>
struct Vec3 {};
struct ShortestPathTree {};
std::vector<std::vector<std::vector<int>>> SampleVisibility(
    const std::vector<Vec3>& terminals, const std::vector<double>& times);
int CountVisible(const std::vector<Vec3>& terminals, const std::vector<double>& times) {
  int total = 0;
  for (const auto& slot : SampleVisibility(terminals, times)) {
    total += static_cast<int>(slot[0].size());
  }
  return total;
}
