// The hop dump routes its pair through RoutePairPaths, not a private
// ShortestPath( call; mentioning it in a comment is fine.
#include <vector>
struct Path {
  std::vector<int> nodes;
};
std::vector<Path> RoutePairPaths(int a, int b);
int HopCount(int a, int b) {
  return static_cast<int>(RoutePairPaths(a, b)[0].nodes.size());
}
