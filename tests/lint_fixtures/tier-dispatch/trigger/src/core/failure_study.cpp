namespace graph {
struct DijkstraWorkspace {};
}
void ShortestPath(int src, int dst, graph::DijkstraWorkspace& ws);
void RouteEveryPair(int pairs) {
  graph::DijkstraWorkspace dijkstra_ws;
  for (int i = 0; i < pairs; ++i) {
    ShortestPath(i, i + 1, dijkstra_ws);
  }
}
