namespace flow {
struct FlowNetwork {
  int AddLink(double capacity);
};
}
int KEdgeDisjointShortestPaths(int src, int dst, int k);
void WeightedDemand(int edges) {
  flow::FlowNetwork net;
  for (int e = 0; e < edges; ++e) {
    net.AddLink(20.0);
  }
  KEdgeDisjointShortestPaths(0, 1, 1);
}
