// The one home of the flow network: KEdgeDisjointShortestPaths( and
// flow::FlowNetwork are fine here.
namespace graph {
struct DijkstraWorkspace {};
}
namespace flow {
struct FlowNetwork {
  int AddLink(double capacity);
};
}
int KEdgeDisjointShortestPaths(int src, int dst, int k, graph::DijkstraWorkspace& ws);
struct FlowNetworkBuilder {
  flow::FlowNetwork Build(int edges);
};
flow::FlowNetwork FlowNetworkBuilder::Build(int edges) {
  flow::FlowNetwork net;
  for (int e = 0; e < edges; ++e) {
    net.AddLink(20.0);
  }
  return net;
}
void Throughput(graph::DijkstraWorkspace& ws) { KEdgeDisjointShortestPaths(0, 1, 4, ws); }
