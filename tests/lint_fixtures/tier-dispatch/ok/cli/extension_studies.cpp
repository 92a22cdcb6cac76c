// Routes through RoutePairPaths and builds the network with
// FlowNetworkBuilder instead of a private FlowNetwork or
// KEdgeDisjointShortestPaths( loop; mentioning them here is fine.
struct Network {};
struct FlowNetworkBuilder {
  void AddPath(int path);
  Network Build();
};
int RoutePairPaths(int pairs);
void WeightedDemand(int pairs) {
  FlowNetworkBuilder flows;
  flows.AddPath(RoutePairPaths(pairs));
  const auto net = flows.Build();
  (void)net;
}
