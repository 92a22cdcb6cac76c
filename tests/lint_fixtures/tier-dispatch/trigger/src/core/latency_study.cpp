constexpr int kTreeBatchThreshold = 3;
struct Tree {
  void Build(int src);
};
struct Cache {
  void Route(int src);
};
struct Workspace {
  Tree tree;
  Cache tree_cache;
};
void ConnectedComponentsInto(Workspace* ws);
int ShortestPathAStar(int src, int dst);
void RouteSlot(Workspace& ws, Workspace* wp, int src, int targets) {
  ConnectedComponentsInto(&ws);
  if (targets >= kTreeBatchThreshold) {
    ws.tree.Build(src);
    wp->tree_cache.Route(src);
  } else {
    ShortestPathAStar(src, targets);
  }
}
