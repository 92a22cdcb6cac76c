struct Path {};
struct Workspace {};
Path ShortestPath(int src, int dst, Workspace& ws);
void RouteSlot(Workspace& ws, int a, int b, Path* out) {
  *out = ShortestPath(a, b, ws);
}
