// The tiers (ConnectedComponentsInto, tree.Build, ShortestPathAStar)
// stay behind the dispatch; mentioning them in a comment is fine.
struct Workspace {};
template <typename Visit>
void RouteSourceGroups(Workspace& ws, Visit&& visit);
void RouteSlot(Workspace& ws, double* rtt) {
  RouteSourceGroups(ws, [rtt](int i, double distance) { rtt[i] = 2.0 * distance; });
}
