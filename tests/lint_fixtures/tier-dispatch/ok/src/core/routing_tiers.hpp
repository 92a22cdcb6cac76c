#pragma once
struct Tree {
  void Build(int src);
};
struct Workspace {
  Tree tree;
};
inline void RouteSourceGroups(Workspace& ws, int src) { ws.tree.Build(src); }
