#include "graph/disjoint_paths.hpp"

namespace leosim::graph {

namespace {

// Shared greedy loop: starting from `paths` (whose edges are already
// disabled and listed in `disabled_here`), keep extracting shortest
// paths with `search(src, dst)` and disabling their edges until k paths
// exist or src/dst disconnect, then restore every edge this call
// disabled.
template <typename Search>
void ExtendAndRestore(Graph& g, NodeId src, NodeId dst, int k,
                      const Search& search, std::vector<Path>* paths,
                      std::vector<EdgeId>* disabled_here) {
  while (static_cast<int>(paths->size()) < k) {
    std::optional<Path> path = search(src, dst);
    if (!path.has_value()) {
      break;
    }
    for (const EdgeId e : path->edges) {
      g.SetEnabled(e, false);
      disabled_here->push_back(e);
    }
    paths->push_back(std::move(*path));
  }
  for (const EdgeId e : *disabled_here) {
    g.SetEnabled(e, true);
  }
}

// Disables `first`'s edges, then runs the greedy loop for the rest.
template <typename Search>
std::vector<Path> ExtendFirst(Graph& g, Path first, int k, const Search& search) {
  std::vector<Path> paths;
  std::vector<EdgeId> disabled_here;
  if (k <= 0) {
    return paths;
  }
  const NodeId src = first.nodes.front();
  const NodeId dst = first.nodes.back();
  for (const EdgeId e : first.edges) {
    g.SetEnabled(e, false);
    disabled_here.push_back(e);
  }
  paths.push_back(std::move(first));
  ExtendAndRestore(g, src, dst, k, search, &paths, &disabled_here);
  return paths;
}

}  // namespace

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k) {
  DijkstraWorkspace workspace;
  return KEdgeDisjointShortestPaths(g, src, dst, k, workspace);
}

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k,
                                             DijkstraWorkspace& workspace) {
  std::vector<Path> paths;
  std::vector<EdgeId> disabled_here;
  ExtendAndRestore(
      g, src, dst, k,
      [&g, &workspace](NodeId s, NodeId t) {
        return ShortestPath(g, s, t, workspace);
      },
      &paths, &disabled_here);
  return paths;
}

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace) {
  return ExtendFirst(g, std::move(first), k,
                     [&g, &workspace](NodeId s, NodeId t) {
                       return ShortestPath(g, s, t, workspace);
                     });
}

std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace,
                                             LandmarkTable& landmarks) {
  landmarks.SetDestination(first.nodes.back());
  const auto potential = [&landmarks](NodeId n) { return landmarks.Potential(n); };
  return ExtendFirst(g, std::move(first), k,
                     [&g, &workspace, &potential](NodeId s, NodeId t) {
                       return ShortestPathAStar(g, s, t, workspace, potential);
                     });
}

}  // namespace leosim::graph
