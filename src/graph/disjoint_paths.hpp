// k edge-disjoint shortest paths (paper §5): the greedy scheme the paper
// describes — find the shortest path, remove its edges, repeat up to k
// times. (This is intentionally NOT Suurballe's min-total-cost algorithm;
// the paper routes each sub-flow on the shortest path remaining.)
#pragma once

#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/landmarks.hpp"

namespace leosim::graph {

// Returns up to k edge-disjoint paths, shortest first. The graph is
// temporarily mutated (path edges disabled) and restored before returning;
// edges disabled by the caller beforehand stay disabled.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k);

// As above, reusing `workspace` scratch across the up-to-k searches.
// Results are identical to the workspace-free overload.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, NodeId src, NodeId dst, int k,
                                             DijkstraWorkspace& workspace);

// As above with the first path already computed (typically extracted from
// a ShortestPathTree shared across every pair of one source). `first`
// must be a shortest src->dst path on the graph as currently enabled;
// the function disables its edges, finds up to k-1 further paths, and
// restores. Output is identical to the from-scratch overloads because
// the greedy scheme's first iteration is exactly that shortest path.
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace);

// As above with the k-1 follow-up searches run as ShortestPathAStar
// under the ALT potential of `landmarks`, which settles a corridor
// around each path instead of a distance ball. `landmarks` must have
// been built (LandmarkTable::Rebuild) on `g` while every edge enabled
// now was enabled, with the same weights; edges disabled since then
// only raise distances, so the potential stays admissible and
// consistent. Its destination is set to first's last node. Output
// equals the Dijkstra overloads' (ShortestPathAStar breaks exact
// distance ties the way Dijkstra does; pinned by
// tests/routing_reuse_property_test.cpp).
std::vector<Path> KEdgeDisjointShortestPaths(Graph& g, Path first, int k,
                                             DijkstraWorkspace& workspace,
                                             LandmarkTable& landmarks);

}  // namespace leosim::graph
