// Minimum-total-cost pair of edge-disjoint paths (Bhandari's variant of
// Suurballe's algorithm).
//
// The paper routes sub-flows over GREEDY edge-disjoint shortest paths
// (disjoint_paths.hpp) — find the shortest, remove it, repeat. That greedy
// scheme can pick a first path that blocks all others, or a pair whose
// total cost is far from optimal. This module provides the optimal pair
// for the routing ablation (study ablation_routing): on LEO snapshot
// graphs the greedy scheme is usually near-optimal, which justifies the
// paper's simpler choice.
#pragma once

#include <optional>
#include <utility>

#include "graph/dijkstra.hpp"

namespace leosim::graph {

struct DisjointPair {
  Path first;   // paths ordered by distance
  Path second;
  double TotalDistance() const { return first.distance + second.distance; }
};

// Minimum-total-weight pair of edge-disjoint paths between src and dst
// over enabled edges, or nullopt if no two edge-disjoint paths exist.
std::optional<DisjointPair> ShortestDisjointPair(const Graph& g, NodeId src,
                                                 NodeId dst);

}  // namespace leosim::graph
