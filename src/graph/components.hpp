// Connected components over enabled edges; used for the paper's §5
// observation that 25-32% of Starlink satellites are disconnected from the
// network at any time under BP-only connectivity.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace leosim::graph {

// Labels every node with its component id, 0..count-1, into caller-owned
// storage (`label` is resized to NumNodes(), `stack` is DFS scratch), so
// a per-snapshot loop performs no steady-state allocation. Returns the
// component count.
//
// The temporal studies use the labels as a reachability precheck: a
// pair in different components is unreachable without running Dijkstra,
// which otherwise explores the source's whole component before
// reporting failure — by far the most expensive query shape, and common
// under bent-pipe connectivity where a large satellite fraction is
// isolated (paper §5).
int ConnectedComponentsInto(const Graph& g, std::vector<int>* label,
                            std::vector<NodeId>* stack);

// Number of nodes in `candidates` that cannot reach any node in `targets`
// over enabled edges.
int CountDisconnected(const Graph& g, const std::vector<NodeId>& candidates,
                      const std::vector<NodeId>& targets);

}  // namespace leosim::graph
