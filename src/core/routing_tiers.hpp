// The one routing-tier dispatch for the per-snapshot pair-routing
// studies (latency, churn, throughput). Each routes the same shape of
// workload — many city pairs grouped by source against one snapshot —
// and RouteSourceGroups tiers it the same way for all of them:
// component precheck, then one multi-target Dijkstra for sources with
// enough surviving destinations, then goal-directed A* for the rest.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "core/network_builder.hpp"
#include "core/temporal_sweep.hpp"
#include "core/traffic_matrix.hpp"
#include "geo/vec3.hpp"
#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/landmarks.hpp"
#include "link/radio.hpp"

namespace leosim::core {

// A source's destinations are batched into one multi-target Dijkstra
// once there are at least this many of them; below the threshold,
// per-pair goal-directed A* wins because its settled corridor is
// roughly half the size of the Dijkstra ball the batched search grows.
// Either route reports the same shortest-path latency.
inline constexpr size_t kTreeBatchThreshold = 3;

// The studies' A* potential: straight-line propagation latency from
// node n to the destination position, slacked for admissibility under
// rounding (graph::kPotentialSlack). Called through a capturing lambda
// so it inlines into the ShortestPathAStar relax loop.
inline double EuclideanLatencyPotential(const std::vector<geo::Vec3>& node_ecef,
                                        graph::NodeId n,
                                        const geo::Vec3& dst_pos) {
  return graph::kPotentialSlack *
         link::PropagationLatencyMs(node_ecef[static_cast<size_t>(n)], dst_pos);
}

// Routes every pair of `groups` (GroupPairsBySource(pairs)) over
// snap.graph and calls visit(pair_index, distance, path) once for each
// pair that is reachable; unreachable pairs are never visited.
// `distance` is the one-way shortest-path latency and `path()` returns
// the graph::Path on demand, so a caller that needs only distances never
// walks a path. Call path() inside visit, at most once: it reads the
// workspace's search state, which the next search overwrites.
//
// Three tiers per pair, cheapest first:
//   1. component precheck: a cross-component pair is skipped without
//      any search (a failed search would settle the source's whole
//      component, the most expensive query shape there is);
//   2. a source with >= kTreeBatchThreshold surviving destinations runs
//      ONE multi-target Dijkstra (ws.tree) shared by all of them, whose
//      distances and predecessor chains are bit-identical to per-pair
//      graph::ShortestPath (see graph/sssp_tree.hpp);
//   3. the remaining pairs run A* under EuclideanLatencyPotential, which
//      settles only the corridor around the path and breaks exact ties
//      the way Dijkstra does (see graph::ShortestPathAStar).
// Pairs are visited source group by source group, in group order.
template <typename Visit>
void RouteSourceGroups(const NetworkModel::Snapshot& snap,
                       const std::vector<CityPair>& pairs,
                       const std::vector<SourceGroup>& groups,
                       SweepWorkspace& ws, Visit&& visit) {
  graph::ConnectedComponentsInto(snap.graph, &ws.labels, &ws.stack);
  for (const SourceGroup& group : groups) {
    const graph::NodeId src = snap.CityNode(group.src_city);
    const int src_label = ws.labels[static_cast<size_t>(src)];
    ws.targets.clear();
    ws.target_pairs.clear();
    for (const int i : group.pair_indices) {
      const graph::NodeId dst = snap.CityNode(pairs[static_cast<size_t>(i)].b);
      if (ws.labels[static_cast<size_t>(dst)] == src_label) {
        ws.targets.push_back(dst);
        ws.target_pairs.push_back(i);
      }
    }
    if (ws.targets.size() >= kTreeBatchThreshold) {
      ws.tree.Build(snap.graph, src, ws.targets, ws.dijkstra);
      for (size_t j = 0; j < ws.targets.size(); ++j) {
        const graph::NodeId dst = ws.targets[j];
        visit(ws.target_pairs[j], ws.tree.DistanceTo(dst),
              [&ws, dst] { return *ws.tree.PathTo(dst); });
      }
      continue;
    }
    for (size_t j = 0; j < ws.targets.size(); ++j) {
      const geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(ws.targets[j])];
      // Plain lambda (not graph::PotentialFn) so it inlines into the
      // A* relax loop.
      const auto potential = [&snap, &dst_pos](graph::NodeId n) {
        return EuclideanLatencyPotential(snap.node_ecef, n, dst_pos);
      };
      std::optional<graph::Path> path = graph::ShortestPathAStar(
          snap.graph, src, ws.targets[j], ws.dijkstra, potential);
      if (path.has_value()) {
        visit(ws.target_pairs[j], path->distance,
              [&path] { return std::move(*path); });
      }
    }
  }
}

}  // namespace leosim::core
