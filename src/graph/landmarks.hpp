// ALT landmark potentials (A*, Landmarks, Triangle inequality) for the
// snapshot graphs: precompute exact shortest-path distances from a small
// set of landmark nodes, then lower-bound the distance from any node v
// to a query destination t by max_L |d(L, v) - d(L, t)| — the triangle
// inequality both ways round. Unlike the Euclidean straight-line bound
// the studies use for city pairs, the landmark bound needs no node
// geometry, so it serves queries between arbitrary graph nodes and
// stays tight through relay chains whose latency is far above the
// straight line.
//
// The table costs one full Dijkstra per landmark to build, so it only
// pays off when many point-to-point queries hit one graph version;
// EnsureFresh keys rebuilds on Graph::Version() to make the table safe
// to hold across snapshot epochs.
//
// Graph::SetEnabled bumps Version() too, so a caller that disables
// edges between queries (the k edge-disjoint search) must call Rebuild
// once before any toggling and never EnsureFresh per query: that would
// rerun every landmark Dijkstra for each query. A table built before
// edges were disabled stays admissible and consistent, because
// disabling an edge only raises distances and leaves the weight of
// every edge still enabled unchanged.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace leosim::graph {

// Safety factor applied to every geometric/landmark A* potential. The
// bound is exact in real arithmetic; shaving one part in 1e12 keeps it
// admissible under floating-point rounding (per-edge rounding errors
// are ~1e-16 relative) without measurably loosening it.
inline constexpr double kPotentialSlack = 1.0 - 1e-12;

class LandmarkTable {
 public:
  // Sixteen landmarks is the classic ALT sweet spot: the per-node
  // potential evaluation reads 16 doubles (two cache lines in the
  // node-major layout below) and the bound stops improving much beyond
  // that on mesh-like graphs.
  static constexpr int kDefaultNumLandmarks = 16;

  explicit LandmarkTable(int num_landmarks = kDefaultNumLandmarks)
      : num_landmarks_(num_landmarks) {}

  // True while the table still describes `g` exactly: same graph
  // object, no mutation since the build (Graph::Version()).
  bool Fresh(const Graph& g) const {
    return graph_ == &g && version_ == g.Version() &&
           num_nodes_ == g.NumNodes();
  }

  // Rebuilds when stale, no-op when fresh — the lazy per-snapshot-epoch
  // entry point. `workspace` is scratch for the landmark Dijkstras.
  void EnsureFresh(const Graph& g, DijkstraWorkspace& workspace) {
    if (!Fresh(g)) {
      Rebuild(g, workspace);
    }
  }

  // Selects landmarks by farthest-point traversal (seeded with the node
  // farthest from node 0, then repeatedly the node maximising the
  // minimum distance to the chosen set; ties break to the lowest id,
  // keeping selection deterministic) and fills the distance table. One
  // ShortestDistancesInto per landmark.
  void Rebuild(const Graph& g, DijkstraWorkspace& workspace);

  // Prepares Potential() for queries toward `dst`: copies dst's row of
  // the table so the per-node evaluation reads two short contiguous
  // arrays.
  void SetDestination(NodeId dst);

  // Admissible, consistent lower bound on the shortest-path distance
  // from n to the destination set by SetDestination. Each landmark L
  // contributes |d(L, n) - d(L, dst)| <= d(n, dst); the max of
  // consistent potentials is consistent, and scaling by a factor <= 1
  // preserves both properties. Non-finite contributions are skipped:
  // within dst's component both distances are infinite together (the
  // difference is NaN), and a one-sided infinity only arises for nodes
  // no search toward dst can reach.
  double Potential(NodeId n) const {
    const double* row =
        table_.data() + static_cast<size_t>(n) * static_cast<size_t>(stride_);
    double best = 0.0;
    for (int l = 0; l < stride_; ++l) {
      const double diff = std::fabs(row[l] - dst_row_[static_cast<size_t>(l)]);
      // Branch-free: the running max mispredicts as a branch, and
      // diff < +inf is false for both +inf and NaN.
      best = std::max(best, diff < kInfDistance ? diff : 0.0);
    }
    return kPotentialSlack * best;
  }

  const std::vector<NodeId>& landmarks() const { return landmarks_; }

 private:
  int num_landmarks_{kDefaultNumLandmarks};
  // Freshness key.
  const Graph* graph_{nullptr};
  uint64_t version_{0};
  int num_nodes_{0};

  std::vector<NodeId> landmarks_;
  int stride_{0};               // == landmarks_.size()
  std::vector<double> table_;   // node-major: table_[n * stride_ + l]
  std::vector<double> dst_row_; // active destination's row, stride_ wide
  // Rebuild scratch, kept warm across snapshot epochs.
  std::vector<double> row_;       // one landmark's distance row
  std::vector<double> min_dist_;  // farthest-point selection state
};

}  // namespace leosim::graph
