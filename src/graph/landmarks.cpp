#include "graph/landmarks.hpp"

#include <algorithm>

namespace leosim::graph {

void LandmarkTable::Rebuild(const Graph& g, DijkstraWorkspace& workspace) {
  graph_ = &g;
  version_ = g.Version();
  num_nodes_ = g.NumNodes();
  landmarks_.clear();
  stride_ = 0;
  table_.clear();
  dst_row_.clear();

  const int n = g.NumNodes();
  const int k = std::min(num_landmarks_, n);
  if (k <= 0) {
    return;
  }

  // Seed: the node farthest from node 0 (node 0 itself when nothing
  // else is reachable). Strict > keeps ties on the lowest id.
  ShortestDistancesInto(g, 0, workspace, &row_);
  NodeId next = 0;
  double best = -1.0;
  for (int v = 0; v < n; ++v) {
    const double d = row_[static_cast<size_t>(v)];
    if (std::isfinite(d) && d > best) {
      best = d;
      next = v;
    }
  }

  // Farthest-point traversal: each round runs the new landmark's
  // Dijkstra, folds it into min_dist_, and picks the node farthest from
  // the whole chosen set. A chosen landmark has min_dist_ 0, so the
  // d > 0 requirement never re-selects one; when no strictly-positive
  // candidate remains (tiny or fully-covered graphs) selection stops
  // early with fewer landmarks. Each row goes straight into the
  // node-major layout Potential() reads (all of one node's landmark
  // distances contiguous) at stride k.
  min_dist_.assign(static_cast<size_t>(n), kInfDistance);
  table_.resize(static_cast<size_t>(n) * static_cast<size_t>(k));
  while (static_cast<int>(landmarks_.size()) < k) {
    const size_t l = landmarks_.size();
    landmarks_.push_back(next);
    ShortestDistancesInto(g, next, workspace, &row_);
    for (int v = 0; v < n; ++v) {
      const double d = row_[static_cast<size_t>(v)];
      table_[static_cast<size_t>(v) * static_cast<size_t>(k) + l] = d;
      if (d < min_dist_[static_cast<size_t>(v)]) {
        min_dist_[static_cast<size_t>(v)] = d;
      }
    }
    if (static_cast<int>(landmarks_.size()) == k) {
      break;
    }
    next = -1;
    best = 0.0;
    for (int v = 0; v < n; ++v) {
      const double d = min_dist_[static_cast<size_t>(v)];
      if (std::isfinite(d) && d > best) {
        best = d;
        next = v;
      }
    }
    if (next < 0) {
      break;
    }
  }

  // In-place compaction from stride k to stride_ < k: entry (v, l) moves
  // from v*k + l down to v*stride_ + l, never past an unread source.
  stride_ = static_cast<int>(landmarks_.size());
  if (stride_ < k) {
    for (int v = 0; v < n; ++v) {
      for (int l = 0; l < stride_; ++l) {
        table_[static_cast<size_t>(v) * static_cast<size_t>(stride_) +
               static_cast<size_t>(l)] =
            table_[static_cast<size_t>(v) * static_cast<size_t>(k) +
                   static_cast<size_t>(l)];
      }
    }
    table_.resize(static_cast<size_t>(n) * static_cast<size_t>(stride_));
  }
  dst_row_.assign(static_cast<size_t>(stride_), 0.0);
}

void LandmarkTable::SetDestination(NodeId dst) {
  const double* row =
      table_.data() + static_cast<size_t>(dst) * static_cast<size_t>(stride_);
  dst_row_.assign(row, row + stride_);
}

}  // namespace leosim::graph
