#include "graph/components.hpp"

#include <vector>

namespace leosim::graph {

int ConnectedComponentsInto(const Graph& g, std::vector<int>* label,
                            std::vector<NodeId>* stack) {
  g.FinalizeAdjacency();
  const int n = g.NumNodes();
  label->assign(static_cast<size_t>(n), -1);
  stack->clear();
  int count = 0;
  for (NodeId start = 0; start < n; ++start) {
    if ((*label)[static_cast<size_t>(start)] != -1) {
      continue;
    }
    const int comp = count++;
    stack->push_back(start);
    (*label)[static_cast<size_t>(start)] = comp;
    while (!stack->empty()) {
      const NodeId u = stack->back();
      stack->pop_back();
      for (const HalfEdge& half : g.Neighbours(u)) {
        if (!g.IsEnabled(half.edge)) {
          continue;
        }
        if ((*label)[static_cast<size_t>(half.to)] == -1) {
          (*label)[static_cast<size_t>(half.to)] = comp;
          stack->push_back(half.to);
        }
      }
    }
  }
  return count;
}

int CountDisconnected(const Graph& g, const std::vector<NodeId>& candidates,
                      const std::vector<NodeId>& targets) {
  std::vector<int> label;
  std::vector<NodeId> stack;
  const int count = ConnectedComponentsInto(g, &label, &stack);
  std::vector<bool> target_comp(static_cast<size_t>(count), false);
  for (const NodeId t : targets) {
    target_comp[static_cast<size_t>(label[static_cast<size_t>(t)])] = true;
  }
  int disconnected = 0;
  for (const NodeId c : candidates) {
    if (!target_comp[static_cast<size_t>(label[static_cast<size_t>(c)])]) {
      ++disconnected;
    }
  }
  return disconnected;
}

}  // namespace leosim::graph
