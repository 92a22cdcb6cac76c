#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"

namespace leosim::graph {
namespace {

// Builds the classic diamond: 0-1-3 (cost 2) and 0-2-3 (cost 3), plus a
// direct 0-3 edge of cost 10.
Graph Diamond() {
  Graph g(4);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(1, 3, 1.0);
  g.AddEdge(0, 2, 1.5);
  g.AddEdge(2, 3, 1.5);
  g.AddEdge(0, 3, 10.0);
  return g;
}

TEST(GraphTest, BasicConstruction) {
  const Graph g = Diamond();
  EXPECT_EQ(g.NumNodes(), 4);
  EXPECT_EQ(g.NumEdges(), 5);
  EXPECT_EQ(g.Neighbours(0).size(), 3u);
  EXPECT_EQ(g.Neighbours(3).size(), 3u);
}

TEST(GraphTest, RejectsBadEdges) {
  Graph g(3);
  EXPECT_THROW(g.AddEdge(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.AddEdge(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(g.AddEdge(-1, 1, 1.0), std::out_of_range);
  EXPECT_THROW(g.AddEdge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(GraphTest, OtherEnd) {
  Graph g(2);
  const EdgeId e = g.AddEdge(0, 1, 1.0);
  EXPECT_EQ(g.OtherEnd(e, 0), 1);
  EXPECT_EQ(g.OtherEnd(e, 1), 0);
}

TEST(GraphTest, EnableDisable) {
  Graph g = Diamond();
  EXPECT_TRUE(g.IsEnabled(0));
  g.SetEnabled(0, false);
  EXPECT_FALSE(g.IsEnabled(0));
  g.EnableAllEdges();
  EXPECT_TRUE(g.IsEnabled(0));
}

TEST(DijkstraTest, FindsShortestPath) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 2.0);
  EXPECT_EQ(path->nodes, (std::vector<NodeId>{0, 1, 3}));
  EXPECT_EQ(path->HopCount(), 2);
}

TEST(DijkstraTest, PathEdgesMatchNodes) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  ASSERT_EQ(path->edges.size(), path->nodes.size() - 1);
  for (size_t i = 0; i < path->edges.size(); ++i) {
    const EdgeRecord& e = g.Edge(path->edges[i]);
    const std::set<NodeId> got{e.a, e.b};
    const std::set<NodeId> want{path->nodes[i], path->nodes[i + 1]};
    EXPECT_EQ(got, want);
  }
}

TEST(DijkstraTest, TrivialSourceEqualsDestination) {
  const Graph g = Diamond();
  const auto path = ShortestPath(g, 2, 2);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 0.0);
  EXPECT_EQ(path->HopCount(), 0);
}

TEST(DijkstraTest, UnreachableReturnsNullopt) {
  Graph g(3);
  g.AddEdge(0, 1, 1.0);
  EXPECT_FALSE(ShortestPath(g, 0, 2).has_value());
}

TEST(DijkstraTest, RespectsDisabledEdges) {
  Graph g = Diamond();
  g.SetEnabled(0, false);  // kill 0-1
  const auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.has_value());
  EXPECT_DOUBLE_EQ(path->distance, 3.0);  // via node 2
}

TEST(DijkstraTest, ShortestDistancesMatchesSinglePair) {
  const Graph g = Diamond();
  DijkstraWorkspace ws;
  std::vector<double> dist;
  ShortestDistancesInto(g, 0, ws, &dist);
  EXPECT_DOUBLE_EQ(dist[0], 0.0);
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 1.5);
  EXPECT_DOUBLE_EQ(dist[3], 2.0);
}

TEST(DijkstraTest, UnreachableDistanceIsInfinite) {
  Graph g(3);
  g.AddEdge(0, 1, 5.0);
  DijkstraWorkspace ws;
  std::vector<double> dist;
  ShortestDistancesInto(g, 0, ws, &dist);
  EXPECT_EQ(dist[2], kInfDistance);
}

// Two shortest paths of equal length, src-a-dst (1 + 2) and src-b-dst
// (2 + 1). Dijkstra settles a (g = 1) before b (g = 2), so dst keeps
// a as its predecessor. Under the consistent potential below A* pops b
// first (f = 2 < 2.9) and reaches dst through b; the exact-tie rule
// must pick a, the tied predecessor with the lower g. The disabled
// edge from src to an isolated node (+inf weight, never labelled) must
// not count as a tied predecessor.
TEST(DijkstraTest, AStarBreaksExactTiesLikeDijkstra) {
  constexpr NodeId kSrc = 0;
  constexpr NodeId kA = 1;
  constexpr NodeId kB = 2;
  constexpr NodeId kDst = 3;
  constexpr NodeId kIsolated = 4;
  Graph g(5);
  g.AddEdge(kSrc, kA, 1.0);
  g.AddEdge(kA, kDst, 2.0);
  g.AddEdge(kSrc, kB, 2.0);
  g.AddEdge(kB, kDst, 1.0);
  g.SetEnabled(g.AddEdge(kSrc, kIsolated, 1.0), false);
  const std::vector<double> h = {0.95, 1.9, 0.0, 0.0, 0.0};
  const auto potential = [&h](NodeId n) { return h[static_cast<size_t>(n)]; };

  DijkstraWorkspace ws_ref;
  DijkstraWorkspace ws_astar;
  const auto ref = ShortestPath(g, kSrc, kDst, ws_ref);
  const auto astar = ShortestPathAStar(g, kSrc, kDst, ws_astar, potential);
  ASSERT_TRUE(ref.has_value());
  ASSERT_TRUE(astar.has_value());
  EXPECT_EQ(ref->nodes, (std::vector<NodeId>{kSrc, kA, kDst}));
  EXPECT_EQ(astar->nodes, ref->nodes);
  EXPECT_EQ(astar->edges, ref->edges);
  EXPECT_EQ(std::bit_cast<uint64_t>(astar->distance),
            std::bit_cast<uint64_t>(ref->distance));
}

TEST(DisjointPathsTest, FindsAllThreeDiamondPaths) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 4);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_DOUBLE_EQ(paths[0].distance, 2.0);
  EXPECT_DOUBLE_EQ(paths[1].distance, 3.0);
  EXPECT_DOUBLE_EQ(paths[2].distance, 10.0);
}

TEST(DisjointPathsTest, PathsShareNoEdges) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 3);
  std::set<EdgeId> used;
  for (const Path& p : paths) {
    for (const EdgeId e : p.edges) {
      EXPECT_TRUE(used.insert(e).second) << "edge reused: " << e;
    }
  }
}

TEST(DisjointPathsTest, RestoresGraphState) {
  Graph g = Diamond();
  (void)KEdgeDisjointShortestPaths(g, 0, 3, 3);
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    EXPECT_TRUE(g.IsEnabled(e));
  }
}

TEST(DisjointPathsTest, PreservesCallerDisabledEdges) {
  Graph g = Diamond();
  g.SetEnabled(4, false);  // the direct 0-3 edge
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 4);
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_FALSE(g.IsEnabled(4));
}

TEST(DisjointPathsTest, KOneIsJustShortestPath) {
  Graph g = Diamond();
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, 0, 3, 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_DOUBLE_EQ(paths[0].distance, 2.0);
}

TEST(ComponentsTest, SingleComponent) {
  const Graph g = Diamond();
  std::vector<int> label;
  std::vector<NodeId> stack;
  EXPECT_EQ(ConnectedComponentsInto(g, &label, &stack), 1);
}

TEST(ComponentsTest, DisabledEdgesSplitComponents) {
  Graph g(4);
  const EdgeId e01 = g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  std::vector<int> label;
  std::vector<NodeId> stack;
  EXPECT_EQ(ConnectedComponentsInto(g, &label, &stack), 2);
  g.SetEnabled(e01, false);
  EXPECT_EQ(ConnectedComponentsInto(g, &label, &stack), 3);
}

TEST(ComponentsTest, CountDisconnected) {
  Graph g(5);
  g.AddEdge(0, 1, 1.0);
  g.AddEdge(2, 3, 1.0);
  // node 4 isolated. Targets: {0}. Candidates: {1,2,3,4}.
  EXPECT_EQ(CountDisconnected(g, {1, 2, 3, 4}, {0}), 3);
  EXPECT_EQ(CountDisconnected(g, {1}, {0}), 0);
}

// Property: on a ring of n nodes, the two disjoint paths between opposite
// nodes have lengths n/2 each, and a third does not exist.
class RingTest : public ::testing::TestWithParam<int> {};

TEST_P(RingTest, OppositePathsOnRing) {
  const int n = GetParam();
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(i, (i + 1) % n, 1.0);
  }
  const NodeId src = 0;
  const NodeId dst = n / 2;
  const std::vector<Path> paths = KEdgeDisjointShortestPaths(g, src, dst, 3);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_DOUBLE_EQ(paths[0].distance, n / 2);
  EXPECT_DOUBLE_EQ(paths[1].distance, n - n / 2);
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingTest, ::testing::Values(4, 6, 8, 10, 20, 50));

}  // namespace
}  // namespace leosim::graph
