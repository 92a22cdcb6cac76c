// Property tests for the landmark (ALT) potentials, the studies' shared
// routing-tier dispatch and the cross-slot tree-reuse cache: all are pure
// accelerations, so every answer they produce must be *bit-identical* —
// distances and node chains — to the plain Dijkstra reference, and the
// end-to-end churn and throughput studies must not change under them
// (churn at any thread count; throughput against a one-link-per-edge
// flow network built from public calls).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/network_builder.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "data/city_catalog.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/landmarks.hpp"
#include "graph/sssp_tree.hpp"
#include "graph/tree_reuse.hpp"

namespace leosim {
namespace {

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// ALT-guided A* vs plain Dijkstra over real snapshot graphs: identical
// optional-ness, bit-identical distance, identical node chain. An
// admissible consistent potential cannot change the shortest distance,
// only how much of the graph the search settles; which of several
// equally short paths wins is fixed by A*'s exact-tie rule (see
// AltDisjointPathsBreakTheKnownTieLikeDijkstra below for a real tie).
TEST(LandmarkRouting, AltAStarMatchesDijkstraOnSnapshots) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  options.use_aircraft = false;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  const int num_cities = static_cast<int>(model.cities().size());

  graph::DijkstraWorkspace ws_ref;
  graph::DijkstraWorkspace ws_alt;
  graph::DijkstraWorkspace ws_table;
  graph::LandmarkTable table;
  std::mt19937 rng(20260809);
  std::uniform_int_distribution<int> pick(0, num_cities - 1);

  for (const double t : {0.0, 300.0, 3600.0}) {
    const core::NetworkModel::Snapshot snap = model.BuildSnapshot(t);
    table.EnsureFresh(snap.graph, ws_table);
    EXPECT_TRUE(table.Fresh(snap.graph));
    EXPECT_EQ(static_cast<int>(table.landmarks().size()),
              graph::LandmarkTable::kDefaultNumLandmarks);
    // A second EnsureFresh on the untouched graph must be a no-op (the
    // whole point of keying on Graph::Version()).
    table.EnsureFresh(snap.graph, ws_table);

    for (int q = 0; q < 40; ++q) {
      const graph::NodeId src = snap.CityNode(pick(rng));
      const graph::NodeId dst = snap.CityNode(pick(rng));
      if (src == dst) {
        continue;
      }
      table.SetDestination(dst);
      const auto potential = [&table](graph::NodeId n) {
        return table.Potential(n);
      };
      const auto alt =
          graph::ShortestPathAStar(snap.graph, src, dst, ws_alt, potential);
      const auto ref = graph::ShortestPath(snap.graph, src, dst, ws_ref);
      ASSERT_EQ(alt.has_value(), ref.has_value()) << "t=" << t << " q=" << q;
      if (ref.has_value()) {
        EXPECT_TRUE(BitEq(alt->distance, ref->distance))
            << "t=" << t << " src=" << src << " dst=" << dst;
        EXPECT_EQ(alt->nodes, ref->nodes)
            << "t=" << t << " src=" << src << " dst=" << dst;
      }
      // The potential must vanish at the destination and lower-bound
      // the true distance at the source (admissibility spot check).
      EXPECT_EQ(table.Potential(dst), 0.0);
      if (ref.has_value()) {
        EXPECT_LE(table.Potential(src), ref->distance);
      }
    }
  }
}

// The shared tier dispatch against per-pair Dijkstra on a bent-pipe and
// a hybrid snapshot. Sources have 1, 2, 3 and 6 reachable destinations,
// so both the A* tier (1-2) and the tree tier (3+) answer; Lagos is cut
// off from the graph, so the component precheck must drop it from the
// 2-destination and the 6-destination source and never visit it.
TEST(RoutingTiers, DispatchVisitsExactlyThePairsDijkstraReaches) {
  const std::vector<data::City>& cities = data::AnchorCities();
  const auto pair = [&cities](const char* a, const char* b) {
    return core::CityPair{data::CityIndexByName(cities, a),
                          data::CityIndexByName(cities, b)};
  };
  const std::vector<core::CityPair> pairs = {
      pair("London", "New York"),
      pair("Paris", "Rome"), pair("Paris", "Lagos"), pair("Paris", "Chicago"),
      pair("Berlin", "Warsaw"), pair("Berlin", "Vienna"), pair("Berlin", "Cairo"),
      pair("Madrid", "Lisbon"), pair("Madrid", "Moscow"), pair("Madrid", "Lagos"),
      pair("Madrid", "Tokyo"), pair("Madrid", "Sydney"), pair("Madrid", "Istanbul"),
      pair("Madrid", "Delhi")};
  const std::vector<core::SourceGroup> groups = core::GroupPairsBySource(pairs);
  const int lagos = data::CityIndexByName(cities, "Lagos");

  core::NetworkOptions options;
  options.relay_spacing_deg = 4.0;
  options.use_aircraft = false;
  for (const core::ConnectivityMode mode :
       {core::ConnectivityMode::kBentPipe, core::ConnectivityMode::kHybrid}) {
    options.mode = mode;
    const core::NetworkModel model(core::Scenario::Starlink(), options, cities);
    core::NetworkModel::Snapshot snap = model.BuildSnapshot(0.0);
    std::vector<graph::EdgeId> cut;
    for (const graph::HalfEdge& half : snap.graph.Neighbours(snap.CityNode(lagos))) {
      cut.push_back(half.edge);
    }
    ASSERT_FALSE(cut.empty());
    for (const graph::EdgeId e : cut) {
      snap.graph.SetEnabled(e, false);
    }

    core::SweepWorkspace ws;
    std::vector<int> visits(pairs.size(), 0);
    std::vector<double> distance(pairs.size(), 0.0);
    std::vector<graph::Path> path(pairs.size());
    core::RouteSourceGroups(snap, pairs, groups, ws,
                            [&](int i, double d, const auto& path_of) {
                              const size_t at = static_cast<size_t>(i);
                              ++visits[at];
                              distance[at] = d;
                              path[at] = path_of();
                            });

    const std::string where =
        mode == core::ConnectivityMode::kBentPipe ? "bp" : "hybrid";
    graph::DijkstraWorkspace ws_ref;
    int reached = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const std::optional<graph::Path> ref = graph::ShortestPath(
          snap.graph, snap.CityNode(pairs[i].a), snap.CityNode(pairs[i].b),
          ws_ref);
      if (!ref.has_value()) {
        EXPECT_EQ(visits[i], 0) << where << " pair " << i;
        continue;
      }
      ++reached;
      ASSERT_EQ(visits[i], 1) << where << " pair " << i;
      EXPECT_EQ(path[i].nodes, ref->nodes) << where << " pair " << i;
      EXPECT_EQ(path[i].edges, ref->edges) << where << " pair " << i;
      EXPECT_TRUE(BitEq(path[i].distance, ref->distance)) << where << " pair " << i;
      EXPECT_TRUE(BitEq(distance[i], ref->distance)) << where << " pair " << i;
    }
    EXPECT_EQ(visits[2], 0) << where;
    EXPECT_EQ(visits[9], 0) << where;
    // Over ISLs every pair but the two into Lagos routes, so each source
    // keeps its intended tier.
    if (mode == core::ConnectivityMode::kHybrid) {
      EXPECT_EQ(reached, static_cast<int>(pairs.size()) - 2);
    } else {
      EXPECT_GT(reached, 0);
    }
  }
}

// A long path graph in patch mode: src at one end, targets early, so
// the search labels only a prefix and everything beyond stays at
// +infinity — the exact shape the endpoint-unlabeled reuse test keys
// on.
class TreeReuseTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 64;

  void SetUp() override {
    g_.Reset(kNodes);
    edges_.clear();
    for (int v = 0; v + 1 < kNodes; ++v) {
      edges_.push_back(g_.AddEdge(v, v + 1, 1.0 + 0.01 * v));
    }
    std::vector<uint64_t> keys(edges_.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<uint64_t>(i);
    }
    g_.BeginPatchMode(keys, /*row_slack=*/2);
    g_.SetPatchDeltaRecording(true);
  }

  // Fresh reference build with its own tree + workspace, compared
  // bit-for-bit against the cache's answers for every target.
  void ExpectMatchesFresh(const graph::TreeReuseCache::RouteView& view,
                          graph::NodeId src,
                          const std::vector<graph::NodeId>& targets) {
    graph::DijkstraWorkspace fresh_ws;
    graph::ShortestPathTree fresh_tree;
    fresh_tree.Build(g_, src, targets, fresh_ws);
    for (const graph::NodeId t : targets) {
      ASSERT_TRUE(BitEq(view.DistanceTo(t), fresh_tree.DistanceTo(t)))
          << "target " << t;
      const auto a = view.PathTo(t);
      const auto b = fresh_tree.PathTo(t);
      ASSERT_EQ(a.has_value(), b.has_value()) << "target " << t;
      if (a.has_value()) {
        EXPECT_TRUE(BitEq(a->distance, b->distance)) << "target " << t;
        EXPECT_EQ(a->nodes, b->nodes) << "target " << t;
        EXPECT_EQ(a->edges, b->edges) << "target " << t;
      }
    }
  }

  graph::Graph g_;
  std::vector<graph::EdgeId> edges_;
  graph::DijkstraWorkspace ws_;
  graph::ShortestPathTree tree_;
  graph::TreeReuseCache cache_;
};

TEST_F(TreeReuseTest, DisjointDeltaReusesBitIdentically) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 1u);
  ExpectMatchesFresh(view, src, targets);

  // Searching 0 -> {3, 5} pops 0..5 and exits before scanning node 5's
  // row, so nodes >= 6 stay unlabeled. Touching edges deep in that tail
  // cannot change the answer (the stored search never scanned them), so
  // the cache must reuse — and still match a fresh build on the mutated
  // graph.
  g_.PatchEdgeWeight(edges_[40], 9.0);
  g_.PatchRemoveEdge(edges_[50]);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().reuses, 1u);
  EXPECT_EQ(cache_.stats().rebuilds, 1u);
  ExpectMatchesFresh(view, src, targets);

  // An untouched graph (same version) reuses trivially.
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().reuses, 2u);
  ExpectMatchesFresh(view, src, targets);
}

TEST_F(TreeReuseTest, TouchedTreeEdgeForcesRebuild) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);
  ASSERT_EQ(cache_.stats().rebuilds, 1u);

  // Edge (2,3) lies on the stored tree: labeled endpoints, so reuse
  // would be unsound — the cache must rebuild and track the new weight.
  g_.PatchEdgeWeight(edges_[2], 50.0);
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);

  // Frontier edge (5,6): endpoint 5 was popped (labeled), so the delta
  // intersects the search and the cache must refuse reuse even though
  // this particular change happens not to alter any target's answer.
  g_.PatchEdgeWeight(edges_[5], 0.5);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 3u);
  ExpectMatchesFresh(view, src, targets);
}

TEST_F(TreeReuseTest, TargetSetChangeAndEpochChangeForceRebuild) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);

  // Different target set: only the stored call's targets are guaranteed
  // settled, so the cache may not serve {3, 5, 9} from a {3, 5} tree.
  const std::vector<graph::NodeId> more = {3, 5, 9};
  auto view = cache_.Route(g_, src, more, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  ExpectMatchesFresh(view, src, more);

  // A cleared delta breaks the epoch chain: touches made before the
  // clear are no longer enumerable, so a version change must rebuild
  // even though this particular touch is disjoint.
  g_.PatchEdgeWeight(edges_[40], 2.0);
  g_.ClearPatchDelta();
  view = cache_.Route(g_, src, more, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 3u);
  ExpectMatchesFresh(view, src, more);
}

TEST_F(TreeReuseTest, OverflowAndRecordingOffDegradeSafely) {
  const graph::NodeId src = 0;
  const std::vector<graph::NodeId> targets = {3, 5};
  cache_.Route(g_, src, targets, ws_, tree_);

  // Blow past the delta cap with repeated disjoint touches: the delta
  // overflows and the cache must stop trusting it.
  for (int i = 0; i < 5000; ++i) {
    g_.PatchEdgeWeight(edges_[40], 1.0 + 0.001 * (i % 7));
  }
  EXPECT_TRUE(g_.PatchDeltaOverflowed());
  auto view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);

  // Recording off: pure passthrough to a live Build, stats untouched.
  g_.SetPatchDeltaRecording(false);
  view = cache_.Route(g_, src, targets, ws_, tree_);
  EXPECT_EQ(cache_.stats().rebuilds, 2u);
  EXPECT_EQ(cache_.stats().reuses, 0u);
  ExpectMatchesFresh(view, src, targets);
}

// End-to-end: the churn study (which routes through the shared tier
// dispatch) must produce bit-identical aggregates at 1 and 4 threads.
TEST(RoutingReuseProperty, ChurnAggregateThreadInvariant) {
  core::NetworkOptions options;
  options.mode = core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 4.0;
  options.use_aircraft = false;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = 12;
  const std::vector<core::CityPair> pairs =
      core::SampleCityPairs(data::AnchorCities(), traffic);
  core::SnapshotSchedule schedule;
  schedule.duration_sec = 10.0 * 60.0;
  schedule.step_sec = 60.0;

  const auto run = [&](const char* threads) {
    setenv("LEOSIM_THREADS", threads, 1);
    const core::AggregateChurn churn =
        core::RunAggregateChurnStudy(model, pairs, schedule);
    unsetenv("LEOSIM_THREADS");
    return churn;
  };
  const core::AggregateChurn a = run("1");
  const core::AggregateChurn b = run("4");
  EXPECT_TRUE(BitEq(a.mean_change_rate, b.mean_change_rate));
  EXPECT_TRUE(BitEq(a.mean_jaccard, b.mean_jaccard));
  EXPECT_TRUE(BitEq(a.mean_rtt_jitter_ms, b.mean_rtt_jitter_ms));
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
}

// The inputs of the Fig. 4 throughput workload for one seed: 400
// cities (anchors plus seeded synthetic ones), 2.5-degree relays,
// aircraft on, 120 sampled pairs, bent-pipe and hybrid models.
struct Fig4Inputs {
  std::vector<data::City> cities;
  std::unique_ptr<core::NetworkModel> bp;
  std::unique_ptr<core::NetworkModel> hybrid;
  std::vector<core::CityPair> pairs;
};

const Fig4Inputs& Fig4InputsSeed8() {
  static const Fig4Inputs inputs = [] {
    constexpr uint64_t kSeed = 8;
    Fig4Inputs in;
    in.cities = data::GenerateWorldCities(400, kSeed);
    core::NetworkOptions options;
    options.relay_spacing_deg = 2.5;
    options.use_aircraft = true;
    options.seed = kSeed;
    options.mode = core::ConnectivityMode::kBentPipe;
    in.bp = std::make_unique<core::NetworkModel>(core::Scenario::Starlink(),
                                                 options, in.cities);
    options.mode = core::ConnectivityMode::kHybrid;
    in.hybrid = std::make_unique<core::NetworkModel>(core::Scenario::Starlink(),
                                                     options, in.cities);
    core::TrafficMatrixOptions pair_options;
    pair_options.num_pairs = 120;
    pair_options.seed = kSeed;
    in.pairs = core::SampleCityPairs(in.cities, pair_options);
    return in;
  }();
  return inputs;
}

void ExpectSamePaths(const std::vector<graph::Path>& alt,
                     const std::vector<graph::Path>& ref,
                     const std::string& where) {
  ASSERT_EQ(alt.size(), ref.size()) << where;
  for (size_t p = 0; p < ref.size(); ++p) {
    EXPECT_EQ(alt[p].nodes, ref[p].nodes) << where << " path " << p;
    EXPECT_EQ(alt[p].edges, ref[p].edges) << where << " path " << p;
    EXPECT_TRUE(BitEq(alt[p].distance, ref[p].distance))
        << where << " path " << p;
  }
}

// ALT-seeded k edge-disjoint paths (the throughput study's search: the
// first path given, an eight-landmark table built once per snapshot
// before any edge is disabled) vs the from-scratch Dijkstra overload,
// for every sampled pair of both models at two slots.
TEST(LandmarkRouting, AltDisjointPathsMatchDijkstraOnSnapshots) {
  const Fig4Inputs& in = Fig4InputsSeed8();
  graph::DijkstraWorkspace ws_ref;
  graph::DijkstraWorkspace ws_alt;
  graph::LandmarkTable table(8);
  for (const core::NetworkModel* model : {in.bp.get(), in.hybrid.get()}) {
    for (const double t : {0.0, 900.0}) {
      core::NetworkModel::Snapshot snap = model->BuildSnapshot(t);
      table.Rebuild(snap.graph, ws_alt);
      int routed = 0;
      for (size_t i = 0; i < in.pairs.size(); ++i) {
        const graph::NodeId src = snap.CityNode(in.pairs[i].a);
        const graph::NodeId dst = snap.CityNode(in.pairs[i].b);
        const std::vector<graph::Path> ref =
            graph::KEdgeDisjointShortestPaths(snap.graph, src, dst, 4, ws_ref);
        const std::optional<graph::Path> first =
            graph::ShortestPath(snap.graph, src, dst, ws_alt);
        ASSERT_EQ(first.has_value(), !ref.empty());
        if (!first.has_value()) {
          continue;
        }
        ++routed;
        const std::vector<graph::Path> alt = graph::KEdgeDisjointShortestPaths(
            snap.graph, *first, 4, ws_alt, table);
        ExpectSamePaths(alt, ref,
                        (model == in.bp.get() ? "bp" : "hybrid") +
                            std::string(" t=") + std::to_string(t) +
                            " pair " + std::to_string(i));
      }
      EXPECT_GT(routed, 0);
    }
  }
}

// The known tie: in the hybrid snapshot at t=0, pair 87's third
// edge-disjoint path (8 hops, 34.17622944417387 ms) has a node with two
// predecessors that reach it at exactly the same distance. Plain A*
// took the other predecessor there; the exact-tie rule must pick
// Dijkstra's.
TEST(LandmarkRouting, AltDisjointPathsBreakTheKnownTieLikeDijkstra) {
  constexpr size_t kPair = 87;
  const Fig4Inputs& in = Fig4InputsSeed8();
  core::NetworkModel::Snapshot snap = in.hybrid->BuildSnapshot(0.0);
  graph::DijkstraWorkspace ws;
  graph::LandmarkTable table(8);
  table.Rebuild(snap.graph, ws);
  const graph::NodeId src = snap.CityNode(in.pairs[kPair].a);
  const graph::NodeId dst = snap.CityNode(in.pairs[kPair].b);
  const std::vector<graph::Path> ref =
      graph::KEdgeDisjointShortestPaths(snap.graph, src, dst, 4, ws);
  ASSERT_GE(ref.size(), 3u);
  EXPECT_EQ(ref[2].HopCount(), 8);
  EXPECT_TRUE(BitEq(ref[2].distance, 34.17622944417387)) << ref[2].distance;

  // The tie is real: with the first two paths' edges disabled, some node
  // of the third path has two neighbours u with d(u) + w(u, v) == d(v).
  for (const size_t p : {size_t{0}, size_t{1}}) {
    for (const graph::EdgeId e : ref[p].edges) {
      snap.graph.SetEnabled(e, false);
    }
  }
  std::vector<double> dist;
  graph::ShortestDistancesInto(snap.graph, src, ws, &dist);
  int tied_nodes = 0;
  for (size_t h = 1; h < ref[2].nodes.size(); ++h) {
    const graph::NodeId v = ref[2].nodes[h];
    int tight = 0;
    for (const graph::HalfEdge& half : snap.graph.Neighbours(v)) {
      tight += dist[static_cast<size_t>(half.to)] + half.weight ==
                       dist[static_cast<size_t>(v)]
                   ? 1
                   : 0;
    }
    tied_nodes += tight > 1 ? 1 : 0;
  }
  EXPECT_EQ(tied_nodes, 1);
  snap.graph.EnableAllEdges();

  const std::optional<graph::Path> first =
      graph::ShortestPath(snap.graph, src, dst, ws);
  ASSERT_TRUE(first.has_value());
  ExpectSamePaths(
      graph::KEdgeDisjointShortestPaths(snap.graph, *first, 4, ws, table), ref,
      "hybrid t=0 pair 87");
}

// RunThroughputStudy against a reference built from public calls: one
// flow-network link per graph edge (two per edge, one each way, for
// separate up/down capacities), k Dijkstra edge-disjoint paths per
// pair, max-min fill. The study gives links only to the edges its paths
// use and routes the follow-up paths with ALT A*; neither may move any
// output bit.
core::ThroughputResult ReferenceThroughput(const core::NetworkModel& model,
                                           const std::vector<core::CityPair>& pairs,
                                           int k, double t, bool directional) {
  core::NetworkModel::Snapshot snap = model.BuildSnapshot(t);
  flow::FlowNetwork net;
  for (graph::EdgeId e = 0; e < snap.graph.NumEdges(); ++e) {
    net.AddLink(snap.graph.Edge(e).capacity);
    if (directional) {
      net.AddLink(snap.graph.Edge(e).capacity);
    }
  }
  core::ThroughputResult result;
  for (const core::CityPair& pair : pairs) {
    const std::vector<graph::Path> paths = graph::KEdgeDisjointShortestPaths(
        snap.graph, snap.CityNode(pair.a), snap.CityNode(pair.b), k);
    if (paths.empty()) {
      continue;
    }
    ++result.pairs_routed;
    for (const graph::Path& path : paths) {
      std::vector<flow::LinkId> links;
      for (size_t h = 0; h < path.edges.size(); ++h) {
        const graph::EdgeId e = path.edges[h];
        const bool forward = snap.graph.Edge(e).a == path.nodes[h];
        links.push_back(directional ? 2 * e + (forward ? 0 : 1) : e);
      }
      net.AddFlow(std::move(links));
      ++result.subflows;
    }
  }
  result.mean_paths_per_pair =
      static_cast<double>(result.subflows) / result.pairs_routed;
  result.total_gbps = flow::MaxMinFairAllocate(net).total_gbps;
  return result;
}

TEST(LandmarkRouting, ThroughputStudyMatchesOneLinkPerEdgeReference) {
  const Fig4Inputs& in = Fig4InputsSeed8();
  for (const core::NetworkModel* model : {in.bp.get(), in.hybrid.get()}) {
    for (const core::CapacityModel capacity :
         {core::CapacityModel::kSharedPerLink,
          core::CapacityModel::kSeparateUpDown}) {
      const bool directional = capacity == core::CapacityModel::kSeparateUpDown;
      const core::ThroughputResult got =
          core::RunThroughputStudy(*model, in.pairs, 4, 0.0, capacity);
      const core::ThroughputResult want =
          ReferenceThroughput(*model, in.pairs, 4, 0.0, directional);
      const std::string where = std::string(model == in.bp.get() ? "bp" : "hybrid") +
                                (directional ? " up/down" : " shared");
      EXPECT_GT(want.pairs_routed, 0) << where;
      EXPECT_EQ(got.pairs_routed, want.pairs_routed) << where;
      EXPECT_EQ(got.subflows, want.subflows) << where;
      EXPECT_TRUE(BitEq(got.mean_paths_per_pair, want.mean_paths_per_pair))
          << where;
      EXPECT_TRUE(BitEq(got.total_gbps, want.total_gbps))
          << where << ": " << got.total_gbps << " vs " << want.total_gbps;
    }
  }
}

}  // namespace
}  // namespace leosim
