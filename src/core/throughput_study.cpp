#include "core/throughput_study.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "flow/maxmin.hpp"
#include "graph/disjoint_paths.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {

namespace {

// Landmarks for the edge-disjoint follow-up searches: eight were as fast
// as the default sixteen there, with half the table.
constexpr int kDisjointLandmarks = 8;

// Aggregate max-min-fair throughput over one built snapshot. The first
// (shortest) path of every pair comes from the shared tier dispatch
// (core/routing_tiers.hpp) — the path the per-pair Dijkstra search of
// the disjoint-path router would find — and seeds
// KEdgeDisjointShortestPaths for the remaining k-1 paths, which run as
// ALT A* over the worker's landmark table (the same paths Dijkstra
// finds, see disjoint_paths.hpp). Flows are handed to the allocator in
// the original pair order, so the allocation matches the historical
// per-pair loop.
ThroughputResult ThroughputAtSnapshot(NetworkModel::Snapshot& snap,
                                      const std::vector<CityPair>& pairs,
                                      const std::vector<SourceGroup>& groups,
                                      int k, bool directional,
                                      SweepWorkspace* ws) {
  // An unreachable pair keeps an empty first path.
  std::vector<graph::Path> first(pairs.size());
  RouteSourceGroups(snap, pairs, groups, *ws,
                    [&first](int i, double, const auto& path_of) {
                      first[static_cast<size_t>(i)] = path_of();
                    });

  // One landmark table per snapshot, built before any path edge is
  // disabled (see landmarks.hpp on why it is never refreshed per pair).
  if (ws->landmarks == nullptr) {
    ws->landmarks = std::make_unique<graph::LandmarkTable>(kDisjointLandmarks);
  }
  if (k > 1) {
    ws->landmarks->Rebuild(snap.graph, ws->dijkstra);
  }

  // Each flow's links, keyed first by graph edge: the edge id in the
  // shared model; 2e for the a->b direction and 2e+1 for b->a with
  // separate up/down capacities.
  ThroughputResult result;
  std::vector<std::vector<flow::LinkId>> flows;
  flows.reserve(pairs.size() * static_cast<size_t>(std::max(k, 0)));
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (first[i].nodes.empty()) {
      continue;  // unreachable: no paths, pair not routed
    }
    const std::vector<graph::Path> paths = graph::KEdgeDisjointShortestPaths(
        snap.graph, std::move(first[i]), k, ws->dijkstra, *ws->landmarks);
    ++result.pairs_routed;
    for (const graph::Path& path : paths) {
      std::vector<flow::LinkId> links;
      links.reserve(path.edges.size());
      for (size_t h = 0; h < path.edges.size(); ++h) {
        const graph::EdgeId e = path.edges[h];
        if (!directional) {
          links.push_back(e);
        } else {
          const bool forward = snap.graph.Edge(e).a == path.nodes[h];
          links.push_back(2 * e + (forward ? 0 : 1));
        }
      }
      flows.push_back(std::move(links));
    }
  }
  result.subflows = static_cast<int>(flows.size());
  if (result.pairs_routed > 0) {
    result.mean_paths_per_pair =
        static_cast<double>(result.subflows) / result.pairs_routed;
  }

  // Links only for the keys some flow uses, numbered in increasing key
  // order. ProgressiveFilling visits active links in id order and never
  // looks at a link no flow crosses, so this monotone renumbering gives
  // the same rates, bit for bit, as one link per key.
  const size_t num_keys =
      static_cast<size_t>(snap.graph.NumEdges()) * (directional ? 2 : 1);
  std::vector<flow::LinkId> link_of_key(num_keys, -1);
  for (const std::vector<flow::LinkId>& links : flows) {
    for (const flow::LinkId key : links) {
      link_of_key[static_cast<size_t>(key)] = 0;  // used; id assigned below
    }
  }
  flow::FlowNetwork net;
  for (size_t key = 0; key < num_keys; ++key) {
    if (link_of_key[key] >= 0) {
      const graph::EdgeId e = static_cast<graph::EdgeId>(directional ? key / 2 : key);
      link_of_key[key] = net.AddLink(snap.graph.Edge(e).capacity);
    }
  }
  for (std::vector<flow::LinkId>& links : flows) {
    for (flow::LinkId& link : links) {
      link = link_of_key[static_cast<size_t>(link)];
    }
    net.AddFlow(std::move(links));
  }

  const flow::Allocation alloc = flow::MaxMinFairAllocate(net);
  result.total_gbps = alloc.total_gbps;
  return result;
}

}  // namespace

ThroughputResult RunThroughputStudy(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs, int k,
                                    double time_sec, CapacityModel capacity_model) {
  const StudyTimer timer;
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws.snapshot);
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const ThroughputResult result = ThroughputAtSnapshot(
      snap, pairs, groups, k,
      capacity_model == CapacityModel::kSeparateUpDown, &ws);

  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  recorder.Record(time_sec, "throughput.total_gbps", result.total_gbps);
  recorder.Record(time_sec, "throughput.pairs_routed",
                  static_cast<double>(result.pairs_routed));
  recorder.Record(time_sec, "throughput.subflows",
                  static_cast<double>(result.subflows));
  StudySummary summary;
  summary.study = "throughput";
  summary.snapshots_built = 1;
  summary.pairs_routed = static_cast<uint64_t>(result.pairs_routed);
  summary.pairs_unreachable =
      pairs.size() - static_cast<uint64_t>(result.pairs_routed);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule, CapacityModel capacity_model) {
  const StudyTimer timer;
  const std::vector<double> times = schedule.Times();
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const bool directional = capacity_model == CapacityModel::kSeparateUpDown;
  std::vector<ThroughputResult> results(times.size());
  const TemporalSweep sweep(times);
  sweep.Run("throughput_sweep", [&](const SweepItem& item, SweepWorkspace& ws) {
    NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    results[static_cast<size_t>(item.slot)] =
        ThroughputAtSnapshot(snap, pairs, groups, k, directional, &ws);
  });

  // Serial emission pass: the same samples N RunThroughputStudy calls
  // would have recorded, independent of worker scheduling.
  StudySummary summary;
  summary.study = "throughput_sweep";
  summary.snapshots_built = static_cast<uint64_t>(times.size());
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  for (size_t s = 0; s < times.size(); ++s) {
    const ThroughputResult& r = results[s];
    recorder.Record(times[s], "throughput.total_gbps", r.total_gbps);
    recorder.Record(times[s], "throughput.pairs_routed",
                    static_cast<double>(r.pairs_routed));
    recorder.Record(times[s], "throughput.subflows",
                    static_cast<double>(r.subflows));
    summary.pairs_routed += static_cast<uint64_t>(r.pairs_routed);
    summary.pairs_unreachable +=
        pairs.size() - static_cast<uint64_t>(r.pairs_routed);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return results;
}

DisconnectionStats RunDisconnectionStudy(const NetworkModel& model,
                                         const SnapshotSchedule& schedule) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "disconnection";
  const std::vector<double> times = schedule.Times();
  std::vector<double> fractions(times.size(), 0.0);
  const TemporalSweep sweep(times);
  sweep.Run("disconnection", [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    std::vector<graph::NodeId> sats(static_cast<size_t>(snap.num_sats));
    for (int i = 0; i < snap.num_sats; ++i) {
      sats[static_cast<size_t>(i)] = snap.SatNode(i);
    }
    std::vector<graph::NodeId> ground;
    ground.reserve(static_cast<size_t>(snap.NumNodes() - snap.num_sats));
    for (int n = snap.num_sats; n < snap.NumNodes(); ++n) {
      ground.push_back(n);
    }
    const int disconnected = graph::CountDisconnected(snap.graph, sats, ground);
    fractions[static_cast<size_t>(item.slot)] =
        static_cast<double>(disconnected) / snap.num_sats;
  });
  summary.snapshots_built = static_cast<uint64_t>(times.size());

  DisconnectionStats stats;
  stats.min_fraction = 1.0;
  stats.max_fraction = 0.0;
  stats.per_snapshot = fractions;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  for (size_t s = 0; s < times.size(); ++s) {
    stats.min_fraction = std::min(stats.min_fraction, fractions[s]);
    stats.max_fraction = std::max(stats.max_fraction, fractions[s]);
    recorder.Record(times[s], "disconnection.fraction", fractions[s]);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return stats;
}

}  // namespace leosim::core
