#include "core/throughput_study.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "flow/maxmin.hpp"
#include "graph/disjoint_paths.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {

void FlowNetworkBuilder::AddPath(const graph::Path& path) {
  std::vector<flow::LinkId> keys;
  keys.reserve(path.edges.size());
  for (size_t h = 0; h < path.edges.size(); ++h) {
    const graph::EdgeId e = path.edges[h];
    if (!directional_) {
      keys.push_back(e);
    } else {
      const bool forward = g_.Edge(e).a == path.nodes[h];
      keys.push_back(2 * e + (forward ? 0 : 1));
    }
  }
  flows_.push_back(std::move(keys));
}

flow::FlowNetwork FlowNetworkBuilder::Build() {
  const size_t num_keys =
      static_cast<size_t>(g_.NumEdges()) * (directional_ ? 2 : 1);
  std::vector<flow::LinkId> link_of_key(num_keys, -1);
  for (const std::vector<flow::LinkId>& keys : flows_) {
    for (const flow::LinkId key : keys) {
      link_of_key[static_cast<size_t>(key)] = 0;  // used; id assigned below
    }
  }
  flow::FlowNetwork net;
  for (size_t key = 0; key < num_keys; ++key) {
    if (link_of_key[key] >= 0) {
      const graph::EdgeId e = static_cast<graph::EdgeId>(directional_ ? key / 2 : key);
      link_of_key[key] = net.AddLink(g_.Edge(e).capacity);
    }
  }
  for (std::vector<flow::LinkId>& links : flows_) {
    for (flow::LinkId& link : links) {
      link = link_of_key[static_cast<size_t>(link)];
    }
    net.AddFlow(std::move(links));
  }
  return net;
}

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
// finds, see disjoint_paths.hpp).
ThroughputResult ThroughputAtSnapshot(NetworkModel::Snapshot& snap,
                                      const std::vector<CityPair>& pairs,
                                      const std::vector<SourceGroup>& groups,
                                      int k, bool directional,
                                      SweepWorkspace* ws) {
  std::vector<graph::Path> first = RoutePairPaths(snap, pairs, groups, *ws);

  // One landmark table per snapshot, built before any path edge is
  // disabled (see landmarks.hpp on why it is never refreshed per pair).
  if (ws->landmarks == nullptr) {
    ws->landmarks = std::make_unique<graph::LandmarkTable>(kDisjointLandmarks);
  }
  if (k > 1) {
    ws->landmarks->Rebuild(snap.graph, ws->dijkstra);
  }

  ThroughputResult result;
  FlowNetworkBuilder flows(snap.graph, directional);
  for (graph::Path& path : first) {
    if (path.nodes.empty()) {
      continue;  // unreachable: no paths, pair not routed
    }
    ++result.pairs_routed;
    for (const graph::Path& p : graph::KEdgeDisjointShortestPaths(
             snap.graph, std::move(path), k, ws->dijkstra, *ws->landmarks)) {
      flows.AddPath(p);
      ++result.subflows;
    }
  }
  if (result.pairs_routed > 0) {
    result.mean_paths_per_pair =
        static_cast<double>(result.subflows) / result.pairs_routed;
  }
  result.total_gbps = flow::MaxMinFairAllocate(flows.Build()).total_gbps;
  return result;
}

// Aggregate throughput at every time of `times`, one result per slot.
// Slots run as a parallel temporal sweep (see core/temporal_sweep.hpp);
// the timeseries samples and the `study` summary are emitted in a serial
// pass, so outputs do not depend on the thread count.
std::vector<ThroughputResult> SweepThroughput(const std::string& study,
                                              const NetworkModel& model,
                                              const std::vector<CityPair>& pairs,
                                              int k, const std::vector<double>& times,
                                              CapacityModel capacity_model) {
  const StudyTimer timer;
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const bool directional = capacity_model == CapacityModel::kSeparateUpDown;
  std::vector<ThroughputResult> results(times.size());
  const TemporalSweep sweep(times);
  sweep.Run(study, [&](const SweepItem& item, SweepWorkspace& ws) {
    NetworkModel::Snapshot& snap =
        model.BuildSnapshot(item.time_sec, &ws.snapshot);
    results[static_cast<size_t>(item.slot)] =
        ThroughputAtSnapshot(snap, pairs, groups, k, directional, &ws);
  });

  StudySummary summary;
  summary.study = study;
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

}  // namespace

ThroughputResult RunThroughputStudy(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs, int k,
                                    double time_sec, CapacityModel capacity_model) {
  return SweepThroughput("throughput", model, pairs, k, {time_sec},
                         capacity_model)[0];
}

std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule, CapacityModel capacity_model) {
  return SweepThroughput("throughput_sweep", model, pairs, k, schedule.Times(),
                         capacity_model);
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
