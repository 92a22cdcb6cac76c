// Network-wide throughput (paper §5, Figs. 4-5) and the BP satellite
// disconnection statistic.
//
// Traffic between each city pair is split over the k edge-disjoint
// shortest paths; the sub-flows are allocated max-min fair rates over the
// per-link capacities (20 Gbps GT-satellite, 100 Gbps ISL by default), and
// the aggregate throughput is reported.
#pragma once

#include <vector>

#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "flow/flow_network.hpp"
#include "graph/dijkstra.hpp"

namespace leosim::core {

struct ThroughputResult {
  double total_gbps{0.0};
  int pairs_routed{0};     // pairs with at least one path
  int subflows{0};         // total flows handed to the allocator
  double mean_paths_per_pair{0.0};
};

// Capacity model for the allocator:
//   kSharedPerLink      — each (undirected) link is one pooled resource of
//                         its capacity; opposite-direction flows contend.
//                         This is the model used for all Fig. 4/5 numbers.
//   kSeparateUpDown     — each link carries its capacity independently in
//                         each direction (paper §5: "up- and down-link
//                         capacities of 20 Gbps"), so opposing flows do
//                         not contend. Ablated in study ablation_updown.
enum class CapacityModel { kSharedPerLink, kSeparateUpDown };

// Routed paths as the max-min flow network on `g`, one flow per AddPath
// call in call order (pair order, for every caller). Links exist only
// for the keys some flow crosses, numbered in key order: the edge id, or
// with `directional` 2e for a->b and 2e+1 for b->a. Progressive filling
// skips flow-less links and visits the rest in id order, so the rates
// equal, bit for bit, those of one link per key, weighted or not. Each
// path is reduced to its keys when added, so callers need not keep it.
class FlowNetworkBuilder {
 public:
  FlowNetworkBuilder(const graph::Graph& g, bool directional)
      : g_(g), directional_(directional) {}

  void AddPath(const graph::Path& path);
  // The network of every path added; call once.
  flow::FlowNetwork Build();

 private:
  const graph::Graph& g_;
  bool directional_;
  std::vector<std::vector<flow::LinkId>> flows_;  // each flow's keys
};

// Aggregate max-min-fair throughput at one snapshot.
ThroughputResult RunThroughputStudy(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    double time_sec, CapacityModel capacity_model = CapacityModel::kSharedPerLink);

// Aggregate throughput at every snapshot of the schedule, one result per
// slot. Slots run as a parallel temporal sweep (see core/temporal_sweep.hpp);
// each slot's result is identical to RunThroughputStudy at that time, and
// the timeseries samples/summary are emitted in a serial pass so outputs
// do not depend on the thread count.
std::vector<ThroughputResult> RunThroughputSweep(
    const NetworkModel& model, const std::vector<CityPair>& pairs, int k,
    const SnapshotSchedule& schedule,
    CapacityModel capacity_model = CapacityModel::kSharedPerLink);

struct DisconnectionStats {
  double min_fraction{0.0};   // across snapshots
  double max_fraction{0.0};
  std::vector<double> per_snapshot;
};

// Fraction of satellites disconnected from every ground node (paper §5:
// 25.1%-31.5% for BP Starlink across a day).
DisconnectionStats RunDisconnectionStudy(const NetworkModel& model,
                                         const SnapshotSchedule& schedule);

}  // namespace leosim::core
