#include "core/churn_study.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/snapshot_stepper.hpp"
#include "core/temporal_sweep.hpp"
#include "graph/components.hpp"
#include "graph/dijkstra.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int CityIndexByName(const std::vector<data::City>& cities, const std::string& name) {
  for (int i = 0; i < static_cast<int>(cities.size()); ++i) {
    if (cities[static_cast<size_t>(i)].name == name) {
      return i;
    }
  }
  throw std::invalid_argument("city not in list: " + name);
}

// Jaccard similarity over two sorted node-id runs. Shortest paths never
// repeat a node, so a sorted run is exactly the node set the historical
// std::set-based code compared; the two-pointer intersection gives the
// same count without building sets.
double JaccardSorted(std::span<const graph::NodeId> a,
                     std::span<const graph::NodeId> b) {
  if (a.empty() && b.empty()) {
    return 1.0;
  }
  size_t ia = 0;
  size_t ib = 0;
  int intersection = 0;
  while (ia < a.size() && ib < b.size()) {
    if (a[ia] < b[ib]) {
      ++ia;
    } else if (b[ib] < a[ia]) {
      ++ib;
    } else {
      ++intersection;
      ++ia;
      ++ib;
    }
  }
  const int union_size = static_cast<int>(a.size() + b.size()) - intersection;
  return union_size == 0 ? 1.0 : static_cast<double>(intersection) / union_size;
}

// One slot's routing answers for every pair: RTT (+inf when unreachable)
// plus each pair's path nodes, sorted, as [begin, end) runs into one
// shared buffer. This is what the parallel sweep produces and the serial
// diff pass consumes — the diff chains slot i to i-1, so it cannot run
// inside the sweep, but replaying it over these tables costs microseconds.
struct SlotRoutes {
  std::vector<double> rtt;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> end;
  std::vector<graph::NodeId> nodes;

  std::span<const graph::NodeId> PathNodes(size_t pair) const {
    return {nodes.data() + begin[pair], nodes.data() + end[pair]};
  }
};

// Routes every pair against one snapshot with the shared tier policy
// (core/routing_tiers.hpp). Cross-component pairs are answered by the
// component precheck without any search (a plain Dijkstra that fails
// settles the source's whole component — the most expensive query shape
// there is); sources with >= kTreeBatchThreshold surviving destinations
// run one multi-target Dijkstra — through the workspace's
// TreeReuseCache, a plain Build unless the snapshot's graph records
// patch deltas — which is bit-identical to per-pair graph::ShortestPath
// from the same source (see sssp_tree.hpp); the remaining pairs run
// goal-directed A* with the straight-line latency bound, which settles
// only the corridor around the path and agrees with Dijkstra on the
// path: an exact floating-point tie between distinct shortest paths is
// broken toward the predecessor with the lower g-value, the one
// Dijkstra settles first (routing_reuse_property_test checks node
// chains on real snapshots, a known tie included).
void RouteSlotPaths(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, SlotRoutes* out,
                    SweepWorkspace* ws) {
  const size_t n = pairs.size();
  out->rtt.assign(n, kInf);
  out->begin.assign(n, 0);
  out->end.assign(n, 0);
  out->nodes.clear();
  // Appends one routed pair's answer: sorted node run + round-trip time.
  const auto emit = [out](size_t pair, const graph::Path& path) {
    out->rtt[pair] = 2.0 * path.distance;
    out->begin[pair] = static_cast<uint32_t>(out->nodes.size());
    out->nodes.insert(out->nodes.end(), path.nodes.begin(), path.nodes.end());
    out->end[pair] = static_cast<uint32_t>(out->nodes.size());
    std::sort(out->nodes.begin() + out->begin[pair], out->nodes.end());
  };
  graph::ConnectedComponentsInto(snap.graph, &ws->labels, &ws->stack);
  for (const SourceGroup& group : groups) {
    const graph::NodeId src = snap.CityNode(group.src_city);
    const int src_label = ws->labels[static_cast<size_t>(src)];
    ws->targets.clear();
    ws->target_pairs.clear();
    for (const int i : group.pair_indices) {
      const graph::NodeId dst = snap.CityNode(pairs[static_cast<size_t>(i)].b);
      if (ws->labels[static_cast<size_t>(dst)] == src_label) {
        ws->targets.push_back(dst);
        ws->target_pairs.push_back(i);
      }
    }
    if (ws->targets.empty()) {
      continue;
    }
    if (ws->targets.size() >= kTreeBatchThreshold) {
      const graph::TreeReuseCache::RouteView view = ws->tree_cache.Route(
          snap.graph, src, ws->targets, ws->dijkstra, ws->tree);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        const auto path = view.PathTo(ws->targets[j]);
        emit(static_cast<size_t>(ws->target_pairs[j]), *path);
      }
    } else {
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        const graph::NodeId dst = ws->targets[j];
        const geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
        // Plain lambda (not graph::PotentialFn) so it inlines into the
        // A* relax loop.
        const auto potential = [&snap, &dst_pos](graph::NodeId n) {
          return EuclideanLatencyPotential(snap.node_ecef, n, dst_pos);
        };
        const auto path = graph::ShortestPathAStar(snap.graph, src, dst,
                                                   ws->dijkstra, potential);
        emit(static_cast<size_t>(ws->target_pairs[j]), *path);
      }
    }
  }
}

// Routes every slot of the schedule in parallel into per-slot tables.
// `label` names the progress stream ("churn" / "churn_aggregate").
std::vector<SlotRoutes> SweepRoutes(const NetworkModel& model,
                                    const std::vector<CityPair>& pairs,
                                    const std::vector<double>& times,
                                    const std::string& label) {
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  std::vector<SlotRoutes> slots(times.size());
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(times);
  }
  const TemporalSweep sweep(times);
  sweep.Run(label, [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel::Snapshot& snap =
        BuildOrStepSnapshot(model, item.time_sec, &ws.snapshot, &ws.stepper);
    if (net_trace.Enabled()) {
      net_trace.CaptureSlot(item.slot, item.time_sec, snap);
    }
    RouteSlotPaths(snap, pairs, groups, &slots[static_cast<size_t>(item.slot)],
                   &ws);
  });
  return slots;
}

}  // namespace

ChurnStats RunChurnStudy(const NetworkModel& model, const std::string& city_a,
                         const std::string& city_b,
                         const SnapshotSchedule& schedule) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "churn";
  const std::vector<double> times = schedule.Times();
  const std::vector<CityPair> pairs = {
      {CityIndexByName(model.cities(), city_a),
       CityIndexByName(model.cities(), city_b)}};
  const std::vector<SlotRoutes> slots = SweepRoutes(model, pairs, times, "churn");
  summary.snapshots_built = static_cast<uint64_t>(times.size());

  // Serial diff pass in slot order: identical recorder emissions and
  // float accumulation order to the historical one-snapshot-at-a-time
  // loop. A slot's "previous path" is slot-1's, valid only when slot-1
  // was reachable (an unreachable snapshot breaks the streak).
  ChurnStats stats;
  stats.snapshots = static_cast<int>(times.size());
  int jaccard_steps = 0;
  int jitter_steps = 0;
  double jaccard_sum = 0.0;
  double jitter_sum = 0.0;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  for (size_t s = 0; s < slots.size(); ++s) {
    const double rtt = slots[s].rtt[0];
    if (rtt == kInf) {
      ++summary.pairs_unreachable;
      continue;
    }
    ++summary.pairs_routed;
    recorder.Record(times[s], "churn.pair.rtt_ms", rtt);
    if (s > 0 && slots[s - 1].rtt[0] != kInf) {
      const std::span<const graph::NodeId> cur = slots[s].PathNodes(0);
      const std::span<const graph::NodeId> prev = slots[s - 1].PathNodes(0);
      const bool changed = !std::equal(cur.begin(), cur.end(), prev.begin(),
                                       prev.end());
      if (changed) {
        ++stats.path_changes;
        if (net_trace.Enabled()) {
          net_trace.AddRouteChange(static_cast<int>(s), 0, rtt,
                                   {cur.begin(), cur.end()});
        }
      }
      recorder.Record(times[s], "churn.pair.changed", changed ? 1.0 : 0.0);
      jaccard_sum += JaccardSorted(prev, cur);
      ++jaccard_steps;
      jitter_sum += std::fabs(rtt - slots[s - 1].rtt[0]);
      ++jitter_steps;
    }
  }
  stats.mean_jaccard = jaccard_steps > 0 ? jaccard_sum / jaccard_steps : 1.0;
  stats.rtt_jitter_ms = jitter_steps > 0 ? jitter_sum / jitter_steps : 0.0;
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return stats;
}

AggregateChurn RunAggregateChurnStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs,
                                      const SnapshotSchedule& schedule) {
  struct PairTotals {
    int changes{0};
    int steps{0};
    double jaccard_sum{0.0};
    double jitter_sum{0.0};
  };
  std::vector<PairTotals> totals(pairs.size());

  const StudyTimer timer;
  StudySummary summary;
  summary.study = "churn_aggregate";
  const std::vector<double> times = schedule.Times();
  const std::vector<SlotRoutes> slots =
      SweepRoutes(model, pairs, times, "churn_aggregate");
  summary.snapshots_built = static_cast<uint64_t>(times.size());

  // Serial diff pass, slot-major with pairs inner — the historical
  // accumulation order, so per-pair float sums are bit-identical.
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  for (size_t s = 0; s < slots.size(); ++s) {
    int step_changes = 0;
    int step_routed = 0;
    int step_unreachable = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const double rtt = slots[s].rtt[i];
      if (rtt == kInf) {
        ++summary.pairs_unreachable;
        ++step_unreachable;
        continue;
      }
      ++summary.pairs_routed;
      ++step_routed;
      if (s > 0 && slots[s - 1].rtt[i] != kInf) {
        PairTotals& pt = totals[i];
        const std::span<const graph::NodeId> cur = slots[s].PathNodes(i);
        const std::span<const graph::NodeId> prev = slots[s - 1].PathNodes(i);
        if (!std::equal(cur.begin(), cur.end(), prev.begin(), prev.end())) {
          ++pt.changes;
          ++step_changes;
          if (net_trace.Enabled()) {
            net_trace.AddRouteChange(static_cast<int>(s), static_cast<int>(i),
                                     rtt, {cur.begin(), cur.end()});
          }
        }
        pt.jaccard_sum += JaccardSorted(prev, cur);
        pt.jitter_sum += std::fabs(rtt - slots[s - 1].rtt[i]);
        ++pt.steps;
      }
    }
    recorder.Record(times[s], "churn.route_changes",
                    static_cast<double>(step_changes));
    recorder.Record(times[s], "churn.routed", static_cast<double>(step_routed));
    recorder.Record(times[s], "churn.unreachable",
                    static_cast<double>(step_unreachable));
  }

  AggregateChurn agg;
  for (const PairTotals& pt : totals) {
    if (pt.steps == 0) {
      continue;
    }
    agg.mean_change_rate += static_cast<double>(pt.changes) / pt.steps;
    agg.mean_jaccard += pt.jaccard_sum / pt.steps;
    agg.mean_rtt_jitter_ms += pt.jitter_sum / pt.steps;
    ++agg.pairs_evaluated;
  }
  if (agg.pairs_evaluated > 0) {
    agg.mean_change_rate /= agg.pairs_evaluated;
    agg.mean_jaccard /= agg.pairs_evaluated;
    agg.mean_rtt_jitter_ms /= agg.pairs_evaluated;
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return agg;
}

}  // namespace leosim::core
