// Traced replays of the studies' slot loops and the output digests.
//
// Each replay is the loop the study runs on one worker, written against
// the same public calls: BuildOrStepSnapshot / BuildSnapshot,
// ConnectedComponentsInto, TreeReuseCache::Route / ShortestPathTree::Build,
// ShortestPathAStar, KEdgeDisjointShortestPaths, MaxMinFairAllocate and
// NetTraceRecorder::CaptureSlot, with a benchmark span around each. The
// tier policy, accumulation order and event order follow the studies
// (core/latency_study.cpp, core/throughput_study.cpp, core/churn_study.cpp)
// exactly, so the replay's digest equals the study's; the driver checks
// that on every traced run.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/routing_tiers.hpp"
#include "core/snapshot_stepper.hpp"
#include "core/temporal_sweep.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "graph/components.hpp"
#include "graph/disjoint_paths.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using leosim::core::CityPair;
using leosim::core::NetTraceRecorder;
using leosim::core::NetworkModel;
using leosim::core::SourceGroup;
using leosim::core::SweepWorkspace;
namespace graph = leosim::graph;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds or steps the slot's snapshot inside a span named after what
// actually ran, told apart by the stepper's step counter.
NetworkModel::Snapshot& TracedBuildOrStep(const NetworkModel& model,
                                          double time_sec, SweepWorkspace* ws,
                                          SpanLog& log) {
  static leosim::obs::Counter& steps =
      leosim::obs::MetricsRegistry::Global().GetCounter("snapshot.steps");
  SpanLog::Scope span(log, "builder.build");
  const uint64_t steps_before = steps.Value();
  NetworkModel::Snapshot& snap = leosim::core::BuildOrStepSnapshot(
      model, time_sec, &ws->snapshot, &ws->stepper);
  if (steps.Value() != steps_before) {
    span.set_name("stepper.step");
  }
  return snap;
}

// The component precheck, then the targets of one source group that
// share its component, into ws->targets / ws->target_pairs.
void GatherTargets(const NetworkModel::Snapshot& snap,
                   const std::vector<CityPair>& pairs, const SourceGroup& group,
                   SweepWorkspace* ws) {
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
}

void Components(const NetworkModel::Snapshot& snap, SweepWorkspace* ws,
                SpanLog& log) {
  const SpanLog::Scope span(log, "graph.components");
  graph::ConnectedComponentsInto(snap.graph, &ws->labels, &ws->stack);
}

std::optional<graph::Path> TracedAStar(const NetworkModel::Snapshot& snap,
                                       graph::NodeId src, graph::NodeId dst,
                                       SweepWorkspace* ws, SpanLog& log) {
  const SpanLog::Scope span(log, "graph.astar");
  const leosim::geo::Vec3 dst_pos = snap.node_ecef[static_cast<size_t>(dst)];
  const auto potential = [&snap, &dst_pos](graph::NodeId n) {
    return leosim::core::EuclideanLatencyPotential(snap.node_ecef, n, dst_pos);
  };
  return graph::ShortestPathAStar(snap.graph, src, dst, ws->dijkstra,
                                  potential);
}

// core/latency_study.cpp RouteSlotRtts.
void RouteSlotRtts(const NetworkModel::Snapshot& snap, size_t slot,
                   const std::vector<CityPair>& pairs,
                   const std::vector<SourceGroup>& groups,
                   std::vector<leosim::core::PairRttSeries>* series,
                   SweepWorkspace* ws, SpanLog& log) {
  Components(snap, ws, log);
  for (const SourceGroup& group : groups) {
    GatherTargets(snap, pairs, group, ws);
    const graph::NodeId src = snap.CityNode(group.src_city);
    if (ws->targets.size() >= leosim::core::kTreeBatchThreshold) {
      const SpanLog::Scope span(log, "graph.tree");
      ws->tree.Build(snap.graph, src, ws->targets, ws->dijkstra);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        (*series)[static_cast<size_t>(ws->target_pairs[j])].rtt_ms[slot] =
            2.0 * ws->tree.DistanceTo(ws->targets[j]);
      }
    } else {
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        const auto path = TracedAStar(snap, src, ws->targets[j], ws, log);
        (*series)[static_cast<size_t>(ws->target_pairs[j])].rtt_ms[slot] =
            path.has_value() ? 2.0 * path->distance : kInf;
      }
    }
  }
}

// core/throughput_study.cpp ThroughputAtSnapshot, shared-capacity model.
leosim::core::ThroughputResult ThroughputAtSnapshot(
    NetworkModel::Snapshot& snap, const std::vector<CityPair>& pairs,
    const std::vector<SourceGroup>& groups, SweepWorkspace* ws, SpanLog& log,
    ReplayCounters* counters) {
  leosim::flow::FlowNetwork net;
  {
    const SpanLog::Scope span(log, "flow.assemble");
    for (graph::EdgeId e = 0; e < snap.graph.NumEdges(); ++e) {
      net.AddLink(snap.graph.Edge(e).capacity);
    }
  }
  std::vector<graph::Path> first(pairs.size());
  Components(snap, ws, log);
  for (const SourceGroup& group : groups) {
    GatherTargets(snap, pairs, group, ws);
    if (ws->targets.empty()) {
      continue;
    }
    const SpanLog::Scope span(log, "graph.tree");
    ws->tree.Build(snap.graph, snap.CityNode(group.src_city), ws->targets,
                   ws->dijkstra);
    for (size_t j = 0; j < ws->targets.size(); ++j) {
      first[static_cast<size_t>(ws->target_pairs[j])] =
          std::move(*ws->tree.PathTo(ws->targets[j]));
    }
  }

  leosim::core::ThroughputResult result;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (first[i].nodes.empty()) {
      continue;
    }
    std::vector<graph::Path> paths;
    {
      const SpanLog::Scope span(log, "graph.disjoint");
      paths = graph::KEdgeDisjointShortestPaths(snap.graph, std::move(first[i]),
                                                kFig4Paths, ws->dijkstra);
    }
    const SpanLog::Scope span(log, "flow.assemble");
    ++result.pairs_routed;
    for (const graph::Path& path : paths) {
      net.AddFlow(std::vector<leosim::flow::LinkId>(path.edges.begin(),
                                                    path.edges.end()));
      ++result.subflows;
    }
  }
  if (result.pairs_routed > 0) {
    result.mean_paths_per_pair =
        static_cast<double>(result.subflows) / result.pairs_routed;
  }
  const SpanLog::Scope span(log, "flow.fill");
  result.total_gbps = leosim::flow::MaxMinFairAllocate(net).total_gbps;
  counters->subflows += result.subflows;
  return result;
}

// core/churn_study.cpp SlotRoutes.
struct SlotRoutes {
  std::vector<double> rtt;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> end;
  std::vector<graph::NodeId> nodes;

  std::span<const graph::NodeId> PathNodes(size_t pair) const {
    return {nodes.data() + begin[pair], nodes.data() + end[pair]};
  }
};

// core/churn_study.cpp RouteSlotPaths.
void RouteSlotPaths(const NetworkModel::Snapshot& snap,
                    const std::vector<CityPair>& pairs,
                    const std::vector<SourceGroup>& groups, SlotRoutes* out,
                    SweepWorkspace* ws, SpanLog& log) {
  const size_t n = pairs.size();
  out->rtt.assign(n, kInf);
  out->begin.assign(n, 0);
  out->end.assign(n, 0);
  out->nodes.clear();
  const auto emit = [out](size_t pair, const graph::Path& path) {
    out->rtt[pair] = 2.0 * path.distance;
    out->begin[pair] = static_cast<uint32_t>(out->nodes.size());
    out->nodes.insert(out->nodes.end(), path.nodes.begin(), path.nodes.end());
    out->end[pair] = static_cast<uint32_t>(out->nodes.size());
    std::sort(out->nodes.begin() + out->begin[pair], out->nodes.end());
  };
  Components(snap, ws, log);
  for (const SourceGroup& group : groups) {
    GatherTargets(snap, pairs, group, ws);
    if (ws->targets.empty()) {
      continue;
    }
    const graph::NodeId src = snap.CityNode(group.src_city);
    if (ws->targets.size() >= leosim::core::kTreeBatchThreshold) {
      const SpanLog::Scope span(log, "graph.tree");
      const graph::TreeReuseCache::RouteView view = ws->tree_cache.Route(
          snap.graph, src, ws->targets, ws->dijkstra, ws->tree);
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        emit(static_cast<size_t>(ws->target_pairs[j]),
             *view.PathTo(ws->targets[j]));
      }
    } else {
      for (size_t j = 0; j < ws->targets.size(); ++j) {
        const auto path = TracedAStar(snap, src, ws->targets[j], ws, log);
        emit(static_cast<size_t>(ws->target_pairs[j]), *path);
      }
    }
  }
}

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

// core/churn_study.cpp RunAggregateChurnStudy's serial diff pass.
leosim::core::AggregateChurn DiffPass(const std::vector<SlotRoutes>& slots,
                                      size_t num_pairs) {
  struct PairTotals {
    int changes{0};
    int steps{0};
    double jaccard_sum{0.0};
    double jitter_sum{0.0};
  };
  std::vector<PairTotals> totals(num_pairs);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  for (size_t s = 0; s < slots.size(); ++s) {
    for (size_t i = 0; i < num_pairs; ++i) {
      const double rtt = slots[s].rtt[i];
      if (rtt == kInf || s == 0 || slots[s - 1].rtt[i] == kInf) {
        continue;
      }
      PairTotals& pt = totals[i];
      const std::span<const graph::NodeId> cur = slots[s].PathNodes(i);
      const std::span<const graph::NodeId> prev = slots[s - 1].PathNodes(i);
      if (!std::equal(cur.begin(), cur.end(), prev.begin(), prev.end())) {
        ++pt.changes;
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
  leosim::core::AggregateChurn agg;
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
  return agg;
}

std::vector<leosim::core::PairRttSeries> InitSeries(
    const std::vector<CityPair>& pairs, size_t num_slots) {
  std::vector<leosim::core::PairRttSeries> series(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    series[i].pair = pairs[i];
    series[i].rtt_ms.assign(num_slots, kInf);
  }
  return series;
}

}  // namespace

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, hash_);
  return buf;
}

std::string DigestLatency(const leosim::core::LatencyStudyResult& r) {
  Digest d;
  for (const double t : r.snapshot_times) {
    d.Add(t);
  }
  for (const auto* series : {&r.bp, &r.hybrid}) {
    for (const leosim::core::PairRttSeries& s : *series) {
      d.Add(s.pair.a);
      d.Add(s.pair.b);
      for (const double rtt : s.rtt_ms) {
        d.Add(rtt);
      }
    }
  }
  return d.Hex();
}

std::string DigestThroughput(const FigsOutput& out) {
  Digest d;
  for (const auto* sweep : {&out.bp_throughput, &out.hybrid_throughput}) {
    for (const leosim::core::ThroughputResult& r : *sweep) {
      d.Add(r.total_gbps);
      d.Add(r.pairs_routed);
      d.Add(r.subflows);
      d.Add(r.mean_paths_per_pair);
    }
  }
  return d.Hex();
}

std::string DigestChurn(const leosim::core::AggregateChurn& c) {
  Digest d;
  d.Add(c.mean_change_rate);
  d.Add(c.mean_jaccard);
  d.Add(c.mean_rtt_jitter_ms);
  d.Add(c.pairs_evaluated);
  return d.Hex();
}

std::string DigestTrace() {
  const NetTraceRecorder& recorder = NetTraceRecorder::Global();
  Digest d;
  const auto add_links = [&d](const std::vector<NetTraceRecorder::Link>& links) {
    d.Add(static_cast<int64_t>(links.size()));
    for (const NetTraceRecorder::Link& l : links) {
      d.Add(l.a);
      d.Add(l.b);
      d.Add(l.delay_ms);
      d.Add(l.capacity_gbps);
    }
  };
  const auto add_ids = [&d](const std::vector<int32_t>& ids) {
    d.Add(static_cast<int64_t>(ids.size()));
    for (const int32_t id : ids) {
      d.Add(id);
    }
  };
  for (int s = 0; s < recorder.NumSlots(); ++s) {
    const NetTraceRecorder::SlotRecord& rec = recorder.Slot(s);
    d.Add(rec.captured);
    d.Add(rec.time_sec);
    d.Add(rec.num_sats);
    d.Add(rec.num_cities);
    d.Add(rec.num_relays);
    d.Add(rec.num_aircraft);
    for (const leosim::geo::Vec3& p : rec.node_ecef) {
      d.Add(p.x);
      d.Add(p.y);
      d.Add(p.z);
    }
    add_links(rec.radio_links);
    add_links(rec.isl_links);
    for (const NetTraceRecorder::StudyEvent& e : rec.events) {
      d.Add(static_cast<int>(e.kind));
      d.Add(e.pair);
      d.Add(e.rtt_ms);
      add_ids(e.nodes);
      add_ids(e.nodes2);
    }
  }
  return d.Hex();
}

FigsOutput ReplayFigs(const NetworkModel& bp, const NetworkModel& hybrid,
                      const std::vector<CityPair>& pairs,
                      const leosim::core::SnapshotSchedule& schedule,
                      SpanLog& log, ReplayCounters* counters) {
  // RunLatencyStudy builds each slot once and masks the ISLs for the
  // bent-pipe answers when the two models allow it; the replay covers
  // that path only.
  if (!leosim::core::CanDeriveBentPipeByMasking(bp, hybrid)) {
    throw std::logic_error("figs replay needs maskable bent-pipe/hybrid models");
  }
  const SpanLog::Scope root(log, "replay");
  const std::vector<double> times = schedule.Times();
  const std::vector<SourceGroup> groups =
      leosim::core::GroupPairsBySource(pairs);
  FigsOutput out;
  out.latency.snapshot_times = times;
  out.latency.bp = InitSeries(pairs, times.size());
  out.latency.hybrid = InitSeries(pairs, times.size());
  {
    SweepWorkspace ws;
    for (size_t slot = 0; slot < times.size(); ++slot) {
      const SpanLog::Scope slot_span(log, "slot");
      NetworkModel::Snapshot& snap =
          TracedBuildOrStep(hybrid, times[slot], &ws, log);
      RouteSlotRtts(snap, slot, pairs, groups, &out.latency.hybrid, &ws, log);
      {
        const SpanLog::Scope span(log, "graph.isl_mask");
        for (const graph::EdgeId e : snap.isl_edges) {
          snap.graph.SetEnabled(e, false);
        }
      }
      RouteSlotRtts(snap, slot, pairs, groups, &out.latency.bp, &ws, log);
      const SpanLog::Scope span(log, "graph.isl_mask");
      for (const graph::EdgeId e : snap.isl_edges) {
        snap.graph.SetEnabled(e, true);
      }
    }
  }
  for (const NetworkModel* model : {&bp, &hybrid}) {
    std::vector<leosim::core::ThroughputResult>& results =
        model == &bp ? out.bp_throughput : out.hybrid_throughput;
    results.resize(times.size());
    SweepWorkspace ws;
    for (size_t slot = 0; slot < times.size(); ++slot) {
      const SpanLog::Scope slot_span(log, "slot");
      NetworkModel::Snapshot* snap = nullptr;
      {
        const SpanLog::Scope span(log, "builder.build");
        snap = &model->BuildSnapshot(times[slot], &ws.snapshot);
      }
      results[slot] =
          ThroughputAtSnapshot(*snap, pairs, groups, &ws, log, counters);
    }
  }
  return out;
}

ChurnOutput ReplayChurn(const NetworkModel& model,
                        const std::vector<CityPair>& pairs,
                        const leosim::core::SnapshotSchedule& schedule,
                        bool export_trace, SpanLog& log,
                        ReplayCounters* counters) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(export_trace);
  const SpanLog::Scope root(log, "replay");
  const std::vector<double> times = schedule.Times();
  const std::vector<SourceGroup> groups =
      leosim::core::GroupPairsBySource(pairs);
  if (export_trace) {
    net_trace.SetTimeline(times);
  }
  std::vector<SlotRoutes> slots(times.size());
  SweepWorkspace ws;
  for (size_t s = 0; s < times.size(); ++s) {
    const SpanLog::Scope slot_span(log, "slot");
    const NetworkModel::Snapshot& snap =
        TracedBuildOrStep(model, times[s], &ws, log);
    if (export_trace) {
      const SpanLog::Scope span(log, "nettrace.capture");
      net_trace.CaptureSlot(static_cast<int>(s), times[s], snap);
    }
    RouteSlotPaths(snap, pairs, groups, &slots[s], &ws, log);
  }
  ChurnOutput out;
  {
    const SpanLog::Scope span(log, "churn.diff");
    out.churn = DiffPass(slots, pairs.size());
  }
  counters->tree_reuses += ws.tree_cache.stats().reuses;
  if (export_trace) {
    {
      const SpanLog::Scope span(log, "nettrace.serialize");
      out.trace_bytes =
          net_trace.NetStateJsonl().size() + net_trace.NetEventsJsonl().size();
    }
    const SpanLog::Scope span(log, "nettrace.validate");
    out.validate_ok = net_trace.ValidateReplay(&out.validate_why);
  }
  return out;
}

}  // namespace perfbench
