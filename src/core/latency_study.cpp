#include "core/latency_study.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/snapshot_stepper.hpp"
#include "core/stats.hpp"
#include "core/temporal_sweep.hpp"
#include "data/cities.hpp"
#include "geo/coordinates.hpp"
#include "graph/dijkstra.hpp"
#include "link/radio.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<PairRttSeries> InitSeries(const std::vector<CityPair>& pairs,
                                      size_t num_snapshots) {
  std::vector<PairRttSeries> series;
  series.reserve(pairs.size());
  for (const CityPair& p : pairs) {
    PairRttSeries s;
    s.pair = p;
    s.rtt_ms.assign(num_snapshots, kInf);
    series.push_back(std::move(s));
  }
  return series;
}

// Fills snapshot column `slot` of every pair's series from one built
// snapshot through the shared tier dispatch (core/routing_tiers.hpp).
// Unreachable pairs are never visited, so their column stays +inf.
// Writes only this slot's column, so concurrent calls for distinct
// slots never conflict.
void RouteSlot(const NetworkModel::Snapshot& snap, size_t slot,
               const std::vector<CityPair>& pairs,
               const std::vector<SourceGroup>& groups,
               std::vector<PairRttSeries>* series, SweepWorkspace* ws) {
  RouteSourceGroups(snap, pairs, groups, *ws,
                    [series, slot](int i, double distance, const auto&) {
                      // RTT = out-and-back over the same path.
                      (*series)[static_cast<size_t>(i)].rtt_ms[slot] =
                          2.0 * distance;
                    });
}

// One sample per snapshot per series: the cross-pair RTT distribution
// (p50/p95 over reachable pairs) and the unreachable-pair count. Derived
// from the completed series after the parallel sweep and emitted through
// RecordSeries' serial slot walk, so recording is independent of worker
// scheduling.
void RecordLatencyTimeseries(const std::string& prefix,
                             const std::vector<double>& times,
                             const std::vector<PairRttSeries>& series) {
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  if (!recorder.Enabled()) {
    return;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> unreachable(times.size(), 0.0);
  std::vector<double> p50(times.size(), nan);  // NaN = no sample this slot
  std::vector<double> p95(times.size(), nan);
  std::vector<double> reachable;
  for (size_t slot = 0; slot < times.size(); ++slot) {
    reachable.clear();
    for (const PairRttSeries& s : series) {
      const double rtt = s.rtt_ms[slot];
      if (rtt == kInf) {
        unreachable[slot] += 1.0;
      } else {
        reachable.push_back(rtt);
      }
    }
    if (!reachable.empty()) {
      p50[slot] = Percentile(reachable, 50.0);
      p95[slot] = Percentile(reachable, 95.0);
    }
  }
  recorder.RecordSeries(prefix + ".unreachable", times, unreachable);
  recorder.RecordSeries(prefix + ".rtt_p50_ms", times, p50);
  recorder.RecordSeries(prefix + ".rtt_p95_ms", times, p95);
}

// Emits reachability *transitions* for every pair of the hybrid series
// into the network trace: a pair that routes at slot s after failing at
// s-1 raises `reachable`, the reverse raises `unreachable`. Serial and
// slot-major, so the event order inside each slot is the pair order —
// deterministic regardless of how the sweep scheduled the routing.
void RecordReachabilityTransitions(const std::vector<PairRttSeries>& series) {
  NetTraceRecorder& recorder = NetTraceRecorder::Global();
  if (!recorder.Enabled()) {
    return;
  }
  if (series.empty()) {
    return;
  }
  const size_t slots = series.front().rtt_ms.size();
  for (size_t slot = 1; slot < slots; ++slot) {
    for (size_t i = 0; i < series.size(); ++i) {
      const double prev = series[i].rtt_ms[slot - 1];
      const double cur = series[i].rtt_ms[slot];
      if (prev == kInf && cur != kInf) {
        recorder.AddReachable(static_cast<int>(slot), static_cast<int>(i), cur);
      } else if (prev != kInf && cur == kInf) {
        recorder.AddUnreachable(static_cast<int>(slot), static_cast<int>(i));
      }
    }
  }
}

}  // namespace

std::vector<double> SnapshotSchedule::Times() const {
  std::vector<double> times;
  for (double t = 0.0; t < duration_sec; t += step_sec) {
    times.push_back(t);
  }
  return times;
}

double PairRttSeries::MinRtt() const {
  double best = kInf;
  for (const double r : rtt_ms) {
    best = std::min(best, r);
  }
  return best;
}

double PairRttSeries::MaxRtt() const {
  double worst = -kInf;
  for (const double r : rtt_ms) {
    if (r != kInf) {
      worst = std::max(worst, r);
    }
  }
  return worst;
}

double PairRttSeries::Range() const {
  const double min = MinRtt();
  const double max = MaxRtt();
  if (min == kInf || max == -kInf) {
    return kInf;  // never reachable
  }
  return max - min;
}

int PairRttSeries::UnreachableCount() const {
  return static_cast<int>(std::count(rtt_ms.begin(), rtt_ms.end(), kInf));
}

std::vector<double> LatencyStudyResult::MinRtts(
    const std::vector<PairRttSeries>& series) const {
  std::vector<double> values;
  for (const PairRttSeries& s : series) {
    const double v = s.MinRtt();
    if (v != kInf) {
      values.push_back(v);
    }
  }
  return values;
}

std::vector<double> LatencyStudyResult::Ranges(
    const std::vector<PairRttSeries>& series) const {
  std::vector<double> values;
  for (const PairRttSeries& s : series) {
    const double v = s.Range();
    if (v != kInf) {
      values.push_back(v);
    }
  }
  return values;
}

LatencyStudyResult RunLatencyStudy(const NetworkModel& bp_model,
                                   const NetworkModel& hybrid_model,
                                   const std::vector<CityPair>& pairs,
                                   const SnapshotSchedule& schedule) {
  const StudyTimer timer;
  LatencyStudyResult result;
  result.snapshot_times = schedule.Times();
  result.bp = InitSeries(pairs, result.snapshot_times.size());
  result.hybrid = InitSeries(pairs, result.snapshot_times.size());
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  const int slots = static_cast<int>(result.snapshot_times.size());

  // When the two models differ only in connectivity mode, each slot is
  // built ONCE (the hybrid snapshot) and the bent-pipe answers come from
  // the same snapshot with its ISL edges masked off — bit-identical to a
  // dedicated bent-pipe build (see CanDeriveBentPipeByMasking) at half
  // the construction cost. Otherwise the two models are independent
  // streams of the sweep.
  const bool shared_build = CanDeriveBentPipeByMasking(bp_model, hybrid_model);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(result.snapshot_times);
  }
  uint64_t snapshots_built = 0;
  if (shared_build) {
    const TemporalSweep sweep(result.snapshot_times, 1);
    sweep.Run("latency", [&](const SweepItem& item, SweepWorkspace& ws) {
      // Fine-spaced slots advance the previous snapshot incrementally
      // (bit-identical to a rebuild); the ISL masking below composes with
      // stepping because the next step rewrites every ISL weight, which
      // re-enables the edge.
      NetworkModel::Snapshot& snap = BuildOrStepSnapshot(
          hybrid_model, item.time_sec, &ws.snapshot, &ws.stepper);
      const size_t slot = static_cast<size_t>(item.slot);
      // Capture before the ISL masking below: the traced network is the
      // hybrid topology as built, and distinct slots never race.
      if (net_trace.Enabled()) {
        net_trace.CaptureSlot(item.slot, item.time_sec, snap);
      }
      RouteSlot(snap, slot, pairs, groups, &result.hybrid, &ws);
      for (const graph::EdgeId e : snap.isl_edges) {
        snap.graph.SetEnabled(e, false);
      }
      RouteSlot(snap, slot, pairs, groups, &result.bp, &ws);
      for (const graph::EdgeId e : snap.isl_edges) {
        snap.graph.SetEnabled(e, true);
      }
    });
    snapshots_built = static_cast<uint64_t>(slots);
  } else {
    const TemporalSweep sweep(result.snapshot_times, 2);
    sweep.Run("latency", [&](const SweepItem& item, SweepWorkspace& ws) {
      const NetworkModel& model = item.stream == 0 ? bp_model : hybrid_model;
      std::vector<PairRttSeries>* series =
          item.stream == 0 ? &result.bp : &result.hybrid;
      // No stepping here: a worker's successive items alternate between
      // the two models, so a single stepper would re-prime every item
      // and never get to step.
      const NetworkModel::Snapshot& snap =
          model.BuildSnapshot(item.time_sec, &ws.snapshot);
      // Two distinct models flow through this sweep; the trace records
      // one network, so only the hybrid stream is captured.
      if (item.stream == 1 && net_trace.Enabled()) {
        net_trace.CaptureSlot(item.slot, item.time_sec, snap);
      }
      RouteSlot(snap, static_cast<size_t>(item.slot), pairs, groups, series,
                    &ws);
    });
    snapshots_built = 2 * static_cast<uint64_t>(slots);
  }

  RecordLatencyTimeseries("latency.bp", result.snapshot_times, result.bp);
  RecordLatencyTimeseries("latency.hybrid", result.snapshot_times,
                          result.hybrid);
  RecordReachabilityTransitions(result.hybrid);
  StudySummary summary;
  summary.study = "latency";
  summary.snapshots_built = snapshots_built;
  for (const std::vector<PairRttSeries>* series : {&result.bp, &result.hybrid}) {
    for (const PairRttSeries& s : *series) {
      const uint64_t unreachable = static_cast<uint64_t>(s.UnreachableCount());
      summary.pairs_unreachable += unreachable;
      summary.pairs_routed += s.rtt_ms.size() - unreachable;
    }
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

std::vector<PathObservation> TracePairPath(const NetworkModel& model,
                                           const std::string& city_a,
                                           const std::string& city_b,
                                           const SnapshotSchedule& schedule) {
  const int idx_a = data::CityIndexByName(model.cities(), city_a);
  const int idx_b = data::CityIndexByName(model.cities(), city_b);

  const StudyTimer timer;
  StudySummary summary;
  summary.study = "latency_trace";
  std::vector<PathObservation> trace;
  NetworkModel::SnapshotWorkspace snapshot_ws;
  graph::DijkstraWorkspace dijkstra_ws;
  for (const double t : schedule.Times()) {
    const NetworkModel::Snapshot& snap = model.BuildSnapshot(t, &snapshot_ws);
    ++summary.snapshots_built;
    PathObservation obs;
    obs.time_sec = t;
    const auto path = graph::ShortestPath(snap.graph, snap.CityNode(idx_a),
                                          snap.CityNode(idx_b), dijkstra_ws);
    summary.pairs_routed += path.has_value() ? 1 : 0;
    summary.pairs_unreachable += path.has_value() ? 0 : 1;
    if (path.has_value()) {
      obs.reachable = true;
      obs.rtt_ms = 2.0 * path->distance;
      for (size_t i = 0; i < path->nodes.size(); ++i) {
        const graph::NodeId n = path->nodes[i];
        const bool endpoint = i == 0 || i + 1 == path->nodes.size();
        if (snap.IsSat(n)) {
          ++obs.satellite_hops;
        } else if (snap.IsAircraft(n)) {
          ++obs.aircraft_hops;
        } else if (snap.IsRelay(n)) {
          ++obs.relay_hops;
        } else if (!endpoint) {
          ++obs.city_hops;
        }
        const geo::GeodeticCoord g = geo::EcefToGeodetic(
            snap.node_ecef[static_cast<size_t>(n)]);
        obs.max_node_latitude_deg =
            std::max(obs.max_node_latitude_deg, g.latitude_deg);
        obs.min_node_latitude_deg =
            std::min(obs.min_node_latitude_deg, g.latitude_deg);
      }
    }
    trace.push_back(obs);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return trace;
}

}  // namespace leosim::core
