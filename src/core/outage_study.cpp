#include "core/outage_study.hpp"

#include <algorithm>

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {

std::vector<OutageRow> RunOutageStudy(const NetworkModel& model,
                                      const std::vector<CityPair>& pairs,
                                      const OutageStudyOptions& options) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "outage";
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(0.0, &ws.snapshot);
  summary.snapshots_built = 1;
  const link::RadioConfig& radio = model.scenario().radio;
  const double exceedance_pct = 0.1;

  // Worst-direction attenuation per radio link (up-link frequency is the
  // higher one and rain attenuation grows with frequency, so it wins; we
  // still evaluate both for correctness).
  std::vector<double> link_attenuation(snap.radio_edges.size(), 0.0);
  for (size_t i = 0; i < snap.radio_edges.size(); ++i) {
    const graph::EdgeRecord& rec = snap.graph.Edge(snap.radio_edges[i]);
    const graph::NodeId ground = snap.IsSat(rec.a) ? rec.b : rec.a;
    const graph::NodeId sat = snap.IsSat(rec.a) ? rec.a : rec.b;
    link_attenuation[i] = std::max(
        RadioLinkAttenuationDb(model, snap, ground, sat, radio.uplink_freq_ghz,
                               exceedance_pct),
        RadioLinkAttenuationDb(model, snap, ground, sat, radio.downlink_freq_ghz,
                               exceedance_pct));
  }

  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  std::vector<OutageRow> rows;
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  obs::ProgressReporter progress(
      "outage", static_cast<uint64_t>(options.margins_db.size()));
  for (const double margin : options.margins_db) {
    // Disable links that would be in outage at this margin.
    int disabled = 0;
    for (size_t i = 0; i < snap.radio_edges.size(); ++i) {
      const bool dead = link_attenuation[i] > margin;
      snap.graph.SetEnabled(snap.radio_edges[i], !dead);
      disabled += dead ? 1 : 0;
    }

    OutageRow row;
    row.margin_db = margin;
    row.links_disabled_fraction =
        snap.radio_edges.empty()
            ? 0.0
            : static_cast<double>(disabled) / snap.radio_edges.size();
    int reachable = 0;
    double rtt_sum = 0.0;
    for (const graph::Path& path : RoutePairPaths(snap, pairs, groups, ws)) {
      if (!path.nodes.empty()) {
        ++reachable;
        ++summary.pairs_routed;
        rtt_sum += 2.0 * path.distance;
      } else {
        ++summary.pairs_unreachable;
      }
    }
    row.reachable_fraction =
        pairs.empty() ? 0.0 : static_cast<double>(reachable) / pairs.size();
    row.mean_rtt_ms = reachable > 0 ? rtt_sum / reachable : 0.0;
    // The study sweeps margin, not time: samples use margin_db as the x
    // coordinate (see the timeseries header comment).
    recorder.Record(margin, "outage.reachable_fraction", row.reachable_fraction);
    recorder.Record(margin, "outage.links_disabled_fraction",
                    row.links_disabled_fraction);
    recorder.Record(margin, "outage.mean_rtt_ms", row.mean_rtt_ms);
    rows.push_back(row);
    progress.Step();
  }
  // Restore the snapshot for good hygiene (it is ours, but cheap).
  snap.graph.EnableAllEdges();
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return rows;
}

}  // namespace leosim::core
