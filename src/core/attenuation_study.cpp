#include "core/attenuation_study.hpp"

#include <algorithm>

#include "core/report.hpp"
#include "data/cities.hpp"
#include "geo/geodesic.hpp"
#include "itur/slant_path.hpp"

namespace leosim::core {

double WorstLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              const graph::Path& path,
                              const AttenuationOptions& options) {
  const link::RadioConfig& radio = model.scenario().radio;
  double worst = 0.0;
  for (size_t i = 0; i + 1 < path.nodes.size(); ++i) {
    const graph::NodeId u = path.nodes[i];
    const graph::NodeId v = path.nodes[i + 1];
    const bool up = !snap.IsSat(u) && snap.IsSat(v);
    const bool down = snap.IsSat(u) && !snap.IsSat(v);
    if (!up && !down) {
      continue;  // laser ISL: weather-immune
    }
    const graph::NodeId ground = up ? u : v;
    const graph::NodeId sat = up ? v : u;
    const geo::GeodeticCoord gt = model.GroundNodeCoord(snap, ground);
    const double elevation = geo::ElevationAngleDeg(
        snap.node_ecef[static_cast<size_t>(ground)],
        snap.node_ecef[static_cast<size_t>(sat)]);
    itur::SlantPathConfig config;
    config.frequency_ghz = up ? radio.uplink_freq_ghz : radio.downlink_freq_ghz;
    config.antenna_diameter_m = options.antenna_diameter_m;
    config.antenna_efficiency = options.antenna_efficiency;
    worst = std::max(worst, itur::SlantPathAttenuationDb(gt, elevation, config,
                                                         options.exceedance_pct));
  }
  return worst;
}

AttenuationDistributions RunAttenuationStudy(const NetworkModel& bp_model,
                                             const NetworkModel& isl_model,
                                             const std::vector<CityPair>& pairs,
                                             double time_sec,
                                             const AttenuationOptions& options) {
  const StudyTimer timer;
  // Two workspaces: both snapshots stay alive for the whole pair loop.
  NetworkModel::SnapshotWorkspace bp_ws;
  NetworkModel::SnapshotWorkspace isl_ws;
  const NetworkModel::Snapshot& bp_snap = bp_model.BuildSnapshot(time_sec, &bp_ws);
  const NetworkModel::Snapshot& isl_snap = isl_model.BuildSnapshot(time_sec, &isl_ws);

  AttenuationDistributions result;
  graph::DijkstraWorkspace dijkstra_ws;
  for (const CityPair& pair : pairs) {
    const auto bp_path =
        graph::ShortestPath(bp_snap.graph, bp_snap.CityNode(pair.a),
                            bp_snap.CityNode(pair.b), dijkstra_ws);
    if (bp_path.has_value()) {
      result.bp_db.push_back(
          WorstLinkAttenuationDb(bp_model, bp_snap, *bp_path, options));
    } else {
      ++result.bp_unreachable;
    }
    const auto isl_path =
        graph::ShortestPath(isl_snap.graph, isl_snap.CityNode(pair.a),
                            isl_snap.CityNode(pair.b), dijkstra_ws);
    if (isl_path.has_value()) {
      result.isl_db.push_back(
          WorstLinkAttenuationDb(isl_model, isl_snap, *isl_path, options));
    } else {
      ++result.isl_unreachable;
    }
  }
  StudySummary summary;
  summary.study = "attenuation";
  summary.snapshots_built = 2;
  summary.pairs_routed = result.bp_db.size() + result.isl_db.size();
  summary.pairs_unreachable = static_cast<uint64_t>(result.bp_unreachable) +
                              static_cast<uint64_t>(result.isl_unreachable);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

PathAttenuationCcdf TracePairAttenuation(const NetworkModel& bp_model,
                                         const NetworkModel& isl_model,
                                         const std::string& city_a,
                                         const std::string& city_b, double time_sec,
                                         const std::vector<double>& exceedances,
                                         const AttenuationOptions& options) {
  PathAttenuationCcdf out;
  out.exceedance_pct = exceedances;

  const int a_bp = data::CityIndexByName(bp_model.cities(), city_a);
  const int b_bp = data::CityIndexByName(bp_model.cities(), city_b);
  const int a_isl = data::CityIndexByName(isl_model.cities(), city_a);
  const int b_isl = data::CityIndexByName(isl_model.cities(), city_b);
  NetworkModel::SnapshotWorkspace bp_ws;
  NetworkModel::SnapshotWorkspace isl_ws;
  const NetworkModel::Snapshot& bp_snap = bp_model.BuildSnapshot(time_sec, &bp_ws);
  const NetworkModel::Snapshot& isl_snap = isl_model.BuildSnapshot(time_sec, &isl_ws);

  const auto bp_path = graph::ShortestPath(bp_snap.graph, bp_snap.CityNode(a_bp),
                                           bp_snap.CityNode(b_bp));
  const auto isl_path = graph::ShortestPath(isl_snap.graph, isl_snap.CityNode(a_isl),
                                            isl_snap.CityNode(b_isl));
  out.bp_reachable = bp_path.has_value();
  out.isl_reachable = isl_path.has_value();

  for (const double p : exceedances) {
    AttenuationOptions at_p = options;
    at_p.exceedance_pct = p;
    out.bp_db.push_back(
        bp_path ? WorstLinkAttenuationDb(bp_model, bp_snap, *bp_path, at_p) : 0.0);
    out.isl_db.push_back(
        isl_path ? WorstLinkAttenuationDb(isl_model, isl_snap, *isl_path, at_p) : 0.0);
  }
  return out;
}

}  // namespace leosim::core
