#include "core/attenuation_study.hpp"

#include <algorithm>
#include <utility>

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "data/cities.hpp"
#include "geo/geodesic.hpp"
#include "itur/slant_path.hpp"

namespace leosim::core {

double RadioLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap, graph::NodeId ground,
                              graph::NodeId sat, double frequency_ghz,
                              double exceedance_pct) {
  const double elevation =
      geo::ElevationAngleDeg(snap.node_ecef[static_cast<size_t>(ground)],
                             snap.node_ecef[static_cast<size_t>(sat)]);
  return itur::SlantPathAttenuationDb(model.GroundNodeCoord(snap, ground),
                                      elevation, frequency_ghz, exceedance_pct);
}

double WorstLinkAttenuationDb(const NetworkModel& model,
                              const NetworkModel::Snapshot& snap,
                              const graph::Path& path, double exceedance_pct) {
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
    worst = std::max(
        worst, RadioLinkAttenuationDb(
                   model, snap, up ? u : v, up ? v : u,
                   up ? radio.uplink_freq_ghz : radio.downlink_freq_ghz,
                   exceedance_pct));
  }
  return worst;
}

AttenuationDistributions RunAttenuationStudy(const NetworkModel& bp_model,
                                             const NetworkModel& isl_model,
                                             const std::vector<CityPair>& pairs,
                                             double time_sec) {
  const StudyTimer timer;
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SweepWorkspace ws;
  // One model's snapshot: each reachable pair's worst-link attenuation,
  // appended in pair order.
  const auto route = [&](const NetworkModel& model, std::vector<double>* db,
                         int* unreachable) {
    const NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws.snapshot);
    for (const graph::Path& path : RoutePairPaths(snap, pairs, groups, ws)) {
      if (path.nodes.empty()) {
        ++*unreachable;
      } else {
        db->push_back(WorstLinkAttenuationDb(model, snap, path, kHeadlineExceedancePct));
      }
    }
  };
  AttenuationDistributions result;
  route(bp_model, &result.bp_db, &result.bp_unreachable);
  route(isl_model, &result.isl_db, &result.isl_unreachable);

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
                                         const std::vector<double>& exceedances) {
  PathAttenuationCcdf out;
  out.exceedance_pct = exceedances;
  SweepWorkspace ws;
  // One model's path at every exceedance (0 dB when unreachable); returns
  // whether the pair is reachable.
  const auto trace = [&](const NetworkModel& model, std::vector<double>* db) {
    const std::vector<CityPair> pair = {{data::CityIndexByName(model.cities(), city_a),
                                         data::CityIndexByName(model.cities(), city_b)}};
    const NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, &ws.snapshot);
    const graph::Path path =
        std::move(RoutePairPaths(snap, pair, GroupPairsBySource(pair), ws)[0]);
    for (const double p : exceedances) {
      db->push_back(path.nodes.empty() ? 0.0
                                       : WorstLinkAttenuationDb(model, snap, path, p));
    }
    return !path.nodes.empty();
  };
  out.bp_reachable = trace(bp_model, &out.bp_db);
  out.isl_reachable = trace(isl_model, &out.isl_db);
  return out;
}

}  // namespace leosim::core
