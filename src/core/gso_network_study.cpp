#include "core/gso_network_study.hpp"

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"

namespace leosim::core {

namespace {

GsoModeImpact CompareMode(const Scenario& scenario,
                          const std::vector<data::City>& cities,
                          const std::vector<CityPair>& pairs,
                          NetworkOptions options, StudySummary* summary) {
  options.apply_gso_exclusion = false;
  const NetworkModel plain(scenario, options, cities);
  options.apply_gso_exclusion = true;
  const NetworkModel excluded(scenario, options, cities);

  // One workspace: each model's paths are routed, in pair order, before
  // the next snapshot is built into it.
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  SweepWorkspace ws;
  const std::vector<graph::Path> p0 = RoutePairPaths(
      plain.BuildSnapshot(0.0, &ws.snapshot), pairs, groups, ws);
  const std::vector<graph::Path> p1 = RoutePairPaths(
      excluded.BuildSnapshot(0.0, &ws.snapshot), pairs, groups, ws);
  summary->snapshots_built += 2;

  GsoModeImpact impact;
  impact.pairs = static_cast<int>(pairs.size());
  double rtt_without_sum = 0.0;
  double rtt_with_sum = 0.0;
  int both = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const bool r0 = !p0[i].nodes.empty();
    const bool r1 = !p1[i].nodes.empty();
    if (r0) {
      ++impact.reachable_without_exclusion;
      ++summary->pairs_routed;
    } else {
      ++summary->pairs_unreachable;
    }
    if (r1) {
      ++impact.reachable_with_exclusion;
      ++summary->pairs_routed;
    } else {
      ++summary->pairs_unreachable;
    }
    if (r0 && r1) {
      rtt_without_sum += 2.0 * p0[i].distance;
      rtt_with_sum += 2.0 * p1[i].distance;
      ++both;
    }
  }
  if (both > 0) {
    impact.mean_rtt_without_ms = rtt_without_sum / both;
    impact.mean_rtt_with_ms = rtt_with_sum / both;
  }
  return impact;
}

}  // namespace

std::vector<CityPair> CrossHemispherePairs(const std::vector<data::City>& cities,
                                           const std::vector<CityPair>& pairs) {
  std::vector<CityPair> crossing;
  for (const CityPair& pair : pairs) {
    const double lat_a = cities[static_cast<size_t>(pair.a)].latitude_deg;
    const double lat_b = cities[static_cast<size_t>(pair.b)].latitude_deg;
    if (lat_a * lat_b < 0.0) {
      crossing.push_back(pair);
    }
  }
  return crossing;
}

GsoNetworkResult RunGsoNetworkStudy(const Scenario& scenario,
                                    const std::vector<data::City>& cities,
                                    const std::vector<CityPair>& pairs,
                                    const NetworkOptions& base_options) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "gso_network";
  GsoNetworkResult result;
  NetworkOptions bp = base_options;
  bp.mode = ConnectivityMode::kBentPipe;
  result.bent_pipe = CompareMode(scenario, cities, pairs, bp, &summary);
  NetworkOptions hybrid = base_options;
  hybrid.mode = ConnectivityMode::kHybrid;
  result.hybrid = CompareMode(scenario, cities, pairs, hybrid, &summary);
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

}  // namespace leosim::core
