#include "core/fiber_study.hpp"

#include <set>

#include "core/report.hpp"
#include "core/temporal_sweep.hpp"
#include "geo/geodesic.hpp"

namespace leosim::core {

FiberStudyResult RunFiberStudy(const Scenario& scenario,
                               const std::vector<data::City>& cities,
                               const SnapshotSchedule& schedule) {
  const StudyTimer timer;
  const ground::FiberGroup group = ground::BuildFiberGroup(cities, "Paris");

  orbit::Constellation constellation;
  constellation.AddShell(scenario.shell);

  // Per-snapshot visibility, metro first then members.
  std::vector<const data::City*> sites{&group.metro};
  std::vector<geo::Vec3> site_ecef{geo::GeodeticToEcef(group.metro.Coord())};
  for (const data::City& c : group.satellites_cities) {
    sites.push_back(&c);
    site_ecef.push_back(geo::GeodeticToEcef(c.Coord()));
  }
  const std::vector<double> times = schedule.Times();
  std::vector<double> visible_sum(sites.size(), 0.0);
  double group_distinct_sum = 0.0;
  for (const std::vector<std::vector<int>>& visible :
       SampleVisibility("fiber", constellation, scenario.radio.min_elevation_deg,
                        site_ecef, times)) {
    std::set<int> group_sats;
    for (size_t i = 0; i < sites.size(); ++i) {
      visible_sum[i] += static_cast<double>(visible[i].size());
      group_sats.insert(visible[i].begin(), visible[i].end());
    }
    group_distinct_sum += static_cast<double>(group_sats.size());
  }

  const double n = static_cast<double>(times.size());
  FiberStudyResult result;
  result.metro.city = group.metro.name;
  result.metro.mean_visible_sats = visible_sum[0] / n;
  result.metro.fiber_latency_ms = 0.0;
  for (size_t i = 1; i < sites.size(); ++i) {
    FiberMemberStats stats;
    stats.city = sites[i]->name;
    stats.mean_visible_sats = visible_sum[i] / n;
    stats.fiber_latency_ms = ground::FiberLatencyMs(
        geo::GreatCircleDistanceKm(group.metro.Coord(), sites[i]->Coord()));
    result.members.push_back(stats);
  }
  result.metro_mean_distinct_sats = visible_sum[0] / n;
  result.group_mean_distinct_sats = group_distinct_sum / n;
  result.metro_capacity_gbps =
      result.metro_mean_distinct_sats * scenario.radio.capacity_gbps;
  result.group_capacity_gbps =
      result.group_mean_distinct_sats * scenario.radio.capacity_gbps;
  result.capacity_gain = result.metro_capacity_gbps > 0.0
                             ? result.group_capacity_gbps / result.metro_capacity_gbps
                             : 0.0;
  result.metro_mean_links = visible_sum[0] / n;
  double total_links = 0.0;
  for (const double v : visible_sum) {
    total_links += v;
  }
  result.group_mean_links = total_links / n;
  result.link_gain = result.metro_mean_links > 0.0
                         ? result.group_mean_links / result.metro_mean_links
                         : 0.0;
  StudySummary summary;
  summary.study = "fiber";
  summary.snapshots_built = times.size();
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

}  // namespace leosim::core
