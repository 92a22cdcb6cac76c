#include "core/multishell_study.hpp"

#include <limits>

#include "core/report.hpp"
#include "core/temporal_sweep.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"

namespace leosim::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

MultishellResult RunMultishellStudy(const Scenario& scenario,
                                    const orbit::OrbitalShell& second_shell,
                                    std::vector<data::City> cities,
                                    const std::string& city_a,
                                    const std::string& city_b,
                                    const SnapshotSchedule& schedule) {
  NetworkOptions options;
  options.mode = ConnectivityMode::kIslOnly;  // city GTs + ISLs

  const NetworkModel single(scenario, options, cities);
  const NetworkModel dual(scenario, options, cities, {second_shell});

  const int idx_a = data::CityIndexByName(single.cities(), city_a);
  const int idx_b = data::CityIndexByName(single.cities(), city_b);

  const StudyTimer timer;
  StudySummary summary;
  summary.study = "multishell";
  MultishellResult result;
  result.times_sec = schedule.Times();
  const size_t slots = result.times_sec.size();
  result.single_shell_rtt_ms.assign(slots, kInf);
  result.dual_shell_rtt_ms.assign(slots, kInf);
  // Two streams per slot — the single- and dual-shell builds are
  // independent, so they load-balance as separate sweep items; the
  // comparison below runs serially over the slot-indexed arrays.
  const TemporalSweep sweep(result.times_sec, 2);
  sweep.Run("multishell", [&](const SweepItem& item, SweepWorkspace& ws) {
    const NetworkModel& model = item.stream == 0 ? single : dual;
    std::vector<double>& rtts = item.stream == 0 ? result.single_shell_rtt_ms
                                                 : result.dual_shell_rtt_ms;
    const auto& snap = model.BuildSnapshot(item.time_sec, &ws.snapshot);
    const auto path = graph::ShortestPath(snap.graph, snap.CityNode(idx_a),
                                          snap.CityNode(idx_b), ws.dijkstra);
    rtts[static_cast<size_t>(item.slot)] =
        path ? 2.0 * path->distance : kInf;
  });
  summary.snapshots_built = 2 * static_cast<uint64_t>(slots);

  double improvement_sum = 0.0;
  int improvement_count = 0;
  for (size_t s = 0; s < slots; ++s) {
    const double single_rtt = result.single_shell_rtt_ms[s];
    const double dual_rtt = result.dual_shell_rtt_ms[s];
    summary.pairs_routed +=
        (single_rtt != kInf ? 1 : 0) + (dual_rtt != kInf ? 1 : 0);
    summary.pairs_unreachable +=
        (single_rtt != kInf ? 0 : 1) + (dual_rtt != kInf ? 0 : 1);
    if (dual_rtt < single_rtt - 1e-9) {
      ++result.improved_snapshots;
    }
    if (single_rtt != kInf && dual_rtt != kInf) {
      improvement_sum += single_rtt - dual_rtt;
      ++improvement_count;
    }
  }
  if (improvement_count > 0) {
    result.mean_improvement_ms = improvement_sum / improvement_count;
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return result;
}

}  // namespace leosim::core
