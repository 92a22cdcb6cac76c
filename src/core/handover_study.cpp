#include "core/handover_study.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/temporal_sweep.hpp"
#include "orbit/walker.hpp"

namespace leosim::core {

HandoverStats RunHandoverStudy(const Scenario& scenario,
                               const geo::GeodeticCoord& terminal,
                               const HandoverStudyOptions& options) {
  const StudyTimer timer;
  const orbit::Constellation constellation =
      orbit::Constellation::WalkerDelta(scenario.shell);
  std::vector<double> times;
  for (int i = 0; i * options.step_sec <= options.duration_sec; ++i) {
    times.push_back(i * options.step_sec);
  }
  const std::vector<std::vector<std::vector<int>>> visible_at =
      SampleVisibility("handover", constellation, scenario.radio.min_elevation_deg,
                       {geo::GeodeticToEcef(terminal)}, times);

  // Track per-satellite visibility intervals over the sampled window.
  std::map<int, double> pass_start;  // satellite -> time it rose
  std::vector<double> completed_durations;
  int visible_sum = 0;
  int outage_samples = 0;
  int endings = 0;

  // This study samples visibility directly (no snapshots), so any trace
  // it leaves is event-only: handover events per slot, no netstate
  // keyframes.
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  if (net_trace.Enabled()) {
    net_trace.SetTimeline(times);
  }

  const std::vector<int> none;
  std::vector<int32_t> gained;
  std::vector<int32_t> lost;
  for (size_t slot = 0; slot < times.size(); ++slot) {
    const double t = times[slot];
    const std::vector<int>& visible = visible_at[slot][0];
    const std::vector<int>& previous = slot == 0 ? none : visible_at[slot - 1][0];
    visible_sum += static_cast<int>(visible.size());
    if (visible.empty()) {
      ++outage_samples;
    }

    gained.clear();
    lost.clear();
    // Risers: in `visible` but not in `previous`.
    for (const int sat : visible) {
      if (!std::binary_search(previous.begin(), previous.end(), sat)) {
        pass_start.emplace(sat, t);
        gained.push_back(sat);
      }
    }
    // Setters: in `previous` but not in `visible`.
    for (const int sat : previous) {
      if (!std::binary_search(visible.begin(), visible.end(), sat)) {
        ++endings;
        lost.push_back(sat);
        const auto it = pass_start.find(sat);
        if (it != pass_start.end()) {
          completed_durations.push_back(t - it->second);
          pass_start.erase(it);
        }
      }
    }
    if (net_trace.Enabled() && (!lost.empty() || !gained.empty())) {
      net_trace.AddHandover(static_cast<int>(slot), lost, gained);
    }
  }

  HandoverStats stats;
  stats.completed_passes = static_cast<int>(completed_durations.size());
  if (!completed_durations.empty()) {
    double sum = 0.0;
    double max = 0.0;
    double min = std::numeric_limits<double>::infinity();
    for (const double d : completed_durations) {
      sum += d;
      max = std::max(max, d);
      min = std::min(min, d);
    }
    stats.mean_pass_duration_sec = sum / completed_durations.size();
    stats.max_pass_duration_sec = max;
    stats.min_pass_duration_sec = min;
  }
  stats.mean_visible_sats = static_cast<double>(visible_sum) / times.size();
  stats.pass_endings_per_hour = endings / (options.duration_sec / 3600.0);
  stats.outage_fraction = static_cast<double>(outage_samples) / times.size();
  StudySummary summary;
  summary.study = "handover";
  summary.snapshots_built = times.size();
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return stats;
}

}  // namespace leosim::core
