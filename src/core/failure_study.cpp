#include "core/failure_study.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/temporal_sweep.hpp"
#include "data/rng.hpp"

namespace leosim::core {

namespace {

constexpr uint64_t kFailureSeed = 7;

}  // namespace

std::vector<FailureRow> RunFailureStudy(const NetworkModel& model,
                                        const std::vector<CityPair>& pairs,
                                        const FailureStudyOptions& options) {
  const StudyTimer timer;
  StudySummary summary;
  summary.study = "failure";
  SweepWorkspace ws;
  NetworkModel::Snapshot& snap = model.BuildSnapshot(0.0, &ws.snapshot);
  summary.snapshots_built = 1;
  data::SplitMix64 rng(kFailureSeed);
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);

  std::vector<FailureRow> rows;
  for (const double fraction : options.failure_fractions) {
    const int failures =
        static_cast<int>(fraction * static_cast<double>(snap.num_sats));
    double reachable_sum = 0.0;
    double rtt_sum = 0.0;
    int rtt_count = 0;
    const int trials = failures == 0 ? 1 : std::max(options.trials, 1);
    for (int trial = 0; trial < trials; ++trial) {
      // Kill a random satellite subset: disable all their incident edges.
      std::vector<int> order(static_cast<size_t>(snap.num_sats));
      std::iota(order.begin(), order.end(), 0);
      for (int i = 0; i < failures; ++i) {
        std::swap(order[static_cast<size_t>(i)],
                  order[static_cast<size_t>(i + rng.NextInt(snap.num_sats - i))]);
      }
      std::vector<graph::EdgeId> disabled;
      for (int i = 0; i < failures; ++i) {
        for (const graph::HalfEdge& half :
             snap.graph.Neighbours(snap.SatNode(order[static_cast<size_t>(i)]))) {
          if (snap.graph.IsEnabled(half.edge)) {
            snap.graph.SetEnabled(half.edge, false);
            disabled.push_back(half.edge);
          }
        }
      }

      int reachable = 0;
      for (const graph::Path& path : RoutePairPaths(snap, pairs, groups, ws)) {
        if (!path.nodes.empty()) {
          ++reachable;
          ++summary.pairs_routed;
          rtt_sum += 2.0 * path.distance;
          ++rtt_count;
        } else {
          ++summary.pairs_unreachable;
        }
      }
      if (!pairs.empty()) {
        reachable_sum += static_cast<double>(reachable) / pairs.size();
      }

      for (const graph::EdgeId e : disabled) {
        snap.graph.SetEnabled(e, true);
      }
    }
    FailureRow row;
    row.failure_fraction = fraction;
    row.reachable_fraction = reachable_sum / trials;
    row.mean_rtt_ms = rtt_count > 0 ? rtt_sum / rtt_count : 0.0;
    rows.push_back(row);
  }
  summary.wall_seconds = timer.Seconds();
  EmitStudySummary(summary);
  return rows;
}

}  // namespace leosim::core
