// Unit coverage for the TemporalSweep driver plus the headline
// determinism guarantee of this layer: sweep-driven studies produce
// byte-identical outputs (timeseries export and result arrays) at any
// thread count. LEOSIM_THREADS is re-read per run, so one process can
// sweep 1/4/13 workers back to back.
#include "core/temporal_sweep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/coverage_study.hpp"
#include "core/fiber_study.hpp"
#include "core/handover_study.hpp"
#include "core/latency_study.hpp"
#include "core/multishell_study.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "obs/timeseries.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  options.aircraft_scale = 1.0;
  return options;
}

TEST(TemporalSweepTest, RejectsNonPositiveStreams) {
  EXPECT_THROW(TemporalSweep({0.0}, 0), std::invalid_argument);
  EXPECT_THROW(TemporalSweep({0.0}, -3), std::invalid_argument);
}

TEST(TemporalSweepTest, VisitsEverySlotStreamPairExactlyOnce) {
  const TemporalSweep sweep({0.0, 10.0, 20.0}, 2);
  EXPECT_EQ(sweep.slots(), 3);
  EXPECT_EQ(sweep.streams(), 2);
  // Distinct items write distinct entries, so concurrent bodies never
  // conflict — the same discipline the studies follow.
  std::vector<int> visits(6, 0);
  std::vector<double> times(6, -1.0);
  sweep.Run("test", [&](const SweepItem& item, SweepWorkspace&) {
    const size_t entry =
        static_cast<size_t>(item.slot * sweep.streams() + item.stream);
    ++visits[entry];
    times[entry] = item.time_sec;
  });
  for (int slot = 0; slot < 3; ++slot) {
    for (int stream = 0; stream < 2; ++stream) {
      const size_t entry = static_cast<size_t>(slot * 2 + stream);
      EXPECT_EQ(visits[entry], 1);
      EXPECT_EQ(times[entry], sweep.times()[static_cast<size_t>(slot)]);
    }
  }
}

TEST(TemporalSweepTest, EmptyScheduleIsANoOp) {
  const TemporalSweep sweep({});
  int calls = 0;
  sweep.Run("test", [&](const SweepItem&, SweepWorkspace&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(GroupPairsBySourceTest, GroupsInFirstAppearanceOrder) {
  const std::vector<CityPair> pairs = {{2, 5}, {0, 3}, {2, 7}, {0, 9}, {4, 1}};
  const std::vector<SourceGroup> groups = GroupPairsBySource(pairs);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].src_city, 2);
  EXPECT_EQ(groups[0].pair_indices, (std::vector<int>{0, 2}));
  EXPECT_EQ(groups[1].src_city, 0);
  EXPECT_EQ(groups[1].pair_indices, (std::vector<int>{1, 3}));
  EXPECT_EQ(groups[2].src_city, 4);
  EXPECT_EQ(groups[2].pair_indices, (std::vector<int>{4}));
}

TEST(CanDeriveBentPipeByMaskingTest, AcceptsModeOnlyDifference) {
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  EXPECT_TRUE(CanDeriveBentPipeByMasking(bp, hybrid));
  // Order matters: the first model must be the bent-pipe one.
  EXPECT_FALSE(CanDeriveBentPipeByMasking(hybrid, bp));
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, bp));
}

TEST(CanDeriveBentPipeByMaskingTest, RejectsAnyOtherOptionDifference) {
  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  NetworkOptions tweaked = FastOptions(ConnectivityMode::kHybrid);
  tweaked.relay_spacing_deg = 5.0;
  const NetworkModel hybrid_tweaked(Scenario::Starlink(), tweaked,
                                    data::AnchorCities());
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, hybrid_tweaked));

  NetworkOptions reseeded = FastOptions(ConnectivityMode::kHybrid);
  reseeded.seed += 1;
  const NetworkModel hybrid_reseeded(Scenario::Starlink(), reseeded,
                                     data::AnchorCities());
  EXPECT_FALSE(CanDeriveBentPipeByMasking(bp, hybrid_reseeded));
}

// Removes the snapshot-build profiling series (snapshot.<model>.*) from
// a timeseries export: they sample wall-clock build durations, which no
// amount of scheduling discipline can make reproducible. Every study
// output series stays. Keys are sorted in the export and "churn..." <
// "snapshot...", so a profiling series is never first and each block
// runs from its leading comma to the next ']' at series indent.
std::string StripProfilingSeries(std::string json) {
  while (true) {
    const size_t start = json.find(",\n    \"snapshot.");
    if (start == std::string::npos) {
      break;
    }
    const size_t close = json.find("\n    ]", start);
    if (close == std::string::npos) {
      break;
    }
    json.erase(start, close + 6 - start);
  }
  return json;
}

// Everything a sweep-driven study run produced, flattened to one string
// with full double precision, so "byte-identical at any thread count"
// is one string comparison.
std::string RunSweepStudies(const char* threads) {
  setenv("LEOSIM_THREADS", threads, 1);
  obs::TimeseriesRecorder& recorder = obs::TimeseriesRecorder::Global();
  recorder.Enable(true);
  recorder.Reset();

  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid),
                            data::AnchorCities());
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 30;
  const std::vector<CityPair> pairs =
      SampleCityPairs(data::AnchorCities(), traffic);
  SnapshotSchedule schedule;
  schedule.duration_sec = 3.0 * 3600.0;
  schedule.step_sec = 1800.0;

  const LatencyStudyResult latency =
      RunLatencyStudy(bp, hybrid, pairs, schedule);
  const AggregateChurn churn = RunAggregateChurnStudy(hybrid, pairs, schedule);
  const std::vector<ThroughputResult> throughput =
      RunThroughputSweep(hybrid, pairs, 2, schedule);
  // The visibility studies sample through SampleVisibility, multishell
  // through a two-stream sweep.
  HandoverStudyOptions handover_options;
  handover_options.duration_sec = 1800.0;
  const HandoverStats handover = RunHandoverStudy(
      Scenario::Starlink(), data::FindCity("Paris").Coord(), handover_options);
  CoverageStudyOptions coverage_options;
  coverage_options.step_sec = 300.0;
  const std::vector<CoverageRow> coverage =
      RunCoverageStudy({orbit::StarlinkShell1()}, 25.0, coverage_options);
  const FiberStudyResult fiber =
      RunFiberStudy(Scenario::Starlink(), data::AnchorCities(), schedule);
  const MultishellResult multishell =
      RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(),
                         data::AnchorCities(), "Brisbane", "Tokyo", schedule);

  std::string out = StripProfilingSeries(recorder.ToJson());
  recorder.Enable(false);
  recorder.Reset();
  unsetenv("LEOSIM_THREADS");

  char tmp[64];
  const auto append = [&out, &tmp](double v) {
    std::snprintf(tmp, sizeof(tmp), "%.17g\n", v);
    out.append(tmp);
  };
  for (const std::vector<PairRttSeries>* series : {&latency.bp, &latency.hybrid}) {
    for (const PairRttSeries& s : *series) {
      for (const double rtt : s.rtt_ms) {
        append(rtt);
      }
    }
  }
  append(churn.mean_change_rate);
  append(churn.mean_jaccard);
  append(churn.mean_rtt_jitter_ms);
  append(static_cast<double>(churn.pairs_evaluated));
  for (const ThroughputResult& r : throughput) {
    append(r.total_gbps);
    append(static_cast<double>(r.pairs_routed));
    append(static_cast<double>(r.subflows));
  }
  for (const double v :
       {static_cast<double>(handover.completed_passes),
        handover.mean_pass_duration_sec, handover.max_pass_duration_sec,
        handover.min_pass_duration_sec, handover.mean_visible_sats,
        handover.pass_endings_per_hour, handover.outage_fraction}) {
    append(v);
  }
  for (const CoverageRow& row : coverage) {
    append(row.mean_visible);
    append(row.availability);
  }
  append(fiber.metro.mean_visible_sats);
  for (const FiberMemberStats& m : fiber.members) {
    append(m.mean_visible_sats);
  }
  append(fiber.group_mean_distinct_sats);
  append(fiber.group_mean_links);
  for (size_t i = 0; i < multishell.times_sec.size(); ++i) {
    append(multishell.single_shell_rtt_ms[i]);
    append(multishell.dual_shell_rtt_ms[i]);
  }
  return out;
}

TEST(TemporalSweepDeterminismTest, StudyOutputsIdenticalAtAnyThreadCount) {
  const std::string at1 = RunSweepStudies("1");
  const std::string at4 = RunSweepStudies("4");
  const std::string at13 = RunSweepStudies("13");
  EXPECT_FALSE(at1.empty());
  EXPECT_EQ(at1, at4);
  EXPECT_EQ(at1, at13);
}

}  // namespace
}  // namespace leosim::core
