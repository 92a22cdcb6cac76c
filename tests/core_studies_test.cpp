// Integration tests over the experiment drivers, at reduced scale.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "core/attenuation_study.hpp"
#include "core/churn_study.hpp"
#include "core/fiber_study.hpp"
#include "core/gso_study.hpp"
#include "core/latency_study.hpp"
#include "core/multishell_study.hpp"
#include "core/stats.hpp"
#include "core/throughput_study.hpp"
#include "geo/geodesic.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  options.aircraft_scale = 1.0;
  return options;
}

SnapshotSchedule ShortSchedule() {
  SnapshotSchedule schedule;
  schedule.duration_sec = 3.0 * 3600.0;
  schedule.step_sec = 1800.0;
  return schedule;
}

const NetworkModel& BpModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kBentPipe),
                                  data::AnchorCities());
  return model;
}

const NetworkModel& HybridModel() {
  static const NetworkModel model(Scenario::Starlink(),
                                  FastOptions(ConnectivityMode::kHybrid),
                                  data::AnchorCities());
  return model;
}

std::vector<CityPair> TestPairs(int count) {
  TrafficMatrixOptions options;
  options.num_pairs = count;
  return SampleCityPairs(data::AnchorCities(), options);
}

TEST(SnapshotScheduleTest, TimesCoverDuration) {
  const SnapshotSchedule s{86400.0, 900.0};
  const std::vector<double> times = s.Times();
  EXPECT_EQ(times.size(), 96u);
  EXPECT_DOUBLE_EQ(times.front(), 0.0);
  EXPECT_DOUBLE_EQ(times.back(), 86400.0 - 900.0);
}

TEST(LatencyStudyTest, HybridMinRttNeverWorse) {
  const auto pairs = TestPairs(40);
  const auto result =
      RunLatencyStudy(BpModel(), HybridModel(), pairs, ShortSchedule());
  ASSERT_EQ(result.bp.size(), pairs.size());
  ASSERT_EQ(result.hybrid.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (result.bp[i].MinRtt() < 1e17) {  // pair reachable under BP
      EXPECT_LE(result.hybrid[i].MinRtt(), result.bp[i].MinRtt() + 1e-9);
    }
  }
}

TEST(LatencyStudyTest, BpRangesLargerInAggregate) {
  // Paper Fig. 2(b): RTT variation is much larger without ISLs.
  const auto pairs = TestPairs(40);
  const auto result =
      RunLatencyStudy(BpModel(), HybridModel(), pairs, ShortSchedule());
  const std::vector<double> bp_ranges = result.Ranges(result.bp);
  const std::vector<double> hybrid_ranges = result.Ranges(result.hybrid);
  ASSERT_FALSE(bp_ranges.empty());
  ASSERT_FALSE(hybrid_ranges.empty());
  EXPECT_GT(Median(bp_ranges), Median(hybrid_ranges));
}

TEST(LatencyStudyTest, RttsAreSpeedOfLightPlausible) {
  const auto pairs = TestPairs(20);
  const auto result =
      RunLatencyStudy(BpModel(), HybridModel(), pairs, ShortSchedule());
  const auto& cities = HybridModel().cities();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double geodesic_km = geo::GreatCircleDistanceKm(
        cities[static_cast<size_t>(pairs[i].a)].Coord(),
        cities[static_cast<size_t>(pairs[i].b)].Coord());
    // RTT cannot beat out-and-back straight-line light travel.
    const double lower_bound_ms =
        2.0 * geodesic_km / geo::kSpeedOfLightKmPerSec * 1000.0;
    const double hybrid_min = result.hybrid[i].MinRtt();
    if (hybrid_min < 1e17) {
      EXPECT_GT(hybrid_min, lower_bound_ms * 0.99);
      // And should be within ~3x of it for reachable pairs.
      EXPECT_LT(hybrid_min, lower_bound_ms * 3.0 + 30.0);
    }
  }
}

TEST(LatencyStudyTest, TracePairPathObservesHops) {
  const auto trace =
      TracePairPath(BpModel(), "New York", "London", ShortSchedule());
  ASSERT_EQ(trace.size(), ShortSchedule().Times().size());
  int reachable = 0;
  for (const PathObservation& obs : trace) {
    if (!obs.reachable) {
      continue;
    }
    ++reachable;
    EXPECT_GT(obs.satellite_hops, 0);
    EXPECT_GT(obs.rtt_ms, 35.0);  // > straight-line NY-London RTT
    EXPECT_GE(obs.max_node_latitude_deg, 40.0);
  }
  EXPECT_GT(reachable, 0);
}

// Every entry point that takes city names rejects an unknown one with
// std::invalid_argument naming the city.
void ExpectUnknownCityNamed(const std::function<void()>& call,
                            const std::string& where) {
  try {
    call();
    ADD_FAILURE() << where << ": no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Atlantis"), std::string::npos)
        << where << ": " << e.what();
  }
}

TEST(LatencyStudyTest, UnknownCityThrows) {
  ExpectUnknownCityNamed(
      [] { TracePairPath(BpModel(), "Atlantis", "London", ShortSchedule()); },
      "latency trace");
  ExpectUnknownCityNamed(
      [] { TracePairPath(BpModel(), "London", "Atlantis", ShortSchedule()); },
      "latency trace");
  ExpectUnknownCityNamed(
      [] { RunChurnStudy(BpModel(), "Atlantis", "London", ShortSchedule()); },
      "churn");
  ExpectUnknownCityNamed(
      [] {
        TracePairAttenuation(BpModel(), BpModel(), "London", "Atlantis", 0.0,
                             {1.0}, AttenuationOptions{});
      },
      "attenuation");
  ExpectUnknownCityNamed(
      [] {
        RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(),
                           {data::FindCity("London"), data::FindCity("Paris")},
                           "Atlantis", "Paris", ShortSchedule());
      },
      "multishell");
}

TEST(ThroughputStudyTest, HybridBeatsBentPipe) {
  // The paper's headline: >2.5x with k=1 at full scale; at our reduced
  // scale we assert a clear win.
  const auto pairs = TestPairs(60);
  const auto bp = RunThroughputStudy(BpModel(), pairs, 1, 0.0);
  const auto hybrid = RunThroughputStudy(HybridModel(), pairs, 1, 0.0);
  EXPECT_GT(bp.total_gbps, 0.0);
  EXPECT_GT(hybrid.total_gbps, 1.5 * bp.total_gbps);
}

TEST(ThroughputStudyTest, MorePathsMoreThroughput) {
  const auto pairs = TestPairs(40);
  const auto k1 = RunThroughputStudy(HybridModel(), pairs, 1, 0.0);
  const auto k4 = RunThroughputStudy(HybridModel(), pairs, 4, 0.0);
  EXPECT_GE(k4.total_gbps, k1.total_gbps);
  EXPECT_GT(k4.mean_paths_per_pair, k1.mean_paths_per_pair);
  EXPECT_LE(k1.mean_paths_per_pair, 1.0 + 1e-9);
}

TEST(ThroughputStudyTest, SeparateUpDownNeverLowersThroughput) {
  const auto pairs = TestPairs(40);
  const auto shared =
      RunThroughputStudy(HybridModel(), pairs, 2, 0.0, CapacityModel::kSharedPerLink);
  const auto directional = RunThroughputStudy(HybridModel(), pairs, 2, 0.0,
                                              CapacityModel::kSeparateUpDown);
  EXPECT_GE(directional.total_gbps, shared.total_gbps - 1e-6);
  EXPECT_EQ(directional.subflows, shared.subflows);
}

TEST(ThroughputStudyTest, CountsRoutedPairs) {
  const auto pairs = TestPairs(30);
  const auto result = RunThroughputStudy(HybridModel(), pairs, 2, 0.0);
  EXPECT_GT(result.pairs_routed, 25);
  EXPECT_GE(result.subflows, result.pairs_routed);
}

TEST(DisconnectionStudyTest, BpDisconnectsSatellites) {
  SnapshotSchedule schedule;
  schedule.duration_sec = 2.0 * 3600.0;
  schedule.step_sec = 3600.0;
  const auto stats = RunDisconnectionStudy(BpModel(), schedule);
  ASSERT_EQ(stats.per_snapshot.size(), 2u);
  // Paper: 25.1%-31.5% with a 0.5-degree grid and full aircraft; our
  // reduced ground segment disconnects at least that much.
  EXPECT_GT(stats.min_fraction, 0.1);
  EXPECT_LT(stats.max_fraction, 0.9);
  EXPECT_LE(stats.min_fraction, stats.max_fraction);
}

TEST(DisconnectionStudyTest, HybridDisconnectsNothing) {
  SnapshotSchedule schedule;
  schedule.duration_sec = 3600.0;
  schedule.step_sec = 3600.0;
  const auto stats = RunDisconnectionStudy(HybridModel(), schedule);
  EXPECT_DOUBLE_EQ(stats.max_fraction, 0.0);
}

TEST(AttenuationStudyTest, BpWorseThanIsl) {
  const NetworkModel isl_model(Scenario::Starlink(),
                               FastOptions(ConnectivityMode::kIslOnly),
                               data::AnchorCities());
  const auto pairs = TestPairs(30);
  AttenuationOptions options;
  const auto result =
      RunAttenuationStudy(BpModel(), isl_model, pairs, 0.0, options);
  ASSERT_GT(result.bp_db.size(), 10u);
  ASSERT_GT(result.isl_db.size(), 10u);
  // Fig. 6: the BP distribution sits to the right (median >= 1 dB higher
  // in the paper; we assert strictly higher).
  EXPECT_GT(Median(result.bp_db), Median(result.isl_db));
  for (const double db : result.isl_db) {
    EXPECT_GT(db, 0.0);
    EXPECT_LT(db, 30.0);
  }
}

TEST(AttenuationStudyTest, DelhiSydneyCcdfShape) {
  const NetworkModel isl_model(Scenario::Starlink(),
                               FastOptions(ConnectivityMode::kIslOnly),
                               data::AnchorCities());
  AttenuationOptions options;
  const auto ccdf = TracePairAttenuation(BpModel(), isl_model, "Delhi", "Sydney",
                                         0.0, {0.1, 0.5, 1.0, 3.0}, options);
  ASSERT_TRUE(ccdf.bp_reachable);
  ASSERT_TRUE(ccdf.isl_reachable);
  ASSERT_EQ(ccdf.bp_db.size(), 4u);
  // Attenuation decreases with exceedance probability.
  for (size_t i = 1; i < ccdf.bp_db.size(); ++i) {
    EXPECT_LE(ccdf.bp_db[i], ccdf.bp_db[i - 1] + 1e-9);
    EXPECT_LE(ccdf.isl_db[i], ccdf.isl_db[i - 1] + 1e-9);
  }
  // Paper Fig. 8: BP suffers more than ISL at 1% on this tropical pair.
  EXPECT_GT(ccdf.bp_db[2], ccdf.isl_db[2]);
}

TEST(GsoStudyTest, ExclusionWorstAtEquator) {
  GsoStudyOptions options;
  options.azimuth_step_deg = 6.0;
  options.elevation_step_deg = 3.0;
  const auto rows = RunGsoArcStudy({0.0, 20.0, 40.0, 65.0}, options);
  ASSERT_EQ(rows.size(), 4u);
  // Fig. 9: at the Equator most of the high-elevation sky is excluded.
  EXPECT_GT(rows[0].excluded_sky_fraction, 0.3);
  // Monotone decay away from the Equator. The exclusion only clears
  // entirely once the GSO arc drops below (min_elevation - separation):
  // ~63 deg latitude for Starlink's 40/22-degree parameters.
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].excluded_sky_fraction,
              rows[i - 1].excluded_sky_fraction + 1e-9);
  }
  EXPECT_LT(rows[3].excluded_sky_fraction, 0.05);
}

TEST(MultishellStudyTest, SecondShellNeverHurts) {
  SnapshotSchedule schedule;
  schedule.duration_sec = 2.0 * 3600.0;
  schedule.step_sec = 1800.0;
  const auto result =
      RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(),
                         data::AnchorCities(), "Brisbane", "Tokyo", schedule);
  ASSERT_EQ(result.single_shell_rtt_ms.size(), 4u);
  for (size_t i = 0; i < result.single_shell_rtt_ms.size(); ++i) {
    EXPECT_LE(result.dual_shell_rtt_ms[i],
              result.single_shell_rtt_ms[i] + 1e-9);
  }
  EXPECT_GE(result.mean_improvement_ms, 0.0);
}

TEST(FiberStudyTest, DistributedGtsAddCapacity) {
  SnapshotSchedule schedule;
  schedule.duration_sec = 3600.0;
  schedule.step_sec = 900.0;
  FiberStudyOptions options;
  const auto result =
      RunFiberStudy(Scenario::Starlink(), data::AnchorCities(), options, schedule);
  EXPECT_EQ(result.metro.city, "Paris");
  EXPECT_EQ(result.members.size(), 5u);
  EXPECT_GT(result.metro_mean_distinct_sats, 0.0);
  EXPECT_GT(result.group_mean_distinct_sats, result.metro_mean_distinct_sats);
  EXPECT_GT(result.capacity_gain, 1.0);
  // Six cities' worth of links is ~6x the metro's alone.
  EXPECT_GT(result.link_gain, 4.0);
  EXPECT_LT(result.link_gain, 7.0);
  for (const FiberMemberStats& m : result.members) {
    EXPECT_GT(m.fiber_latency_ms, 0.0);
    EXPECT_LT(m.fiber_latency_ms, 3.0);  // a few hundred km of fiber
  }
}

}  // namespace
}  // namespace leosim::core
