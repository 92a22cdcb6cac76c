// Property tests for the incremental snapshot stepper: a stepped
// snapshot must be *bit-identical* to a full rebuild at the same time —
// node positions, edge sets, edge weights, adjacency row order, and
// therefore every Dijkstra distance and route. The sweep drives ≥50
// random slot times (forward and backward within the stepping window)
// and repeats the end-to-end study comparison at LEOSIM_THREADS 1 and 4,
// since which slots step vs rebuild depends on worker scheduling and
// must not matter.
#include "core/snapshot_stepper.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"

namespace leosim::core {
namespace {

NetworkOptions StepOptions(ConnectivityMode mode) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = 4.0;
  // The stepper handles static ground nodes only; aircraft force full
  // rebuilds, which would make the property vacuous.
  options.use_aircraft = false;
  return options;
}

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// Walks ≥ `slots` random times, stepping one workspace and fully
// rebuilding another, asserting structural bit-identity plus identical
// Dijkstra answers at every slot.
void RunRandomWalk(const NetworkModel& model, int slots, uint32_t seed) {
  NetworkModel::SnapshotWorkspace stepped_ws;
  NetworkModel::SnapshotWorkspace rebuilt_ws;
  SnapshotStepper stepper;
  graph::DijkstraWorkspace dijkstra_a;
  graph::DijkstraWorkspace dijkstra_b;

  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> forward(5.0, 90.0);
  std::uniform_real_distribution<double> backward(-60.0, -5.0);
  std::uniform_int_distribution<int> flip(0, 9);

  double t = 1000.0;
  int steps_taken = 0;
  for (int slot = 0; slot < slots; ++slot) {
    const NetworkModel::Snapshot& stepped =
        BuildOrStepSnapshot(model, t, &stepped_ws, &stepper);
    if (slot > 0 && stepper.Warm()) {
      ++steps_taken;
    }
    const NetworkModel::Snapshot& rebuilt = model.BuildSnapshot(t, &rebuilt_ws);

    std::string why;
    ASSERT_TRUE(SnapshotsEquivalent(stepped, rebuilt, &why))
        << "slot " << slot << " t=" << t << ": " << why;

    // Routing over the two graphs must agree bit-for-bit, not just
    // structurally: same distances, same tie-breaks, same node paths.
    const int num_cities = static_cast<int>(model.cities().size());
    for (int c = 1; c <= 3; ++c) {
      const graph::NodeId src = stepped.CityNode(0);
      const graph::NodeId dst = stepped.CityNode((slot + c * 7) % num_cities);
      if (src == dst) {
        continue;
      }
      const auto pa = graph::ShortestPath(stepped.graph, src, dst, dijkstra_a);
      const auto pb = graph::ShortestPath(rebuilt.graph, src, dst, dijkstra_b);
      ASSERT_EQ(pa.has_value(), pb.has_value()) << "slot " << slot;
      if (pa.has_value()) {
        EXPECT_TRUE(BitEq(pa->distance, pb->distance))
            << "slot " << slot << " dst " << dst;
        EXPECT_EQ(pa->nodes, pb->nodes) << "slot " << slot << " dst " << dst;
      }
    }

    // Mostly forward (the sweep pattern), occasionally backward, and
    // occasionally a jump past the step window to force a re-prime.
    const int coin = flip(rng);
    if (coin == 0) {
      t += backward(rng);
    } else if (coin == 1) {
      t += 10.0 * SnapshotStepper::kMaxStepGapSec;
    } else {
      t += forward(rng);
    }
  }
  // The walk must actually exercise the incremental path.
  EXPECT_GT(steps_taken, slots / 2);
}

TEST(SnapshotStepProperty, SteppedBitIdenticalToRebuiltHybrid) {
  const NetworkModel model(Scenario::Starlink(),
                           StepOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  RunRandomWalk(model, 50, /*seed=*/20260809);
}

TEST(SnapshotStepProperty, SteppedBitIdenticalToRebuiltBentPipe) {
  const NetworkModel model(Scenario::Starlink(),
                           StepOptions(ConnectivityMode::kBentPipe),
                           data::AnchorCities());
  RunRandomWalk(model, 12, /*seed=*/77);
}

TEST(SnapshotStepProperty, CrossCheckModePassesAndUnsupportedModelsFallBack) {
  // LEOSIM_STEP_CHECK=1 makes every TryStep verify itself against a full
  // rebuild and throw on divergence — so a clean pass IS the assertion.
  setenv("LEOSIM_STEP_CHECK", "1", 1);
  const NetworkModel model(Scenario::Starlink(),
                           StepOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  NetworkModel::SnapshotWorkspace ws;
  SnapshotStepper stepper;
  for (int i = 0; i < 5; ++i) {
    BuildOrStepSnapshot(model, 500.0 + 20.0 * i, &ws, &stepper);
  }
  EXPECT_TRUE(stepper.Warm());
  unsetenv("LEOSIM_STEP_CHECK");

  // Aircraft (dynamic nodes) are unsupported: the stepper must refuse
  // and BuildOrStepSnapshot must keep falling back to full rebuilds.
  NetworkOptions with_aircraft = StepOptions(ConnectivityMode::kHybrid);
  with_aircraft.use_aircraft = true;
  const NetworkModel air_model(Scenario::Starlink(), with_aircraft,
                               data::AnchorCities());
  NetworkModel::SnapshotWorkspace air_ws;
  SnapshotStepper air_stepper;
  for (int i = 0; i < 3; ++i) {
    BuildOrStepSnapshot(air_model, 500.0 + 20.0 * i, &air_ws, &air_stepper);
  }
  EXPECT_FALSE(air_stepper.Warm());
  EXPECT_EQ(air_stepper.TryStep(air_model, 620.0, &air_ws), nullptr);
}

// Aircraft enabled at scale 0 generate no flights, so the model has no
// moving nodes and must step like a static one (every `leosim_cli`
// sweep at `--aircraft=0`).
TEST(SnapshotStepProperty, ZeroAircraftScaleSteps) {
  NetworkOptions options = StepOptions(ConnectivityMode::kHybrid);
  options.use_aircraft = true;
  options.aircraft_scale = 0.0;
  const NetworkModel model(Scenario::Starlink(), options, data::AnchorCities());
  NetworkModel::SnapshotWorkspace ws;
  SnapshotStepper stepper;
  BuildOrStepSnapshot(model, 500.0, &ws, &stepper);
  const NetworkModel::Snapshot& stepped =
      BuildOrStepSnapshot(model, 510.0, &ws, &stepper);
  EXPECT_TRUE(stepper.Warm());
  EXPECT_EQ(stepped.num_aircraft, 0);
  const NetworkModel::Snapshot rebuilt = model.BuildSnapshot(510.0);
  std::string why;
  EXPECT_TRUE(SnapshotsEquivalent(stepped, rebuilt, &why)) << why;
}

TEST(SnapshotStepProperty, StepDisableEnvForcesRebuilds) {
  setenv("LEOSIM_STEP", "0", 1);
  const NetworkModel model(Scenario::Starlink(),
                           StepOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  NetworkModel::SnapshotWorkspace ws;
  SnapshotStepper stepper;
  for (int i = 0; i < 3; ++i) {
    BuildOrStepSnapshot(model, 100.0 + 15.0 * i, &ws, &stepper);
  }
  EXPECT_FALSE(stepper.Warm());
  unsetenv("LEOSIM_STEP");
}

// A fine-spaced study driven through the incremental path must produce
// the exact output of the rebuild-every-slot path, at any thread count.
TEST(SnapshotStepProperty, ChurnStudyOutputIdenticalViaStepping) {
  const NetworkModel model(Scenario::Starlink(),
                           StepOptions(ConnectivityMode::kHybrid),
                           data::AnchorCities());
  TrafficMatrixOptions traffic;
  traffic.num_pairs = 10;
  const std::vector<CityPair> pairs =
      SampleCityPairs(data::AnchorCities(), traffic);
  SnapshotSchedule schedule;
  schedule.duration_sec = 20.0 * 60.0;  // 20 slots at 60 s: stepping-fine
  schedule.step_sec = 60.0;

  const auto run = [&](const char* step_env, const char* threads) {
    setenv("LEOSIM_STEP", step_env, 1);
    setenv("LEOSIM_THREADS", threads, 1);
    const AggregateChurn churn = RunAggregateChurnStudy(model, pairs, schedule);
    unsetenv("LEOSIM_THREADS");
    unsetenv("LEOSIM_STEP");
    return churn;
  };

  const AggregateChurn baseline = run("0", "1");  // rebuild every slot
  for (const char* threads : {"1", "4"}) {
    const AggregateChurn stepped = run("1", threads);
    EXPECT_TRUE(BitEq(stepped.mean_change_rate, baseline.mean_change_rate))
        << "threads=" << threads;
    EXPECT_TRUE(BitEq(stepped.mean_jaccard, baseline.mean_jaccard))
        << "threads=" << threads;
    EXPECT_TRUE(BitEq(stepped.mean_rtt_jitter_ms, baseline.mean_rtt_jitter_ms))
        << "threads=" << threads;
    EXPECT_EQ(stepped.pairs_evaluated, baseline.pairs_evaluated);
  }
}

}  // namespace
}  // namespace leosim::core
