// Determinism and replay guarantees of the network-state trace export.
//
// The headline claims under test:
//   * the serialized netstate/netevents streams are byte-identical at
//     any thread count (LEOSIM_THREADS=1/4/13) and whether snapshots
//     are stepped or rebuilt (LEOSIM_STEP=1 vs 0) — traces are stable
//     artifacts, diffable across machines and configurations;
//   * ValidateReplay() holds on a >= 60-slot, 10 s-spacing sweep for
//     both the bent-pipe and the +Grid hybrid network (the acceptance
//     scenario, proven here in-process and again from the files alone
//     by tools/trace_check.py via the trace_replay ctest target), and
//     every number in that sweep's netstate text parses back to the
//     captured value bit for bit;
//   * replay holds on hand-built snapshot sequences that hit the edges
//     of the per-slot merge: capacity changes, links up before the first
//     and after the last key, every link down, weight-only slots and
//     empty link lists.
#include "core/net_trace.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"

namespace leosim::core {
namespace {

NetworkOptions FastOptions(ConnectivityMode mode, double relay_spacing_deg) {
  NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = relay_spacing_deg;
  options.aircraft_scale = 1.0;
  return options;
}

std::vector<CityPair> SamplePairs(int num_pairs) {
  TrafficMatrixOptions traffic;
  traffic.num_pairs = num_pairs;
  return SampleCityPairs(data::AnchorCities(), traffic);
}

// Runs the aggregate churn study with tracing on and returns the two
// serialized streams. Env knobs are set for the duration of the run.
std::pair<std::string, std::string> TraceChurnRun(const char* threads,
                                                  const char* step) {
  setenv("LEOSIM_THREADS", threads, 1);
  setenv("LEOSIM_STEP", step, 1);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid, 6.0),
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 120.0;
  RunAggregateChurnStudy(hybrid, SamplePairs(6), schedule);

  std::pair<std::string, std::string> out{net_trace.NetStateJsonl(),
                                          net_trace.NetEventsJsonl()};
  net_trace.Enable(false);
  net_trace.Reset();
  unsetenv("LEOSIM_THREADS");
  unsetenv("LEOSIM_STEP");
  return out;
}

TEST(TraceDeterminismTest, StreamsIdenticalAtAnyThreadCount) {
  const auto at1 = TraceChurnRun("1", "1");
  const auto at4 = TraceChurnRun("4", "1");
  const auto at13 = TraceChurnRun("13", "1");
  EXPECT_FALSE(at1.first.empty());
  EXPECT_FALSE(at1.second.empty());
  EXPECT_EQ(at1.first, at4.first);
  EXPECT_EQ(at1.second, at4.second);
  EXPECT_EQ(at1.first, at13.first);
  EXPECT_EQ(at1.second, at13.second);
}

TEST(TraceDeterminismTest, SteppedAndRebuiltSnapshotsTraceIdentically) {
  const auto stepped = TraceChurnRun("4", "1");
  const auto rebuilt = TraceChurnRun("4", "0");
  EXPECT_FALSE(stepped.first.empty());
  EXPECT_EQ(stepped.first, rebuilt.first);
  EXPECT_EQ(stepped.second, rebuilt.second);
}

// Every number in one JSON line, in text order, parsed with from_chars.
// String contents (kinds, link types, the schema name) are skipped.
std::vector<double> NumbersIn(std::string_view line) {
  std::vector<double> numbers;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (c == '"') {
      i = line.find('"', i + 1) + 1;
    } else if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      double value = 0.0;
      const auto [end, ec] =
          std::from_chars(line.data() + i, line.data() + line.size(), value);
      EXPECT_EQ(ec, std::errc()) << line.substr(i, 32);
      numbers.push_back(value);
      i = static_cast<size_t>(end - line.data());
    } else {
      ++i;
    }
  }
  return numbers;
}

// The numbers a captured slot's netstate line must carry, in order.
std::vector<double> ExpectedNumbers(int slot,
                                    const NetTraceRecorder::SlotRecord& rec) {
  std::vector<double> want = {static_cast<double>(slot), rec.time_sec,
                              static_cast<double>(rec.num_sats),
                              static_cast<double>(rec.num_cities),
                              static_cast<double>(rec.num_relays),
                              static_cast<double>(rec.num_aircraft)};
  for (const geo::Vec3& p : rec.node_ecef) {
    want.insert(want.end(), {p.x, p.y, p.z});
  }
  for (const auto* links : {&rec.radio_links, &rec.isl_links}) {
    for (const NetTraceRecorder::Link& l : *links) {
      want.insert(want.end(), {static_cast<double>(l.a),
                               static_cast<double>(l.b), l.delay_ms,
                               l.capacity_gbps});
    }
  }
  return want;
}

// Every number NetStateJsonl() writes parses back to the captured value
// bit for bit, so the shortest-text formatting loses nothing.
void ExpectNetStateNumbersExact(const NetTraceRecorder& net_trace) {
  std::istringstream lines(net_trace.NetStateJsonl());
  std::string line;
  int slot = 0;
  while (std::getline(lines, line)) {
    const std::vector<double> got = NumbersIn(line);
    const std::vector<double> want = ExpectedNumbers(slot, net_trace.Slot(slot));
    ASSERT_EQ(got.size(), want.size()) << "slot " << slot;
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(std::bit_cast<uint64_t>(got[k]), std::bit_cast<uint64_t>(want[k]))
          << "slot " << slot << " number " << k << ": " << got[k] << " vs "
          << want[k];
    }
    ++slot;
  }
  EXPECT_EQ(slot, net_trace.NumSlots());
}

// The acceptance sweep: 60 slots at 10 s spacing (the schedule's
// endpoint is exclusive), replay must hold bit-exactly from the slot-0
// keyframe through every later capture.
void ValidateSixtySlotSweep(ConnectivityMode mode) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel model(Scenario::Starlink(), FastOptions(mode, 6.0),
                           data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 600.0;
  RunAggregateChurnStudy(model, SamplePairs(5), schedule);

  EXPECT_GE(net_trace.NumSlots(), 60);
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;
  ExpectNetStateNumbersExact(net_trace);

  net_trace.Enable(false);
  net_trace.Reset();
}

TEST(TraceReplayTest, SixtySlotBentPipeSweepReplays) {
  ValidateSixtySlotSweep(ConnectivityMode::kBentPipe);
}

TEST(TraceReplayTest, SixtySlotHybridSweepReplays) {
  ValidateSixtySlotSweep(ConnectivityMode::kHybrid);
}

TEST(TraceReplayTest, LatencyStudySharedSweepReplays) {
  // The latency study traces through the shared-build path (one capture
  // per slot, taken before the bent-pipe ISL masking) and is the one
  // that emits reachable/unreachable transitions.
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(true);

  const NetworkModel bp(Scenario::Starlink(),
                        FastOptions(ConnectivityMode::kBentPipe, 6.0),
                        data::AnchorCities());
  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid, 6.0),
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 100.0;
  RunLatencyStudy(bp, hybrid, SamplePairs(6), schedule);

  EXPECT_EQ(net_trace.NumSlots(), 10);
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;

  net_trace.Enable(false);
  net_trace.Reset();
}

TEST(TraceRecorderTest, DisabledRecorderCapturesNothing) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(false);

  const NetworkModel hybrid(Scenario::Starlink(),
                            FastOptions(ConnectivityMode::kHybrid, 6.0),
                            data::AnchorCities());
  SnapshotSchedule schedule;
  schedule.step_sec = 10.0;
  schedule.duration_sec = 30.0;
  RunAggregateChurnStudy(hybrid, SamplePairs(3), schedule);

  EXPECT_EQ(net_trace.NumSlots(), 0);
  EXPECT_TRUE(net_trace.NetStateJsonl().empty());
  EXPECT_TRUE(net_trace.NetEventsJsonl().empty());
}

// --- Hand-built snapshot sequences -------------------------------------
//
// Five nodes: sats 0 and 1, cities 2 and 3, relay 4. The satellites move
// each slot; the ground stays put, as netevents/1 requires.

struct TestLink {
  int a;
  int b;
  double delay_ms;
  double capacity_gbps;
  bool isl;
};

NetworkModel::Snapshot MakeSnapshot(int slot,
                                    const std::vector<TestLink>& links) {
  NetworkModel::Snapshot snap;
  snap.num_sats = 2;
  snap.num_cities = 2;
  snap.num_relays = 1;
  snap.graph = graph::Graph(5);
  const double drift = 1000.0 * slot;
  snap.node_ecef = {{7.0e6 + drift, 0.0, 1.0e5}, {0.0, 7.1e6 - drift, 2.0e5},
                    {6.4e6, 0.0, 0.0},           {0.0, 6.4e6, 0.0},
                    {0.0, 0.0, 6.4e6}};
  for (const TestLink& l : links) {
    const graph::EdgeId e =
        snap.graph.AddEdge(l.a, l.b, l.delay_ms, l.capacity_gbps);
    (l.isl ? snap.isl_edges : snap.radio_edges).push_back(e);
  }
  return snap;
}

// Captures one slot per entry of `slots` and returns the netevents
// lines, after checking that replay reproduces every capture.
std::vector<std::string> CaptureAndReplay(
    const std::vector<std::vector<TestLink>>& slots) {
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  std::vector<double> times;
  for (size_t i = 0; i < slots.size(); ++i) {
    times.push_back(10.0 * static_cast<double>(i));
  }
  net_trace.SetTimeline(times);
  for (size_t i = 0; i < slots.size(); ++i) {
    const int slot = static_cast<int>(i);
    net_trace.CaptureSlot(slot, times[i], MakeSnapshot(slot, slots[i]));
  }
  std::string why;
  EXPECT_TRUE(net_trace.ValidateReplay(&why)) << why;
  ExpectNetStateNumbersExact(net_trace);
  std::vector<std::string> lines;
  std::istringstream stream(net_trace.NetEventsJsonl());
  for (std::string line; std::getline(stream, line);) {
    lines.push_back(line);
  }
  net_trace.Reset();
  return lines;
}

// The events array of one netevents line.
std::string EventsOf(const std::string& line) {
  const size_t begin = line.find("\"events\":");
  return begin == std::string::npos ? "" : line.substr(begin + 9);
}

TEST(TraceReplayMergeTest, CapacityChangeIsDownThenUpOfOneKey) {
  const auto lines = CaptureAndReplay({
      {{0, 2, 1.5, 10.0, false}, {0, 1, 3.0, 20.0, true}},
      {{0, 2, 1.5, 40.0, false}, {0, 1, 3.0, 20.0, true}},
  });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(EventsOf(lines[1]),
            "[[\"link_down\",0,2],[\"link_up\",0,2,1.5,40,\"radio\"]]}");
}

TEST(TraceReplayMergeTest, LinksUpBeforeFirstAndAfterLastKey) {
  const auto lines = CaptureAndReplay({
      {{1, 2, 2.0, 10.0, false}, {1, 3, 2.5, 10.0, false}},
      {{0, 2, 1.0, 10.0, false},
       {1, 2, 2.0, 10.0, false},
       {1, 3, 2.5, 10.0, false},
       {3, 4, 0.25, 100.0, false}},
  });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(EventsOf(lines[1]),
            "[[\"link_up\",0,2,1,10,\"radio\"],"
            "[\"link_up\",3,4,0.25,100,\"radio\"]]}");
}

TEST(TraceReplayMergeTest, EveryLinkDownThenBackUp) {
  const std::vector<TestLink> full = {{0, 2, 1.0, 10.0, false},
                                      {1, 3, 2.0, 10.0, false},
                                      {0, 1, 3.0, 20.0, true}};
  const auto lines = CaptureAndReplay({full, {}, full});
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(EventsOf(lines[1]),
            "[[\"link_down\",0,2],[\"link_down\",1,3],"
            "[\"link_down\",0,1]]}");
}

TEST(TraceReplayMergeTest, WeightOnlySlotKeepsCapacities) {
  const auto lines = CaptureAndReplay({
      {{0, 2, 1.0, 10.0, false}, {1, 3, 2.0, 10.0, false},
       {0, 1, 3.0, 20.0, true}},
      {{0, 2, 1.125, 10.0, false}, {1, 3, 2.0, 10.0, false},
       {0, 1, 0.1, 20.0, true}},
  });
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(EventsOf(lines[1]),
            "[[\"weight\",0,2,1.125],[\"weight\",0,1,0.1]]}");
}

TEST(TraceReplayMergeTest, EmptyLinkListsReplay) {
  const auto lines = CaptureAndReplay(
      {{}, {}, {{1, 4, 0.5, 5.0, false}}, {}});
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(EventsOf(lines[1]), "[]}");
  EXPECT_EQ(EventsOf(lines[2]), "[[\"link_up\",1,4,0.5,5,\"radio\"]]}");
  EXPECT_EQ(EventsOf(lines[3]), "[[\"link_down\",1,4]]}");
}

}  // namespace
}  // namespace leosim::core
