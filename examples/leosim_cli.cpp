// leosim_cli — a small command-line front end over the library, the way a
// downstream user would poke at the system without writing code.
//
//   leosim_cli route <cityA> <cityB> [--bp]        shortest path + RTT
//   leosim_cli visible <city>                      satellites in view now
//   leosim_cli attenuation <city> [freq_ghz]       ITU-R budget at the site
//   leosim_cli pairs <count>                       sample a traffic matrix
//   leosim_cli cities [substring]                  list known cities
//   leosim_cli study latency [flags]               small latency study run
//
// Global observability flags (any command, any position):
//   --log-level=L       structured logging to stderr (error|warn|info|debug)
//   --metrics-out=F     write the metrics registry as JSON on exit
//   --trace-out=F       record spans, write Chrome trace JSON on exit
//   --timeseries-out=F  record per-snapshot timeseries, write JSON on exit
//   --progress[=SEC]    heartbeat progress lines (default every 2 s)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/attenuation_study.hpp"
#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/report.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "geo/geodesic.hpp"
#include "graph/dijkstra.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

using namespace leosim;

namespace {

int Usage() {
  std::printf(
      "usage: leosim_cli <command> [args]\n"
      "  route <cityA> <cityB> [--bp]   shortest path + RTT (hybrid default)\n"
      "  visible <city>                 satellites visible right now\n"
      "  attenuation <city> [freq_ghz]  ITU-R attenuation budget\n"
      "  pairs <count>                  sample a >2000 km traffic matrix\n"
      "  cities [substring]             list known cities\n"
      "  study latency [--pairs=N] [--snapshots=N] [--step=SEC]\n"
      "                [--spacing=DEG] [--manifest-out=F]\n"
      "                                 run a small BP-vs-hybrid latency study\n"
      "  trace [--bp] [--pairs=N] [--snapshots=N] [--step=SEC]\n"
      "        [--spacing=DEG] [--out=DIR]\n"
      "                                 export + validate a netstate/netevents\n"
      "                                 trace (route-churn sweep)\n"
      "global flags: --log-level=L --metrics-out=F --trace-out=F\n"
      "              --timeseries-out=F --profile-out=F --hw-counters=F\n"
      "              --flight-recorder[=F] --progress[=SEC]\n"
      "              --trace-net-out=DIR (netstate/netevents export from any\n"
      "              study command)\n");
  return 2;
}

int CmdRoute(const std::string& a, const std::string& b, bool bent_pipe) {
  core::NetworkOptions options;
  options.mode =
      bent_pipe ? core::ConnectivityMode::kBentPipe : core::ConnectivityMode::kHybrid;
  options.relay_spacing_deg = 3.0;
  const core::NetworkModel model(core::Scenario::Starlink(), options,
                                 data::AnchorCities());
  int ia = -1;
  int ib = -1;
  try {
    ia = data::CityIndexByName(model.cities(), a);
    ib = data::CityIndexByName(model.cities(), b);
  } catch (const std::invalid_argument&) {
    std::printf("unknown city (try `leosim_cli cities`)\n");
    return 1;
  }
  const auto snap = model.BuildSnapshot(0.0);
  const auto path =
      graph::ShortestPath(snap.graph, snap.CityNode(ia), snap.CityNode(ib));
  if (!path.has_value()) {
    std::printf("%s and %s are not connected under %s connectivity\n", a.c_str(),
                b.c_str(), bent_pipe ? "bent-pipe" : "hybrid");
    return 1;
  }
  std::printf("%s -> %s (%s): RTT %.1f ms, %d hops\n", a.c_str(), b.c_str(),
              bent_pipe ? "bent-pipe" : "hybrid", 2.0 * path->distance,
              path->HopCount());
  int sats = 0;
  int ground = 0;
  for (const graph::NodeId n : path->nodes) {
    if (snap.IsSat(n)) {
      ++sats;
    } else if (n != snap.CityNode(ia) && n != snap.CityNode(ib)) {
      ++ground;
    }
  }
  std::printf("  %d satellites, %d intermediate ground hops\n", sats, ground);
  return 0;
}

int CmdVisible(const std::string& name) {
  if (!data::HasCity(name)) {
    std::printf("unknown city\n");
    return 1;
  }
  const data::City& city = data::FindCity(name);
  const core::Scenario scenario = core::Scenario::Starlink();
  const auto constellation = orbit::Constellation::WalkerDelta(scenario.shell);
  const auto sats = constellation.PositionsEcef(0.0);
  const link::SatelliteIndex index(
      sats, geo::CoverageRadiusKm(scenario.shell.altitude_km,
                                  scenario.radio.min_elevation_deg) +
                100.0);
  const geo::Vec3 gt = geo::GeodeticToEcef(city.Coord());
  const auto visible = index.Visible(gt, scenario.radio.min_elevation_deg);
  std::printf("%s sees %zu Starlink satellites (e >= %.0f deg):\n", name.c_str(),
              visible.size(), scenario.radio.min_elevation_deg);
  for (const int sat : visible) {
    const auto id = constellation.IdOf(sat);
    std::printf("  sat %4d (plane %2d slot %2d): elevation %5.1f deg, range %6.0f km\n",
                sat, id.plane, id.slot,
                geo::ElevationAngleDeg(gt, sats[static_cast<size_t>(sat)]),
                gt.DistanceTo(sats[static_cast<size_t>(sat)]));
  }
  return 0;
}

int CmdAttenuation(const std::string& name, double freq) {
  if (!data::HasCity(name)) {
    std::printf("unknown city\n");
    return 1;
  }
  const data::City& city = data::FindCity(name);
  itur::SlantPathConfig config;
  config.frequency_ghz = freq;
  std::printf("%s at %.2f GHz, 30 deg elevation:\n", name.c_str(), freq);
  for (const double p : {1.0, 0.5, 0.1, 0.01}) {
    const auto b = itur::SlantPathAttenuation(city.Coord(), 30.0, config, p);
    std::printf("  %5.2f%% exceedance: %.2f dB total "
                "(gas %.2f, cloud %.2f, rain %.2f, scint %.2f)\n",
                p, b.total_db, b.gas_db, b.cloud_db, b.rain_db,
                b.scintillation_db);
  }
  return 0;
}

int CmdPairs(int count) {
  core::TrafficMatrixOptions options;
  options.num_pairs = count;
  const auto& cities = data::AnchorCities();
  const auto pairs = core::SampleCityPairs(cities, options);
  for (const core::CityPair& p : pairs) {
    const auto& a = cities[static_cast<size_t>(p.a)];
    const auto& b = cities[static_cast<size_t>(p.b)];
    std::printf("%-20s %-20s %6.0f km\n", a.name.c_str(), b.name.c_str(),
                geo::GreatCircleDistanceKm(a.Coord(), b.Coord()));
  }
  return 0;
}

// Scaled-down latency study (paper Fig. 2 inner loop): BP vs hybrid
// min-RTT over a short schedule. Small defaults keep it interactive;
// with --metrics-out/--trace-out it doubles as the observability demo.
int CmdStudyLatency(const std::vector<std::string>& args) {
  int num_pairs = 10;
  int num_snapshots = 2;
  double step_sec = 60.0;
  double spacing_deg = 3.0;
  std::string manifest_out;
  for (const std::string& arg : args) {
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--pairs=")) {
      num_pairs = std::atoi(v);
    } else if (const char* v = value_of("--snapshots=")) {
      num_snapshots = std::atoi(v);
    } else if (const char* v = value_of("--step=")) {
      step_sec = std::atof(v);
    } else if (const char* v = value_of("--spacing=")) {
      spacing_deg = std::atof(v);
    } else if (const char* v = value_of("--manifest-out=")) {
      manifest_out = v;
    } else {
      std::printf("study latency: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  core::RunReport report("latency_study");
  report.AddParam("pairs", num_pairs);
  report.AddParam("snapshots", num_snapshots);
  report.AddParam("step_sec", step_sec);
  report.AddParam("relay_spacing_deg", spacing_deg);

  const core::StudyTimer timer;
  const core::Scenario scenario = core::Scenario::Starlink();
  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = spacing_deg;
  options.mode = core::ConnectivityMode::kBentPipe;
  const core::NetworkModel bent_pipe(scenario, options, cities);
  options.mode = core::ConnectivityMode::kHybrid;
  const core::NetworkModel hybrid(scenario, options, cities);

  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = num_pairs;
  const std::vector<core::CityPair> pairs = core::SampleCityPairs(cities, traffic);

  core::SnapshotSchedule schedule;
  schedule.step_sec = step_sec;
  schedule.duration_sec = step_sec * num_snapshots;
  const core::LatencyStudyResult result =
      core::RunLatencyStudy(bent_pipe, hybrid, pairs, schedule);

  core::StudySummary summary;
  summary.study = "latency";
  summary.snapshots_built = 2 * static_cast<uint64_t>(result.snapshot_times.size());
  for (const std::vector<core::PairRttSeries>* series :
       {&result.bp, &result.hybrid}) {
    for (const core::PairRttSeries& s : *series) {
      const uint64_t unreachable = static_cast<uint64_t>(s.UnreachableCount());
      summary.pairs_unreachable += unreachable;
      summary.pairs_routed += s.rtt_ms.size() - unreachable;
    }
  }
  summary.wall_seconds = timer.Seconds();
  report.AddSummary(summary);

  const auto mean_min_rtt = [&result](const std::vector<core::PairRttSeries>& s) {
    const std::vector<double> values = result.MinRtts(s);
    double sum = 0.0;
    for (const double v : values) {
      sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  };
  std::printf("latency study: %zu pairs x %zu snapshots\n", pairs.size(),
              result.snapshot_times.size());
  std::printf("  bent-pipe mean min-RTT: %7.1f ms\n", mean_min_rtt(result.bp));
  std::printf("  hybrid    mean min-RTT: %7.1f ms\n", mean_min_rtt(result.hybrid));
  std::printf("  routed %llu pair-snapshots, %llu unreachable, %.2f s\n",
              static_cast<unsigned long long>(summary.pairs_routed),
              static_cast<unsigned long long>(summary.pairs_unreachable),
              summary.wall_seconds);
  if (!manifest_out.empty()) {
    if (!report.WriteManifest(manifest_out)) {
      std::printf("cannot write %s\n", manifest_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", manifest_out.c_str());
  }
  return 0;
}

// Exports a network-state trace from a route-churn sweep and proves the
// replay invariant before reporting success: slot 0's full state plus
// the per-slot event stream must reproduce every later slot bit for
// bit. The files land as DIR/netstate.jsonl and DIR/netevents.jsonl,
// ready for tools/trace_check.py or a downstream emulator.
int CmdTrace(const std::vector<std::string>& args) {
  bool bent_pipe = false;
  int num_pairs = 5;
  int num_snapshots = 10;
  double step_sec = 10.0;
  double spacing_deg = 3.0;
  std::string out_dir = "nettrace";
  for (const std::string& arg : args) {
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--bp") {
      bent_pipe = true;
    } else if (const char* v = value_of("--pairs=")) {
      num_pairs = std::atoi(v);
    } else if (const char* v = value_of("--snapshots=")) {
      num_snapshots = std::atoi(v);
    } else if (const char* v = value_of("--step=")) {
      step_sec = std::atof(v);
    } else if (const char* v = value_of("--spacing=")) {
      spacing_deg = std::atof(v);
    } else if (const char* v = value_of("--out=")) {
      out_dir = v;
    } else {
      std::printf("trace: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  const core::Scenario scenario = core::Scenario::Starlink();
  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = spacing_deg;
  options.mode = bent_pipe ? core::ConnectivityMode::kBentPipe
                           : core::ConnectivityMode::kHybrid;
  const core::NetworkModel model(scenario, options, cities);

  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = num_pairs;
  const std::vector<core::CityPair> pairs = core::SampleCityPairs(cities, traffic);

  core::SnapshotSchedule schedule;
  schedule.step_sec = step_sec;
  schedule.duration_sec = step_sec * num_snapshots;

  core::NetTraceRecorder& recorder = core::NetTraceRecorder::Global();
  recorder.Enable(true);
  core::RunAggregateChurnStudy(model, pairs, schedule);

  std::string why;
  if (!recorder.ValidateReplay(&why)) {
    std::fprintf(stderr, "trace replay validation FAILED: %s\n", why.c_str());
    return 1;
  }
  if (!recorder.WriteTo(out_dir)) {
    std::fprintf(stderr, "cannot write trace files under %s\n", out_dir.c_str());
    return 1;
  }
  std::printf("trace: %d slots (%s), replay validated, wrote %s/netstate.jsonl"
              " and %s/netevents.jsonl\n",
              recorder.NumSlots(), bent_pipe ? "bent-pipe" : "hybrid",
              out_dir.c_str(), out_dir.c_str());
  return 0;
}

int CmdCities(const std::string& filter) {
  int shown = 0;
  for (const data::City& c : data::AnchorCities()) {
    if (!filter.empty() && c.name.find(filter) == std::string::npos) {
      continue;
    }
    std::printf("%-24s %7.2f %8.2f  pop %.0fk\n", c.name.c_str(), c.latitude_deg,
                c.longitude_deg, c.population_k);
    ++shown;
  }
  std::printf("(%d cities)\n", shown);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the global observability flags; everything else dispatches
  // positionally as before.
  std::string metrics_out;
  std::string trace_out;
  std::string timeseries_out;
  std::string profile_out;
  std::string hw_counters_out;
  std::string trace_net_out;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--log-level=")) {
      obs::SetLogLevel(obs::ParseLogLevel(v));
    } else if (const char* v = value_of("--metrics-out=")) {
      metrics_out = v;
    } else if (const char* v = value_of("--trace-out=")) {
      trace_out = v;
      obs::EnableTracing(true);
    } else if (const char* v = value_of("--timeseries-out=")) {
      timeseries_out = v;
      obs::TimeseriesRecorder::Global().Enable(true);
    } else if (const char* v = value_of("--profile-out=")) {
      profile_out = v;
      obs::StartProfiling();
    } else if (const char* v = value_of("--hw-counters=")) {
      hw_counters_out = v;
      obs::EnableHwCounters(true);
    } else if (const char* v = value_of("--trace-net-out=")) {
      trace_net_out = v;
      core::NetTraceRecorder::Global().Enable(true);
    } else if (const char* v = value_of("--flight-recorder=")) {
      obs::FlightRecorderOptions flight;
      flight.dump_path = v;
      obs::EnableFlightRecorder(flight);
    } else if (arg == "--flight-recorder") {
      obs::EnableFlightRecorder();
    } else if (const char* v = value_of("--progress=")) {
      obs::SetProgressInterval(std::atof(v));
    } else if (arg == "--progress") {
      obs::SetProgressInterval(obs::kDefaultProgressIntervalSec);
    } else {
      args.push_back(arg);
    }
  }

  int rc = 2;
  const std::string command = args.empty() ? "" : args[0];
  if (command.empty()) {
    rc = Usage();
  } else if (command == "route" && args.size() >= 3) {
    const bool bp = args.size() >= 4 && args[3] == "--bp";
    rc = CmdRoute(args[1], args[2], bp);
  } else if (command == "visible" && args.size() >= 2) {
    rc = CmdVisible(args[1]);
  } else if (command == "attenuation" && args.size() >= 2) {
    rc = CmdAttenuation(args[1], args.size() >= 3 ? std::atof(args[2].c_str()) : 14.25);
  } else if (command == "pairs" && args.size() >= 2) {
    rc = CmdPairs(std::atoi(args[1].c_str()));
  } else if (command == "cities") {
    rc = CmdCities(args.size() >= 2 ? args[1] : "");
  } else if (command == "study" && args.size() >= 2 && args[1] == "latency") {
    rc = CmdStudyLatency({args.begin() + 2, args.end()});
  } else if (command == "trace") {
    rc = CmdTrace({args.begin() + 1, args.end()});
  } else {
    rc = Usage();
  }

  if (!metrics_out.empty()) {
    if (obs::MetricsRegistry::Global().WriteJson(metrics_out)) {
      std::printf("wrote %s\n", metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!trace_out.empty()) {
    if (obs::WriteTraceJson(trace_out)) {
      std::printf("wrote %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!timeseries_out.empty()) {
    if (obs::TimeseriesRecorder::Global().WriteJson(timeseries_out)) {
      std::printf("wrote %s\n", timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", timeseries_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!profile_out.empty()) {
    obs::StopProfiling();
    if (obs::WriteCollapsedStacks(profile_out)) {
      std::printf("wrote %s\n", profile_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", profile_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!trace_net_out.empty()) {
    if (core::NetTraceRecorder::Global().WriteTo(trace_net_out)) {
      std::printf("wrote %s/netstate.jsonl and %s/netevents.jsonl\n",
                  trace_net_out.c_str(), trace_net_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace files under %s\n",
                   trace_net_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!hw_counters_out.empty()) {
    if (obs::WriteHwCountersJson(hw_counters_out)) {
      std::printf("wrote %s\n", hw_counters_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", hw_counters_out.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  return rc;
}
