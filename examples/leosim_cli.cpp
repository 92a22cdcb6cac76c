// leosim_cli — a small command-line front end over the library, the way a
// downstream user would poke at the system without writing code.
//
//   leosim_cli route <cityA> <cityB> [--bp]        shortest path + RTT
//   leosim_cli visible <city>                      satellites in view now
//   leosim_cli attenuation <city> [freq_ghz]       ITU-R budget at the site
//   leosim_cli pairs <count>                       sample a traffic matrix
//   leosim_cli cities [substring]                  list known cities
//   leosim_cli studies                             list registered studies
//   leosim_cli study <name> [flags]                run a registered study
//   leosim_cli trace [flags]                       export a network trace
//
// Flags (cli/flags.hpp) may appear in any position; the observability
// ones apply to every command. A malformed flag or argument exits 2, a
// library error (e.g. an out-of-range ITU-R frequency) exits 1.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"
#include "flags.hpp"
#include "geo/geodesic.hpp"
#include "graph/dijkstra.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"
#include "studies.hpp"

using namespace leosim;

namespace {

int Usage() {
  std::printf(
      "usage: leosim_cli <command> [args] [flags]\n"
      "  route <cityA> <cityB> [--bp]   shortest path + RTT (hybrid default)\n"
      "  visible <city>                 satellites visible right now\n"
      "  attenuation <city> [freq_ghz]  ITU-R attenuation budget\n"
      "  pairs <count>                  sample a >2000 km traffic matrix\n"
      "  cities [substring]             list known cities\n"
      "  studies                        list the registered studies\n"
      "  study <name> [flags]           run a registered study (figures,\n"
      "                                 extensions, ablations; `latency` is a\n"
      "                                 small BP-vs-hybrid run)\n"
      "  trace [--bp] [--pairs=N] [--snapshots=N] [--step=SEC]\n"
      "        [--spacing=DEG] [--trace-net-out=DIR]\n"
      "                                 export + validate a netstate/netevents\n"
      "                                 trace (route-churn sweep)\n"
      "%s",
      cli::kFlagsHelp);
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
      sats, link::IndexSearchRadiusKm(scenario.shell.altitude_km,
                                      scenario.radio.min_elevation_deg));
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
  std::printf("%s at %.2f GHz, 30 deg elevation:\n", name.c_str(), freq);
  for (const double p : {1.0, 0.5, 0.1, 0.01}) {
    const auto b = itur::SlantPathAttenuation(city.Coord(), 30.0, freq, p);
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

cli::StudyConfig TraceDefaults() {
  cli::StudyConfig config;
  config.num_pairs = 5;
  config.num_snapshots = 10;
  config.step_sec = 10.0;
  config.relay_spacing_deg = 3.0;
  config.trace_net_out = "nettrace";
  return config;
}

// Records a network-state trace of a route-churn sweep. On exit,
// cli::WriteObsOutputs proves the replay invariant and writes
// DIR/netstate.jsonl and DIR/netevents.jsonl, ready for
// tools/trace_check.py or a downstream emulator.
int CmdTrace(const cli::StudyConfig& config) {
  const bool bent_pipe = config.bent_pipe;
  const core::Scenario scenario = core::Scenario::Starlink();
  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = config.relay_spacing_deg;
  options.mode = bent_pipe ? core::ConnectivityMode::kBentPipe
                           : core::ConnectivityMode::kHybrid;
  const core::NetworkModel model(scenario, options, cities);

  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = config.num_pairs;
  const std::vector<core::CityPair> pairs = core::SampleCityPairs(cities, traffic);

  core::RunAggregateChurnStudy(model, pairs, cli::MakeSchedule(config));
  std::printf("trace: %d slots (%s)\n", core::NetTraceRecorder::Global().NumSlots(),
              bent_pipe ? "bent-pipe" : "hybrid");
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

// Parses the flags over the command's defaults, runs the command, then
// writes the observability outputs (a failed write turns exit 0 into 1).
int Run(const std::vector<std::string>& args) {
  std::vector<std::string> words;
  std::vector<std::string> flags;
  for (const std::string& arg : args) {
    (cli::IsFlag(arg) ? flags : words).push_back(arg);
  }
  const std::string command = words.empty() ? "" : words[0];
  const cli::Study* study = nullptr;
  cli::StudyConfig config;
  if (command == "study" && words.size() == 2) {
    study = cli::FindStudy(words[1]);
    if (study == nullptr) {
      std::fprintf(stderr, "leosim_cli: unknown study %s (see `leosim_cli studies`)\n",
                   words[1].c_str());
      return 2;
    }
    if (study->defaults != nullptr) {
      config = study->defaults();
    }
  } else if (command == "trace") {
    config = TraceDefaults();
  }
  const std::string error = cli::ParseFlags(flags, &config);
  if (!error.empty()) {
    std::fprintf(stderr, "leosim_cli: %s\n", error.c_str());
    return 2;
  }
  if (config.help) {
    Usage();
    return 0;
  }
  cli::ApplyObsConfig(config);

  int rc = 2;
  if (command == "route" && words.size() == 3) {
    rc = CmdRoute(words[1], words[2], config.bent_pipe);
  } else if (command == "visible" && words.size() == 2) {
    rc = CmdVisible(words[1]);
  } else if (command == "attenuation" && (words.size() == 2 || words.size() == 3)) {
    const std::optional<double> freq =
        words.size() == 3 ? cli::ParseDouble(words[2]) : 14.25;
    if (freq && *freq > 0.0) {
      rc = CmdAttenuation(words[1], *freq);
    } else {
      std::fprintf(stderr,
                   "leosim_cli: invalid frequency '%s' for attenuation "
                   "(expected GHz > 0)\n",
                   words[2].c_str());
    }
  } else if (command == "pairs" && words.size() == 2) {
    const std::optional<int> count = cli::ParseInt(words[1]);
    if (count && *count >= 0) {
      rc = CmdPairs(*count);
    } else {
      std::fprintf(stderr,
                   "leosim_cli: invalid count '%s' for pairs "
                   "(expected an integer >= 0)\n",
                   words[1].c_str());
    }
  } else if (command == "cities" && words.size() <= 2) {
    rc = CmdCities(words.size() == 2 ? words[1] : "");
  } else if (command == "studies" && words.size() == 1) {
    for (const cli::Study& s : cli::Studies()) {
      std::printf("%-26s %s\n", s.name, s.summary);
    }
    rc = 0;
  } else if (study != nullptr) {
    if (study->max_pairs > 0) {
      config.num_pairs = std::min(config.num_pairs, study->max_pairs);
    }
    rc = study->run(config);
  } else if (command == "trace" && words.size() == 1) {
    rc = CmdTrace(config);
  } else {
    rc = Usage();
  }
  return cli::WriteObsOutputs(config, rc);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run({argv + 1, argv + argc});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "leosim_cli: %s\n", e.what());
    return 1;
  }
}
