#include "flags.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>
#include <utility>

#include "core/net_trace.hpp"
#include "core/report.hpp"
#include "core/stats.hpp"
#include "data/city_catalog.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/progress.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace leosim::cli {

const char kFlagsHelp[] =
    "flags: --pairs=N --cities=N --spacing=DEG --aircraft=SCALE "
    "--snapshots=N --step=SEC --full --bp --csv=PREFIX "
    "--manifest-out=F --log-level=L --metrics-out=F --trace-out=F "
    "--timeseries-out=F --profile-out=F --hw-counters=F --trace-net-out=DIR "
    "--flight-recorder[=F] --progress[=SEC]\n";

bool IsFlag(std::string_view arg) { return arg.starts_with("--") || arg == "-h"; }

std::optional<int> ParseInt(std::string_view text) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

std::optional<double> ParseDouble(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

namespace {

// The string-valued flags, each stored as given.
constexpr std::pair<std::string_view, std::string StudyConfig::*> kPathFlags[] = {
    {"--csv", &StudyConfig::csv_prefix},
    {"--manifest-out", &StudyConfig::manifest_out},
    {"--metrics-out", &StudyConfig::metrics_out},
    {"--trace-out", &StudyConfig::trace_out},
    {"--timeseries-out", &StudyConfig::timeseries_out},
    {"--profile-out", &StudyConfig::profile_out},
    {"--hw-counters", &StudyConfig::hw_counters_out},
    {"--trace-net-out", &StudyConfig::trace_net_out},
    {"--flight-recorder", &StudyConfig::flight_recorder_out},
};

std::string* PathFlag(StudyConfig* config, std::string_view name) {
  for (const auto& [flag, member] : kPathFlags) {
    if (flag == name) {
      return &(config->*member);
    }
  }
  return nullptr;
}

}  // namespace

std::string ParseFlags(const std::vector<std::string>& flags, StudyConfig* config) {
  for (const std::string& arg : flags) {
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (arg == "--full") {
        config->num_cities = 1000;
        config->num_pairs = 5000;
        config->relay_spacing_deg = 0.5;
        config->num_snapshots = 96;
        config->step_sec = 900.0;
      } else if (arg == "--bp") {
        config->bent_pipe = true;
      } else if (arg == "--progress") {
        config->progress_interval_sec = obs::kDefaultProgressIntervalSec;
      } else if (arg == "--flight-recorder") {
        config->flight_recorder = true;
      } else if (arg == "--help" || arg == "-h") {
        config->help = true;
      } else {
        return "unknown flag " + arg;
      }
      continue;
    }

    const std::string name = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    const auto bad = [&](const char* expected) {
      return "invalid value '" + value + "' for " + name + " (expected " +
             expected + ")";
    };
    // Integers with a lower bound; finite doubles above (or from) zero.
    const auto set_int = [&value](int min, int* out) {
      const std::optional<int> v = ParseInt(value);
      const bool ok = v && *v >= min;
      if (ok) {
        *out = *v;
      }
      return ok;
    };
    const auto set_double = [&value](bool allow_zero, double* out) {
      const std::optional<double> v = ParseDouble(value);
      const bool ok = v && (*v > 0.0 || (allow_zero && *v == 0.0));
      if (ok) {
        *out = *v;
      }
      return ok;
    };

    if (name == "--pairs") {
      if (!set_int(0, &config->num_pairs)) {
        return bad("an integer >= 0");
      }
    } else if (name == "--cities") {
      if (!set_int(2, &config->num_cities)) {
        return bad("an integer >= 2");
      }
    } else if (name == "--snapshots") {
      if (!set_int(1, &config->num_snapshots)) {
        return bad("an integer >= 1");
      }
    } else if (name == "--spacing") {
      if (!set_double(false, &config->relay_spacing_deg)) {
        return bad("a number > 0");
      }
    } else if (name == "--step") {
      if (!set_double(false, &config->step_sec)) {
        return bad("a number > 0");
      }
    } else if (name == "--aircraft") {
      if (!set_double(true, &config->aircraft_scale)) {
        return bad("a number >= 0");
      }
    } else if (name == "--progress") {
      if (!set_double(false, &config->progress_interval_sec)) {
        return bad("a number > 0");
      }
    } else if (name == "--log-level") {
      // ParseLogLevel maps every unknown name to "off".
      if (obs::ToString(obs::ParseLogLevel(value)) != value) {
        return bad("off, error, warn, info or debug");
      }
      config->log_level = value;
    } else if (std::string* out = PathFlag(config, name)) {
      if (value.empty()) {
        return bad("a path");
      }
      *out = value;
      config->flight_recorder |= name == "--flight-recorder";
    } else {
      return "unknown flag " + arg;
    }
  }
  return "";
}

void ApplyObsConfig(const StudyConfig& config) {
  if (!config.log_level.empty()) {
    obs::SetLogLevel(obs::ParseLogLevel(config.log_level));
  }
  if (!config.trace_out.empty()) {
    obs::EnableTracing(true);
  }
  if (!config.timeseries_out.empty()) {
    obs::TimeseriesRecorder::Global().Enable(true);
  }
  if (!config.profile_out.empty()) {
    obs::StartProfiling();
  }
  if (!config.hw_counters_out.empty()) {
    obs::EnableHwCounters(true);
  }
  if (!config.trace_net_out.empty()) {
    core::NetTraceRecorder::Global().Enable(true);
  }
  if (config.flight_recorder) {
    obs::FlightRecorderOptions flight;
    flight.dump_path = config.flight_recorder_out;
    obs::EnableFlightRecorder(flight);
  }
  if (config.progress_interval_sec > 0.0) {
    obs::SetProgressInterval(config.progress_interval_sec);
  }
}

int WriteObsOutputs(const StudyConfig& config, int rc) {
  const auto report = [&rc](bool ok, const std::string& path) {
    if (ok) {
      std::printf("wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  };
  if (!config.metrics_out.empty()) {
    report(obs::MetricsRegistry::Global().WriteJson(config.metrics_out),
           config.metrics_out);
  }
  if (!config.trace_out.empty()) {
    report(obs::WriteTraceJson(config.trace_out), config.trace_out);
  }
  if (!config.timeseries_out.empty()) {
    report(obs::TimeseriesRecorder::Global().WriteJson(config.timeseries_out),
           config.timeseries_out);
  }
  if (!config.profile_out.empty()) {
    obs::StopProfiling();
    report(obs::WriteCollapsedStacks(config.profile_out), config.profile_out);
  }
  if (!config.trace_net_out.empty()) {
    // Slot 0's full state plus the per-slot event stream must reproduce
    // every later slot bit for bit before any file is written.
    const std::string& dir = config.trace_net_out;
    const core::NetTraceRecorder& recorder = core::NetTraceRecorder::Global();
    std::string why;
    if (!recorder.ValidateReplay(&why)) {
      std::fprintf(stderr, "trace replay validation FAILED: %s\n", why.c_str());
      rc = rc == 0 ? 1 : rc;
    } else if (recorder.WriteTo(dir)) {
      std::printf("replay validated, wrote %s/netstate.jsonl and %s/netevents.jsonl\n",
                  dir.c_str(), dir.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace files under %s\n", dir.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!config.hw_counters_out.empty()) {
    report(obs::WriteHwCountersJson(config.hw_counters_out), config.hw_counters_out);
  }
  return rc;
}

std::vector<data::City> MakeCities(const StudyConfig& config) {
  std::vector<data::City> cities = data::GenerateWorldCities(config.num_cities, 42);
  // The named-pair figures (3, 8, 10, 11) need the paper's cities even if
  // a small --cities truncation would have dropped them by population.
  for (const char* name : {"Maceio", "Durban", "Delhi", "Sydney", "Brisbane",
                           "Tokyo", "Paris", "New York", "London"}) {
    const data::City& city = data::FindCity(name);
    bool present = false;
    for (const data::City& c : cities) {
      if (c.name == city.name) {
        present = true;
        break;
      }
    }
    if (!present) {
      cities.push_back(city);
    }
  }
  return cities;
}

core::NetworkOptions MakeOptions(const StudyConfig& config,
                                 core::ConnectivityMode mode) {
  core::NetworkOptions options;
  options.mode = mode;
  options.relay_spacing_deg = config.relay_spacing_deg;
  options.aircraft_scale = config.aircraft_scale;
  return options;
}

core::SnapshotSchedule MakeSchedule(const StudyConfig& config) {
  core::SnapshotSchedule schedule;
  schedule.step_sec = config.step_sec;
  schedule.duration_sec = config.step_sec * config.num_snapshots;
  return schedule;
}

std::vector<core::CityPair> MakePairs(const StudyConfig& config,
                                      const std::vector<data::City>& cities) {
  core::TrafficMatrixOptions options;
  options.num_pairs = config.num_pairs;
  options.seed = config.seed;
  return core::SampleCityPairs(cities, options);
}

void PrintConfig(const StudyConfig& config, const char* what) {
  std::printf("# %s\n", what);
  std::printf(
      "# config: cities=%d pairs=%d spacing=%.2fdeg aircraft=%.2fx "
      "snapshots=%d step=%.0fs\n",
      config.num_cities, config.num_pairs, config.relay_spacing_deg,
      config.aircraft_scale, config.num_snapshots, config.step_sec);
}

std::string PercentileOrNa(const std::vector<double>& values, double p,
                           int precision) {
  return values.empty() ? "n/a"
                        : core::FormatDouble(core::Percentile(values, p), precision);
}

}  // namespace leosim::cli
