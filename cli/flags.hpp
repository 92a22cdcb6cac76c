// The one command-line parser of the leosim front ends (leosim_cli and
// bench_pipeline), the observability setup both share, and the model
// construction every registered study starts from. Every flag:
//
//   --pairs=N         city pairs in the traffic matrix   (default 500)
//   --cities=N        cities in the world model          (default 332 anchors)
//   --spacing=DEG     relay grid spacing                 (default 2.5)
//   --aircraft=SCALE  flight-frequency multiplier        (default 1.0)
//   --snapshots=N     time snapshots                     (default 12)
//   --step=SEC        snapshot spacing                   (default 900 = 15 min)
//   --full            paper-scale run: 1000 cities, 5000 pairs, 0.5-deg
//                     grid, 96 snapshots (hours of compute)
//   --bp              bent-pipe instead of hybrid (route, trace)
//   --csv=PREFIX      CDF exports PREFIX_{min,range}_{bp,hybrid}.csv
//                     (fig2_latency)
//   --manifest-out=F  run manifest JSON (study latency)
//   --log-level=L     obs logging (off|error|warn|info|debug; default:
//                     LEOSIM_LOG)
//   --metrics-out=F   write the metrics registry as JSON on exit
//   --trace-out=F     enable span tracing, write Chrome trace JSON on exit
//   --timeseries-out=F
//                     enable per-snapshot timeseries recording, write the
//                     sorted JSON export on exit
//   --profile-out=F   run the sampling profiler, write collapsed-stack
//                     text (flamegraph.pl/speedscope input) on exit
//   --hw-counters=F   per-phase hardware counters (cycles, instructions,
//                     cache/branch misses), written as JSON on exit;
//                     degrades gracefully where perf_event_open is denied
//   --trace-net-out=DIR
//                     record network-state traces, validate their replay
//                     and write DIR/netstate.jsonl and DIR/netevents.jsonl
//                     on exit (trace; default nettrace)
//   --flight-recorder[=F]
//                     keep a crash flight recorder (dump to F or stderr)
//   --progress[=SEC]  heartbeat progress lines every SEC seconds
//                     (default 2; also via LEOSIM_PROGRESS)
//   --help, -h        print the flags and exit
//
// Numbers must parse completely (std::from_chars) and lie in range; an
// unknown flag or a bad value is an error naming the flag and the value.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/latency_study.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/cities.hpp"

namespace leosim::cli {

struct StudyConfig {
  int num_pairs{500};
  int num_cities{static_cast<int>(data::AnchorCities().size())};
  double relay_spacing_deg{2.5};
  double aircraft_scale{1.0};
  int num_snapshots{12};
  double step_sec{900.0};
  uint64_t seed{20201104};
  bool bent_pipe{false};
  std::string csv_prefix;
  std::string manifest_out;
  bool help{false};

  std::string log_level;        // empty = leave LEOSIM_LOG in charge
  std::string metrics_out;      // empty = no metrics export
  std::string trace_out;        // empty = tracing stays off
  std::string timeseries_out;   // empty = timeseries recording stays off
  std::string profile_out;      // empty = sampling profiler stays off
  std::string hw_counters_out;  // empty = hardware counters stay off
  std::string trace_net_out;    // empty = network-state traces stay off
  bool flight_recorder{false};
  std::string flight_recorder_out;    // empty = dump to stderr
  double progress_interval_sec{0.0};  // 0 = leave LEOSIM_PROGRESS in charge
};

// The one-line flag summary --help prints.
extern const char kFlagsHelp[];

// True for the arguments ParseFlags consumes: "--..." and "-h".
bool IsFlag(std::string_view arg);

// Applies `flags` in order on top of the defaults already in `config`.
// Returns an empty string on success, else a message naming the first
// unknown flag, or the flag and value that is malformed or out of range.
std::string ParseFlags(const std::vector<std::string>& flags, StudyConfig* config);

// Whole-string numeric parsers for flag values and positional arguments:
// nullopt unless `text` is one complete number that fits the type (the
// double parser also rejects nan and inf).
std::optional<int> ParseInt(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

// Switches on the observability the config asks for; call once after
// parsing, before any timed work (tracing must be on before the spans of
// interest run).
void ApplyObsConfig(const StudyConfig& config);

// Writes the requested observability outputs; call once on exit. A
// network-state trace is written only after its replay validates.
// Returns `rc`, or 1 if `rc` was 0 and a write or the validation failed.
int WriteObsOutputs(const StudyConfig& config, int rc);

std::vector<data::City> MakeCities(const StudyConfig& config);
core::NetworkOptions MakeOptions(const StudyConfig& config,
                                 core::ConnectivityMode mode);
core::SnapshotSchedule MakeSchedule(const StudyConfig& config);
std::vector<core::CityPair> MakePairs(const StudyConfig& config,
                                      const std::vector<data::City>& cities);
void PrintConfig(const StudyConfig& config, const char* what);

// FormatDouble(Percentile(values, p), precision), or "n/a" for an empty
// sample (no pair reachable, as with --pairs=0). The studies leave out
// table rows derived from an empty sample and print its summary values
// through this.
std::string PercentileOrNa(const std::vector<double>& values, double p,
                           int precision = 2);

}  // namespace leosim::cli
