// Workload benchmark driver for leosim: runs one named workload in this
// process and prints its metrics, output digests and check results as one
// JSON object on the last line of stdout. run.py builds and calls it:
//
//   perfbench_driver --workload churn_10s --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up
// time, then the workload's study calls repeated for --seconds, reported
// as medians over the calls. --trace 1 gives the per-layer metrics
// instead: registry counter deltas around one study call at the
// workload's thread count, and a one-thread replay of the study's slot
// loop (replay.cpp) with a span around every layer call, alternated with
// an untraced one-thread study call to price the tracing and an untraced
// call at min(4, cores) threads for the thread scaling.
//
// All inputs come from --seed: the synthetic cities, the pair sample and
// the aircraft schedule. The library receives only the generated inputs.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/scenario.hpp"
#include "core/stats.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "data/city_catalog.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using leosim::core::CityPair;
using leosim::core::NetTraceRecorder;
using leosim::core::NetworkModel;
using leosim::core::SnapshotSchedule;

// Anchor cities (332) plus seed-generated secondary cities, so the seed
// moves the city set as well as the pair sample.
constexpr int kCities = 400;
constexpr double kRelaySpacingDeg = 2.5;
// A run measures this many input sets, each generated from its own seed
// derived from --seed, so its figures average over several city sets and
// pair samples rather than resting on one draw.
constexpr int kInputSets = 4;
// Each input set is set up this many times before the first study call,
// and once more before each of its timed calls, so its set-up times are
// sampled across the whole run.
constexpr int kSetupReps = 3;

enum class Kind { kFigs, kChurn, kTrace };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  bool multi_thread;  // min(4, cores) workers; otherwise one
  int pairs;
  int slots;
  double step_sec;
  bool aircraft;
};

// Why each workload is here: perfbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"figs_15min", Kind::kFigs, true, 120, 8, 900.0, true},
    {"churn_10s", Kind::kChurn, false, 300, 30, 10.0, false},
    {"trace_10s", Kind::kTrace, false, 100, 12, 10.0, false},
};

struct Args {
  const WorkloadSpec* spec{nullptr};
  uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  bool perturb{false};
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload NAME "
               "--seed N --seconds S --trace 0|1 [--perturb]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb") {
      args.perturb = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (value == w.name) {
          args.spec = &w;
        }
      }
      if (args.spec == nullptr) {
        Usage("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (> 0) and --trace (0|1) are required");
  }
  return args;
}

int MaxThreads() {
  return std::clamp(static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
}

int WorkloadThreads(const WorkloadSpec& spec) {
  return spec.multi_thread ? MaxThreads() : 1;
}

// The sweeps resolve their worker count from LEOSIM_THREADS at the start
// of every run (core/parallel.hpp).
void SetThreads(int threads) {
  setenv("LEOSIM_THREADS", std::to_string(threads).c_str(), 1);
}

double Seconds(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The library's statistics, with 0 for an empty sample (a span that never
// ran on this workload).
double Median(const std::vector<double>& v) {
  return v.empty() ? 0.0 : leosim::core::Median(v);
}

double Percentile(const std::vector<double>& v, double q) {
  return v.empty() ? 0.0 : leosim::core::Percentile(v, q);
}

// ---- Inputs ------------------------------------------------------------

struct Setup {
  std::unique_ptr<NetworkModel> bp;      // figs_15min only
  std::unique_ptr<NetworkModel> hybrid;  // every workload
  std::vector<CityPair> pairs;
  double cities_ms{0.0};
  double model_ms{0.0};
  double pairs_ms{0.0};
};

Setup MakeSetup(const WorkloadSpec& spec, uint64_t seed) {
  Setup s;
  const int64_t t0 = NowNs();
  const std::vector<leosim::data::City> cities =
      leosim::data::GenerateWorldCities(kCities, seed);
  const int64_t t1 = NowNs();
  leosim::core::NetworkOptions options;
  options.relay_spacing_deg = kRelaySpacingDeg;
  options.use_aircraft = spec.aircraft;
  options.seed = seed;
  const leosim::core::Scenario scenario = leosim::core::Scenario::Starlink();
  if (spec.kind == Kind::kFigs) {
    options.mode = leosim::core::ConnectivityMode::kBentPipe;
    s.bp = std::make_unique<NetworkModel>(scenario, options, cities);
  }
  options.mode = leosim::core::ConnectivityMode::kHybrid;
  s.hybrid = std::make_unique<NetworkModel>(scenario, options, cities);
  const int64_t t2 = NowNs();
  leosim::core::TrafficMatrixOptions pair_options;
  pair_options.num_pairs = spec.pairs;
  pair_options.seed = seed;
  s.pairs = leosim::core::SampleCityPairs(cities, pair_options);
  const int64_t t3 = NowNs();
  s.cities_ms = Seconds(t0, t1) * 1e3;
  s.model_ms = Seconds(t1, t2) * 1e3;
  s.pairs_ms = Seconds(t2, t3) * 1e3;
  return s;
}

SnapshotSchedule MakeSchedule(const WorkloadSpec& spec) {
  SnapshotSchedule schedule;
  schedule.step_sec = spec.step_sec;
  schedule.duration_sec = spec.step_sec * spec.slots;
  return schedule;
}

// Slot-streams one study call completes: one per (slot, BP or hybrid
// stream). figs_15min runs two streams in the latency study and one in
// each of the two throughput sweeps.
double SlotStreams(const WorkloadSpec& spec) {
  return static_cast<double>(spec.slots) * (spec.kind == Kind::kFigs ? 4 : 1);
}

// ---- Study calls ---------------------------------------------------------

struct StudyCall {
  FigsOutput figs;
  ChurnOutput churn;
  double wall_s{0.0};
  double cpu_s{0.0};
};

StudyCall CallStudy(const WorkloadSpec& spec, const Setup& setup,
                    const SnapshotSchedule& schedule, int threads) {
  SetThreads(threads);
  NetTraceRecorder& net_trace = NetTraceRecorder::Global();
  net_trace.Reset();
  net_trace.Enable(spec.kind == Kind::kTrace);
  StudyCall call;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  switch (spec.kind) {
    case Kind::kFigs:
      call.figs.latency = leosim::core::RunLatencyStudy(
          *setup.bp, *setup.hybrid, setup.pairs, schedule);
      call.figs.bp_throughput = leosim::core::RunThroughputSweep(
          *setup.bp, setup.pairs, kFig4Paths, schedule);
      call.figs.hybrid_throughput = leosim::core::RunThroughputSweep(
          *setup.hybrid, setup.pairs, kFig4Paths, schedule);
      break;
    case Kind::kChurn:
      call.churn.churn = leosim::core::RunAggregateChurnStudy(
          *setup.hybrid, setup.pairs, schedule);
      break;
    case Kind::kTrace:
      call.churn.churn = leosim::core::RunAggregateChurnStudy(
          *setup.hybrid, setup.pairs, schedule);
      call.churn.trace_bytes =
          net_trace.NetStateJsonl().size() + net_trace.NetEventsJsonl().size();
      call.churn.validate_ok = net_trace.ValidateReplay(&call.churn.validate_why);
      break;
  }
  call.wall_s = Seconds(t0, NowNs());
  call.cpu_s = CpuSeconds() - cpu0;
  return call;
}

// Output digests, by name. The trace digest reads the global recorder,
// so it must be taken before the next study call resets it.
using Digests = std::vector<std::pair<std::string, std::string>>;

Digests DigestOutputs(const WorkloadSpec& spec, const FigsOutput& figs,
                      const ChurnOutput& churn) {
  switch (spec.kind) {
    case Kind::kFigs:
      return {{"latency", DigestLatency(figs.latency)},
              {"throughput", DigestThroughput(figs)}};
    case Kind::kChurn:
      return {{"churn", DigestChurn(churn.churn)}};
    case Kind::kTrace:
      return {{"churn", DigestChurn(churn.churn)}, {"trace", DigestTrace()}};
  }
  return {};
}

// The self-check's fault: one output value moved by one ulp.
void Perturb(const WorkloadSpec& spec, StudyCall* call) {
  if (spec.kind != Kind::kFigs) {
    double& v = call->churn.churn.mean_rtt_jitter_ms;
    v = std::nextafter(v, HUGE_VAL);
    return;
  }
  for (leosim::core::PairRttSeries& s : call->figs.latency.hybrid) {
    for (double& rtt : s.rtt_ms) {
      if (std::isfinite(rtt)) {
        rtt = std::nextafter(rtt, HUGE_VAL);
        return;
      }
    }
  }
}

// ---- Checks --------------------------------------------------------------

struct Checks {
  std::vector<std::pair<std::string, bool>> results;

  void Add(const std::string& name, bool ok, const std::string& detail = "") {
    results.emplace_back(name, ok);
    if (!ok) {
      std::fprintf(stderr, "perfbench: check failed: %s %s\n", name.c_str(),
                   detail.c_str());
    }
  }
};

// The paper's shape claims on figs_15min: hybrid connectivity lowers the
// median minimum RTT (Fig. 2) and raises aggregate throughput (Fig. 4).
void ShapeChecks(const FigsOutput& figs, Checks* checks) {
  const leosim::core::LatencyStudyResult& lat = figs.latency;
  const double bp_median = Median(lat.MinRtts(lat.bp));
  const double hybrid_median = Median(lat.MinRtts(lat.hybrid));
  checks->Add("fig2_hybrid_min_rtt_below_bp",
              hybrid_median > 0.0 && hybrid_median < bp_median,
              std::to_string(hybrid_median) + " vs " + std::to_string(bp_median));
  double bp_total = 0.0;
  double hybrid_total = 0.0;
  for (const auto& r : figs.bp_throughput) {
    bp_total += r.total_gbps;
  }
  for (const auto& r : figs.hybrid_throughput) {
    hybrid_total += r.total_gbps;
  }
  checks->Add("fig4_hybrid_over_bp_above_1",
              bp_total > 0.0 && hybrid_total / bp_total > 1.0,
              std::to_string(hybrid_total) + " / " + std::to_string(bp_total));
}

// Checks every study call gets: the paper's shapes and the trace's own
// replay validation.
void OutputChecks(const WorkloadSpec& spec, const StudyCall& call,
                  Checks* checks) {
  if (spec.kind == Kind::kFigs) {
    ShapeChecks(call.figs, checks);
  }
  if (spec.kind == Kind::kTrace) {
    checks->Add("trace_validate_replay", call.churn.validate_ok,
                call.churn.validate_why);
  }
}

// ---- Registry reads ------------------------------------------------------

leosim::obs::MetricsRegistry& Registry() {
  return leosim::obs::MetricsRegistry::Global();
}

double CounterValue(const char* name) {
  return static_cast<double>(Registry().GetCounter(name).Value());
}

// The bounds the library registers these histograms with; passing them
// again keeps a first registration from here identical.
leosim::obs::Histogram::Merged PhaseHistogram(const char* name) {
  return Registry()
      .GetHistogram(name, leosim::obs::Histogram::ExponentialBounds(1.0, 2.0, 20))
      .Merge();
}

// Events in the global recorder's netevents stream. The library counts
// them (nettrace.events_emitted) only when it writes the trace to files,
// which the benchmark does not do. Every event is a JSON array that opens
// with its quoted name, and nothing else in the stream opens that way.
double TraceEvents() {
  const std::string stream = NetTraceRecorder::Global().NetEventsJsonl();
  double events = 0.0;
  for (size_t at = stream.find("[\""); at != std::string::npos;
       at = stream.find("[\"", at + 2)) {
    events += 1.0;
  }
  return events;
}

// ---- Output --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintJson(const Args& args, const Digests& digests, const Checks& checks,
               const std::vector<Metric>& metrics) {
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, ",
              args.spec->name, static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0);
  std::printf("\"digests\": {");
  for (size_t i = 0; i < digests.size(); ++i) {
    std::printf("%s\"%s\": \"%s\"", i == 0 ? "" : ", ", digests[i].first.c_str(),
                digests[i].second.c_str());
  }
  std::printf("}, \"checks\": [");
  for (size_t i = 0; i < checks.results.size(); ++i) {
    std::printf("%s{\"name\": \"%s\", \"ok\": %s}", i == 0 ? "" : ", ",
                checks.results[i].first.c_str(),
                checks.results[i].second ? "true" : "false");
  }
  std::printf("], \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---- Runs ----------------------------------------------------------------

// Times per input set, one per set-up or call.
using PerSet = std::vector<std::vector<double>>;

// The run's figure for a time measured on every input set: each set's
// upper quartile, summed over the sets. The host runs in spells, mostly of
// a few seconds, in which the same call takes up to 40% less time. Its slow
// mode is the steady one: the upper quartile follows it, where the median
// moves with the share of fast spells a run happens to catch
// (perfbench/README.md).
double SumOfUpperQuartiles(const PerSet& per_set) {
  double total = 0.0;
  for (const std::vector<double>& set : per_set) {
    total += Percentile(set, 75);
  }
  return total;
}

struct InputSets {
  const WorkloadSpec* spec{nullptr};
  std::vector<uint64_t> seeds;
  std::vector<Setup> sets;
  PerSet setup_s{PerSet(kInputSets)};
  PerSet cities_ms{PerSet(kInputSets)};
  PerSet model_ms{PerSet(kInputSets)};
  PerSet pairs_ms{PerSet(kInputSets)};

  // Sets up input set k and records how long it took.
  Setup TimedSetup(int k) {
    const int64_t t0 = NowNs();
    Setup setup = MakeSetup(*spec, seeds[static_cast<size_t>(k)]);
    setup_s[k].push_back(Seconds(t0, NowNs()));
    cities_ms[k].push_back(setup.cities_ms);
    model_ms[k].push_back(setup.model_ms);
    pairs_ms[k].push_back(setup.pairs_ms);
    return setup;
  }
};

// Input set k is generated from seed kInputSets * --seed + k.
InputSets MakeInputSets(const Args& args) {
  InputSets in;
  in.spec = args.spec;
  for (int k = 0; k < kInputSets; ++k) {
    in.seeds.push_back(args.seed * kInputSets + static_cast<uint64_t>(k));
    for (int rep = 1; rep < kSetupReps; ++rep) {
      in.TimedSetup(k);
    }
    in.sets.push_back(in.TimedSetup(k));
  }
  return in;
}

// One digest per output name over every input set's digest of it.
Digests CombineDigests(const std::vector<Digests>& per_set) {
  Digests combined = per_set.front();
  for (size_t i = 0; i < combined.size(); ++i) {
    Digest d;
    for (const Digests& set : per_set) {
      d.Add(static_cast<int64_t>(std::stoull(set[i].second, nullptr, 16)));
    }
    combined[i].second = d.Hex();
  }
  return combined;
}

// One comment line of times, one bracket per input set.
void PrintSeconds(const char* what, const PerSet& s) {
  std::printf("# %s", what);
  for (const std::vector<double>& set : s) {
    std::printf(" [");
    for (const double v : set) {
      std::printf(" %.4f", v);
    }
    std::printf(" ]");
  }
  std::printf("\n");
}

// Study calls in rounds of one call per input set, each call after one
// more set-up of its set; every figure is a SumOfUpperQuartiles.
std::vector<Metric> EndToEnd(const Args& args, InputSets& in,
                             const std::vector<Digests>& first,
                             Checks* checks) {
  const WorkloadSpec& spec = *args.spec;
  const SnapshotSchedule schedule = MakeSchedule(spec);
  const int threads = WorkloadThreads(spec);
  std::vector<std::vector<double>> wall_s(kInputSets);
  std::vector<std::vector<double>> cpu_s(kInputSets);
  bool repeatable = true;
  int rounds = 0;
  const int64_t start = NowNs();
  while (rounds == 0 || Seconds(start, NowNs()) < args.seconds) {
    for (int k = 0; k < kInputSets; ++k) {
      in.TimedSetup(k);
      StudyCall call = CallStudy(spec, in.sets[k], schedule, threads);
      if (args.perturb && k == 0) {
        Perturb(spec, &call);
      }
      repeatable = repeatable && DigestOutputs(spec, call.figs, call.churn) ==
                                     first[static_cast<size_t>(k)];
      wall_s[k].push_back(call.wall_s);
      cpu_s[k].push_back(call.cpu_s);
    }
    ++rounds;
  }
  checks->Add("digest_repeatable", repeatable);
  const double total_wall = SumOfUpperQuartiles(wall_s);
  const double total_cpu = SumOfUpperQuartiles(cpu_s);
  PrintSeconds("set-up seconds:", in.setup_s);
  std::printf("# %s: %d rounds of %d input sets at %d threads\n", spec.name,
              rounds, kInputSets, threads);
  PrintSeconds("call seconds:", wall_s);
  const double streams = kInputSets * SlotStreams(spec);
  return {{"setup_s", SumOfUpperQuartiles(in.setup_s), "s"},
          {"slots_per_s", streams / total_wall, "1/s"},
          {"cpu_ms_per_slot", total_cpu * 1e3 / streams, "ms"},
          {"peak_rss_mb", PeakRssMb(), "MB"}};
}

void PrintLayerTable(const SpanLog& log) {
  const double root = log.Get("replay").total_ns;
  std::printf("# %-20s %8s %12s %12s %8s\n", "span", "calls", "total_ms",
              "self_ms", "self%");
  for (const SpanLog::Stats& s : log.all()) {
    std::printf("# %-20s %8llu %12.3f %12.3f %7.2f%%\n", s.name.c_str(),
                static_cast<unsigned long long>(s.calls), s.total_ns * 1e-6,
                s.self_ns * 1e-6, root > 0.0 ? 100.0 * s.self_ns / root : 0.0);
  }
}

// Per-layer figures for the first input set.
std::vector<Metric> PerLayer(const Args& args, const InputSets& in,
                             const Digests& first, Checks* checks) {
  const Setup& setup = in.sets.front();
  const WorkloadSpec& spec = *args.spec;
  const SnapshotSchedule schedule = MakeSchedule(spec);
  const int threads = WorkloadThreads(spec);

  // Counter deltas around one study call at the workload's thread count.
  Registry().Reset();
  const StudyCall counted = CallStudy(spec, setup, schedule, threads);
  const double builds = CounterValue("snapshot.builds");
  const double steps = CounterValue("snapshot.steps");
  const double pairs_retested = CounterValue("snapshot.step.pairs_retested");
  const double windows_expired = CounterValue("snapshot.step.windows_expired");
  const double recompact = CounterValue("snapshot.step.recompact");
  const double queries = CounterValue("dijkstra.queries");
  const double popped = CounterValue("dijkstra.nodes_popped");
  const double relaxed = CounterValue("dijkstra.edges_relaxed");
  const double items = CounterValue("parallel.items");
  const double events = spec.kind == Kind::kTrace ? TraceEvents() : 0.0;
  const double propagate_ms = PhaseHistogram("snapshot.propagate_us").sum * 1e-3;
  const double index_ms = PhaseHistogram("snapshot.index_us").sum * 1e-3;
  const double visibility_ms = PhaseHistogram("snapshot.visibility_us").sum * 1e-3;
  const double assemble_ms = PhaseHistogram("snapshot.graph_us").sum * 1e-3;
  const leosim::obs::Histogram::Merged utilization =
      Registry()
          .GetHistogram("parallel.worker_utilization",
                        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0})
          .Merge();

  // Every round makes an untraced one-thread study call, a traced replay
  // and an untraced study call at min(4, cores) threads. Which of the first
  // two runs first alternates, so neither gets the warmer caches. The
  // N-thread call's outputs must not change with the thread count, and its
  // builds and recompactions show whether the slot scheduler keeps the
  // stepper's locality (the one-thread counts are builder.builds and
  // stepper.recompact).
  const int max_threads = MaxThreads();
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> at_n_s;
  std::vector<double> builds_at_n;
  std::vector<double> recompact_at_n;
  SpanLog log;
  ReplayCounters counters;
  FigsOutput figs;
  ChurnOutput churn;
  bool replay_matches = true;
  bool thread_invariant = true;
  const auto untraced = [&] {
    untraced_s.push_back(CallStudy(spec, setup, schedule, 1).wall_s);
  };
  const auto traced = [&] {
    log = SpanLog();
    counters = ReplayCounters();
    SetThreads(1);
    const int64_t t0 = NowNs();
    if (spec.kind == Kind::kFigs) {
      figs = ReplayFigs(*setup.bp, *setup.hybrid, setup.pairs, schedule, log,
                        &counters);
    } else {
      churn = ReplayChurn(*setup.hybrid, setup.pairs, schedule,
                          spec.kind == Kind::kTrace, log, &counters);
    }
    traced_s.push_back(Seconds(t0, NowNs()));
    replay_matches = replay_matches && DigestOutputs(spec, figs, churn) == first;
  };
  const auto at_n = [&] {
    const double builds0 = CounterValue("snapshot.builds");
    const double recompact0 = CounterValue("snapshot.step.recompact");
    const StudyCall call = CallStudy(spec, setup, schedule, max_threads);
    at_n_s.push_back(call.wall_s);
    builds_at_n.push_back(CounterValue("snapshot.builds") - builds0);
    recompact_at_n.push_back(CounterValue("snapshot.step.recompact") -
                             recompact0);
    thread_invariant =
        thread_invariant && DigestOutputs(spec, call.figs, call.churn) == first;
  };
  const int64_t start = NowNs();
  while (traced_s.size() < 2 || Seconds(start, NowNs()) < args.seconds) {
    if (traced_s.size() % 2 == 0) {
      untraced();
      traced();
    } else {
      traced();
      untraced();
    }
    at_n();
  }
  checks->Add("digest_equals_n_threads", thread_invariant);
  checks->Add("replay_digest_equals_study", replay_matches);
  if (spec.kind == Kind::kTrace) {
    checks->Add("replay_trace_validate", churn.validate_ok, churn.validate_why);
  }

  PrintLayerTable(log);
  const auto ms = [](const std::vector<double>& ns, double q) {
    return Percentile(ns, q) * 1e-6;
  };
  const SpanLog::Stats& build = log.Get("builder.build");
  const SpanLog::Stats& step = log.Get("stepper.step");
  const SpanLog::Stats& tree = log.Get("graph.tree");
  const SpanLog::Stats& root = log.Get("replay");
  const double unattributed =
      (root.self_ns + log.Get("slot").self_ns) / root.total_ns;
  const double overhead = Median(traced_s) / Median(untraced_s) - 1.0;
  const double scaling = Median(untraced_s) / Median(at_n_s);
  // Every tree route either reuses a stored tree or builds one.
  const double tree_calls = static_cast<double>(tree.calls);
  const double tree_reuses = static_cast<double>(counters.tree_reuses);
  const double trace_mb = static_cast<double>(churn.trace_bytes) * 1e-6;
  const double serialize_s = log.Get("nettrace.serialize").total_ns * 1e-9;
  std::printf(
      "# %s: %zu rounds; study call %.3f s at %d threads; medians: %.3f s at "
      "%d threads, one-thread untraced %.3f s, traced replay %.3f s\n"
      "# trace.overhead %.4f  trace.unattributed_share %.4f  "
      "thread scaling (slots_per_s at %d threads / at 1) %.3f\n"
      "# builds %.0f steps %.0f recompact %.0f (at %d threads, medians: "
      "builds %.0f recompact %.0f); tree reuses %.0f of %.0f routes; pops "
      "%.0f over %.0f queries\n",
      spec.name, traced_s.size(), counted.wall_s, threads, Median(at_n_s),
      max_threads, Median(untraced_s), Median(traced_s), overhead, unattributed,
      max_threads, scaling, builds, steps, recompact, max_threads,
      Median(builds_at_n), Median(recompact_at_n), tree_reuses, tree_calls,
      popped, queries);
  return {
      {"setup.cities_ms", SumOfUpperQuartiles(in.cities_ms), "ms"},
      {"setup.model_ms", SumOfUpperQuartiles(in.model_ms), "ms"},
      {"setup.pairs_ms", SumOfUpperQuartiles(in.pairs_ms), "ms"},
      {"builder.builds", builds, "count"},
      {"builder.build_ms.p50", ms(build.durations_ns, 50), "ms"},
      {"builder.build_ms.p99", ms(build.durations_ns, 99), "ms"},
      {"orbit.propagate_ms", propagate_ms, "ms"},
      {"link.index_ms", index_ms, "ms"},
      {"link.visibility_ms", visibility_ms, "ms"},
      {"graph.assemble_ms", assemble_ms, "ms"},
      {"stepper.steps", steps, "count"},
      {"stepper.step_ms.p50", ms(step.durations_ns, 50), "ms"},
      {"stepper.step_ms.p99", ms(step.durations_ns, 99), "ms"},
      {"stepper.pairs_retested", pairs_retested, "count"},
      {"stepper.windows_expired", windows_expired, "count"},
      {"stepper.recompact", recompact, "count"},
      {"graph.components_ms", log.Get("graph.components").total_ns * 1e-6, "ms"},
      {"graph.tree_ms.p50", ms(tree.durations_ns, 50), "ms"},
      {"graph.tree_ms.p99", ms(tree.durations_ns, 99), "ms"},
      {"graph.tree_reuse_ratio",
       tree_calls > 0.0 ? tree_reuses / tree_calls : 0.0, "ratio"},
      {"graph.tree_reuses", tree_reuses, "count"},
      {"graph.tree_rebuilds", tree_calls - tree_reuses, "count"},
      {"graph.astar_us", Percentile(log.Get("graph.astar").durations_ns, 50) * 1e-3,
       "us"},
      {"graph.queries", queries, "count"},
      {"graph.nodes_popped", popped, "count"},
      {"graph.edges_relaxed", relaxed, "count"},
      {"graph.pops_per_query", queries > 0.0 ? popped / queries : 0.0, "count"},
      {"graph.disjoint_ms", log.Get("graph.disjoint").total_ns * 1e-6, "ms"},
      {"flow.fill_ms", ms(log.Get("flow.fill").durations_ns, 50), "ms"},
      {"flow.subflows", static_cast<double>(counters.subflows), "count"},
      {"sweep.items", items, "count"},
      {"sweep.worker_utilization",
       utilization.count > 0 ? utilization.sum / static_cast<double>(utilization.count)
                             : 0.0,
       "ratio"},
      {"sweep.thread_scaling", scaling, "ratio"},
      {"sweep.builds_at_n", Median(builds_at_n), "count"},
      {"sweep.recompact_at_n", Median(recompact_at_n), "count"},
      {"nettrace.capture_ms", log.Get("nettrace.capture").total_ns * 1e-6, "ms"},
      {"nettrace.serialize_s", serialize_s, "s"},
      {"nettrace.serialize_mb_per_s",
       serialize_s > 0.0 ? trace_mb / serialize_s : 0.0, "MB/s"},
      {"nettrace.replay_s", log.Get("nettrace.validate").total_ns * 1e-9, "s"},
      {"nettrace.events", events, "count"},
      {"trace_mb", trace_mb, "MB"},
      {"trace.unattributed_share", unattributed, "ratio"},
      {"trace.overhead", overhead, "ratio"},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *args.spec;
  InputSets in = MakeInputSets(args);

  // One untimed warm-up call per input set: its outputs are the run's
  // reference digests and get the output checks.
  Checks checks;
  std::vector<Digests> per_set;
  for (int k = 0; k < kInputSets; ++k) {
    StudyCall warm = CallStudy(spec, in.sets[static_cast<size_t>(k)],
                               MakeSchedule(spec), WorkloadThreads(spec));
    if (args.perturb && k == 0) {
      Perturb(spec, &warm);
    }
    per_set.push_back(DigestOutputs(spec, warm.figs, warm.churn));
    OutputChecks(spec, warm, &checks);
  }

  const std::vector<Metric> metrics =
      args.trace ? PerLayer(args, in, per_set.front(), &checks)
                 : EndToEnd(args, in, per_set, &checks);
  PrintJson(args, CombineDigests(per_set), checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
