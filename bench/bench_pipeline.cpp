// Snapshot-pipeline performance benchmark (tracked in BENCH_pipeline.json).
//
// Times the three layers that dominate every figure reproduction —
// snapshot construction, satellite-visibility queries, and single-pair
// shortest paths — plus the end-to-end latency study (the paper's Fig. 2
// inner loop) whose wall-clock is the repo's headline perf number, and
// the library kernels behind the other figures, including the ablation
// DESIGN.md §5 calls out (indexed vs brute-force visibility). Takes the
// flags of cli/flags.hpp. Run with fixed flags so successive JSON
// records are comparable:
//
//   bench_pipeline --pairs=100 --snapshots=4 --spacing=3
//
// The committed BENCH_pipeline.json at the repo root is the baseline for
// the CI perf-smoke job; refresh it (same flags, quiet machine) whenever
// a PR intentionally moves these numbers.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/parallel.hpp"
#include "core/scenario.hpp"
#include "core/snapshot_stepper.hpp"
#include "core/traffic_matrix.hpp"
#include "data/city_catalog.hpp"
#include "flags.hpp"
#include "flow/flow_network.hpp"
#include "flow/maxmin.hpp"
#include "geo/coordinates.hpp"
#include "geo/geodesic.hpp"
#include "geo/soa.hpp"
#include "graph/dijkstra.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/landmarks.hpp"
#include "graph/sssp_tree.hpp"
#include "graph/tree_reuse.hpp"
#include "graph/yen.hpp"
#include "ground/relay_grid.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"

namespace {

using namespace leosim;

// BenchSuite: each benchmark runs `reps` repetitions of a timed block
// (each block performing `iters_per_rep` operations) and records the
// MEDIAN ns/op, so one-off scheduler hiccups do not skew the perf
// trajectory tracked in git. The emitted JSON schema (BENCH_pipeline.json):
//
//   {
//     "suite": "<name>",
//     "config": { "<key>": "<value>", ... },
//     "results": [
//       { "name": "<bench>", "reps": N, "iters_per_rep": M,
//         "median_ns_per_op": X, "min_ns_per_op": Y, "max_ns_per_op": W,
//         "mad_ns_per_op": D, "ops_per_sec": Z,
//         "samples_ns": [S1, S2, ...] },
//       ...
//     ]
//   }
//
// max_ns_per_op, mad_ns_per_op, and samples_ns are schema-additive:
// older records without them stay valid, and tooling keyed on
// median/min keeps working unchanged. samples_ns holds every rep's
// ns/op in run order — the raw distribution obs_report.py feeds its
// Mann-Whitney significance test; mad_ns_per_op is the median absolute
// deviation, the matching robust spread estimate.
struct BenchResult {
  std::string name;
  int reps{0};
  int64_t iters_per_rep{0};
  double median_ns_per_op{0.0};
  double min_ns_per_op{0.0};
  double max_ns_per_op{0.0};
  double mad_ns_per_op{0.0};
  double ops_per_sec{0.0};
  std::vector<double> samples_ns;  // per-rep ns/op, run order
};

class BenchSuite {
 public:
  explicit BenchSuite(std::string name) : name_(std::move(name)) {}

  void AddConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, value);
  }

  // Runs `fn` (a block of `iters_per_rep` operations) `reps` times and
  // records the median per-operation latency. Prints a human-readable row
  // as it goes so the binary is useful interactively too.
  template <typename Fn>
  void Run(const std::string& bench_name, int reps, int64_t iters_per_rep, Fn&& fn) {
    std::vector<double> ns_per_op(static_cast<size_t>(reps));
    for (int r = 0; r < reps; ++r) {
      const auto start = std::chrono::steady_clock::now();
      fn();
      const auto stop = std::chrono::steady_clock::now();
      const double ns =
          std::chrono::duration<double, std::nano>(stop - start).count();
      ns_per_op[static_cast<size_t>(r)] = ns / static_cast<double>(iters_per_rep);
    }
    BenchResult result;
    result.name = bench_name;
    result.reps = reps;
    result.iters_per_rep = iters_per_rep;
    result.samples_ns = ns_per_op;  // run order, before the stats sort
    std::sort(ns_per_op.begin(), ns_per_op.end());
    result.min_ns_per_op = ns_per_op.front();
    result.max_ns_per_op = ns_per_op.back();
    const auto median_of = [](std::vector<double>& sorted) {
      const size_t mid = sorted.size() / 2;
      return sorted.size() % 2 == 1 ? sorted[mid]
                                    : 0.5 * (sorted[mid - 1] + sorted[mid]);
    };
    result.median_ns_per_op = median_of(ns_per_op);
    std::vector<double> deviations(ns_per_op.size());
    for (size_t i = 0; i < ns_per_op.size(); ++i) {
      deviations[i] = std::abs(ns_per_op[i] - result.median_ns_per_op);
    }
    std::sort(deviations.begin(), deviations.end());
    result.mad_ns_per_op = median_of(deviations);
    result.ops_per_sec =
        result.median_ns_per_op > 0.0 ? 1e9 / result.median_ns_per_op : 0.0;
    std::printf(
        "%-32s median %14.1f ns/op   min %14.1f ns/op   max %14.1f ns/op   "
        "%12.1f ops/s\n",
        bench_name.c_str(), result.median_ns_per_op, result.min_ns_per_op,
        result.max_ns_per_op, result.ops_per_sec);
    std::fflush(stdout);
    results_.push_back(std::move(result));
  }

  // Writes the JSON record; returns false (with a stderr note) on I/O error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"suite\": \"%s\",\n  \"config\": {", name_.c_str());
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": \"%s\"", i == 0 ? "" : ",",
                   config_[i].first.c_str(), config_[i].second.c_str());
    }
    std::fprintf(f, "\n  },\n  \"results\": [");
    for (size_t i = 0; i < results_.size(); ++i) {
      const BenchResult& r = results_[i];
      std::fprintf(f,
                   "%s\n    { \"name\": \"%s\", \"reps\": %d, "
                   "\"iters_per_rep\": %lld, \"median_ns_per_op\": %.1f, "
                   "\"min_ns_per_op\": %.1f, \"max_ns_per_op\": %.1f, "
                   "\"mad_ns_per_op\": %.1f, \"ops_per_sec\": %.1f, "
                   "\"samples_ns\": [",
                   i == 0 ? "" : ",", r.name.c_str(), r.reps,
                   static_cast<long long>(r.iters_per_rep), r.median_ns_per_op,
                   r.min_ns_per_op, r.max_ns_per_op, r.mad_ns_per_op,
                   r.ops_per_sec);
      for (size_t s = 0; s < r.samples_ns.size(); ++s) {
        std::fprintf(f, "%s%.1f", s == 0 ? "" : ", ", r.samples_ns[s]);
      }
      std::fprintf(f, "] }");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<BenchResult> results_;
};

uint64_t Splitmix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Synthetic allocator workload shaped like a day's throughput slots:
// a few thousand shared links, each flow crossing a handful of them.
flow::FlowNetwork MakeFillNetwork(int num_links, int num_flows) {
  uint64_t rng = 20201104;
  flow::FlowNetwork net;
  for (int l = 0; l < num_links; ++l) {
    net.AddLink(20.0 + static_cast<double>(Splitmix64(rng) % 81));
  }
  std::vector<flow::LinkId> path;
  for (int f = 0; f < num_flows; ++f) {
    const int hops = 2 + static_cast<int>(Splitmix64(rng) % 7);
    path.clear();
    for (int h = 0; h < hops; ++h) {
      path.push_back(static_cast<flow::LinkId>(
          Splitmix64(rng) % static_cast<uint64_t>(num_links)));
    }
    net.AddFlow(path);
  }
  return net;
}

}  // namespace

int main(int argc, char** argv) {
  cli::StudyConfig config;
  const std::string error = cli::ParseFlags({argv + 1, argv + argc}, &config);
  if (!error.empty()) {
    std::fprintf(stderr, "bench_pipeline: %s\n", error.c_str());
    return 2;
  }
  if (config.help) {
    std::printf("%s", cli::kFlagsHelp);
    return 0;
  }
  cli::ApplyObsConfig(config);
  cli::PrintConfig(config, "snapshot-pipeline benchmark");

  const std::vector<data::City> cities = cli::MakeCities(config);
  const core::Scenario scenario = core::Scenario::Starlink();
  const core::NetworkModel hybrid(
      scenario, cli::MakeOptions(config, core::ConnectivityMode::kHybrid), cities);
  const core::NetworkModel bent_pipe(
      scenario, cli::MakeOptions(config, core::ConnectivityMode::kBentPipe), cities);
  const std::vector<core::CityPair> pairs = cli::MakePairs(config, cities);

  BenchSuite suite("pipeline");
  suite.AddConfig("constellation", "starlink-s1");
  suite.AddConfig("cities", std::to_string(cities.size()));
  suite.AddConfig("pairs", std::to_string(pairs.size()));
  suite.AddConfig("relay_spacing_deg", std::to_string(config.relay_spacing_deg));
  suite.AddConfig("snapshots", std::to_string(config.num_snapshots));
  // Machine context: records tracked in git get compared across checkouts,
  // and a number taken on a 4-core box is not comparable to one from CI's
  // single vCPU. host_cores is the hardware; threads is what the sweeps
  // actually used after LEOSIM_THREADS resolution (see parallel.hpp).
  suite.AddConfig("host_cores",
                  std::to_string(std::thread::hardware_concurrency()));
  suite.AddConfig("threads", std::to_string(core::DefaultWorkerCount()));

  // 1. Snapshot construction at rolling times (graph + ECEF + index + edges).
  {
    double t = 0.0;
    suite.Run("snapshot_build", 5, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        const core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(t);
        t += 300.0;
        (void)snap;
      }
    });
  }

  // 1b. Incremental snapshot stepping at fine (10 s) spacing: the same
  //     pipeline as snapshot_build but advancing a warm workspace through
  //     the margin-tracked visibility filter and CSR patching instead of
  //     rebuilding. Uses a no-aircraft model — dynamic nodes force full
  //     rebuilds, and the stepper refuses them (see snapshot_stepper.hpp).
  core::NetworkOptions stepped_options =
      cli::MakeOptions(config, core::ConnectivityMode::kHybrid);
  stepped_options.use_aircraft = false;
  const core::NetworkModel stepped_model(scenario, stepped_options, cities);
  {
    core::NetworkModel::SnapshotWorkspace ws;
    core::SnapshotStepper stepper;
    double t = 0.0;
    // Warm build + prime outside the timed region; each op is one step.
    core::BuildOrStepSnapshot(stepped_model, t, &ws, &stepper);
    suite.Run("snapshot_step", 5, 16, [&] {
      for (int i = 0; i < 16; ++i) {
        t += 10.0;
        core::BuildOrStepSnapshot(stepped_model, t, &ws, &stepper);
      }
    });
  }

  // 1c. SoA batch propagation (DESIGN.md §7): the whole constellation
  //     through PropagateBatch + EciToEcefBatch + PackInto — the
  //     geometry front half of snapshot_build/snapshot_step in
  //     isolation, bit-identical to the scalar path by contract.
  {
    geo::Soa3 soa;
    std::vector<double> phase;
    std::vector<geo::Vec3> ecef;
    double t = 0.0;
    suite.Run("propagate_batch", 7, 16, [&] {
      for (int i = 0; i < 16; ++i) {
        t += 10.0;
        hybrid.constellation().PropagateBatch(t, &soa, &phase);
        geo::EciToEcefBatch(t, &soa);
        geo::PackInto(soa, &ecef);
      }
    });
    std::printf("# propagate checksum: %.3f km (|sat 0|)\n", ecef[0].Norm());
  }

  // 2. Spatial-index build + visibility queries over every city terminal.
  {
    const std::vector<geo::Vec3> sats =
        hybrid.constellation().PositionsEcef(0.0);
    const double radius_km = link::IndexSearchRadiusKm(
        scenario.shell.altitude_km, scenario.radio.min_elevation_deg);
    suite.Run("index_build", 7, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        const link::SatelliteIndex index(sats, radius_km);
        (void)index;
      }
    });
    const link::SatelliteIndex index(sats, radius_km);
    std::vector<geo::Vec3> terminals;
    terminals.reserve(cities.size());
    for (const data::City& c : cities) {
      terminals.push_back(geo::GeodeticToEcef(c.Coord()));
    }
    size_t total_visible = 0;
    suite.Run("index_query", 7, static_cast<int64_t>(terminals.size()), [&] {
      for (const geo::Vec3& gt : terminals) {
        total_visible +=
            index.Visible(gt, scenario.radio.min_elevation_deg).size();
      }
    });
    std::printf("# visibility checksum: %zu sat-links\n", total_visible);

    // 2b. The fused query the snapshot builder actually runs: candidate
    //     gather + batch sine-form elevation test + slant ranges, into
    //     recycled buffers (no per-query sort, no allocation).
    std::vector<int> visible;
    std::vector<double> ranges;
    size_t batch_visible = 0;
    suite.Run("visibility_batch", 7, static_cast<int64_t>(terminals.size()),
              [&] {
                for (const geo::Vec3& gt : terminals) {
                  index.VisibleWithRangeInto(
                      gt, scenario.radio.min_elevation_deg, &visible, &ranges);
                  batch_visible += visible.size();
                }
              });
    std::printf("# visibility_batch checksum: %zu sat-links\n", batch_visible);
  }

  // 3. Single-pair shortest paths on one fixed snapshot.
  {
    const core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(0.0);
    const int queries = 64;
    double checksum = 0.0;
    suite.Run("dijkstra_pair", 5, queries, [&] {
      for (int i = 0; i < queries; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        const auto path =
            graph::ShortestPath(snap.graph, snap.CityNode(a), snap.CityNode(b));
        if (path.has_value()) {
          checksum += path->distance;
        }
      }
    });
    std::printf("# dijkstra checksum: %.3f ms summed\n", checksum);

    // 3b. The same pair queries through ALT: goal-directed A* with
    //     landmark potentials (graph/landmarks.hpp). Table construction
    //     (16 full Dijkstras, amortised across a snapshot's queries)
    //     stays outside the timed region; the entry measures the
    //     settled-corridor win per query. Distances are bit-identical
    //     to dijkstra_pair's — same checksum.
    graph::DijkstraWorkspace alt_ws;
    graph::LandmarkTable table;
    table.EnsureFresh(snap.graph, alt_ws);
    double alt_checksum = 0.0;
    suite.Run("dijkstra_alt_pair", 5, queries, [&] {
      for (int i = 0; i < queries; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        const graph::NodeId dst = snap.CityNode(b);
        table.SetDestination(dst);
        const auto potential = [&table](graph::NodeId n) {
          return table.Potential(n);
        };
        const auto path = graph::ShortestPathAStar(
            snap.graph, snap.CityNode(a), dst, alt_ws, potential);
        if (path.has_value()) {
          alt_checksum += path->distance;
        }
      }
    });
    std::printf("# dijkstra_alt checksum: %.3f ms summed\n", alt_checksum);
  }

  // 4. End-to-end latency study (Fig. 2 inner loop): BP + hybrid snapshots
  //    and every pair's shortest path at every timestep.
  {
    const core::SnapshotSchedule schedule = cli::MakeSchedule(config);
    suite.Run("latency_study_e2e", 5, 1, [&] {
      const core::LatencyStudyResult result =
          core::RunLatencyStudy(bent_pipe, hybrid, pairs, schedule);
      (void)result;
    });
  }

  // 5. Snapshot-parallel temporal sweep: aggregate churn over the full
  //    schedule, which exercises the sweep driver, per-worker workspace
  //    reuse, and the one-to-many route batching in one number.
  {
    const core::SnapshotSchedule schedule = cli::MakeSchedule(config);
    suite.Run("temporal_sweep", 5, 1, [&] {
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(hybrid, pairs, schedule);
      (void)churn;
    });
  }

  // 5b. The same sweep at stepping-fine spacing (10 s slots): with
  //     workers claiming mostly-adjacent slots, almost every snapshot
  //     comes from the incremental path, so this is the end-to-end win
  //     the stepper buys for paper-scale fine sweeps.
  {
    core::SnapshotSchedule fine;
    fine.step_sec = 10.0;
    fine.duration_sec = 10.0 * 60.0;  // 60 slots
    suite.Run("temporal_sweep_fine", 5, 1, [&] {
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(stepped_model, pairs, fine);
      (void)churn;
    });
  }

  // 5c. The fine sweep with network-state trace capture + serialization
  //     on: the delta against temporal_sweep_fine is the all-in cost of
  //     producing an emulation-grade trace (per-slot captures from the
  //     parallel workers, diffing, and JSONL encoding of both streams).
  {
    core::SnapshotSchedule fine;
    fine.step_sec = 10.0;
    fine.duration_sec = 10.0 * 60.0;  // 60 slots
    core::NetTraceRecorder& net_trace = core::NetTraceRecorder::Global();
    size_t trace_bytes = 0;
    suite.Run("nettrace_sweep_fine", 5, 1, [&] {
      net_trace.Reset();
      net_trace.Enable(true);
      const core::AggregateChurn churn =
          core::RunAggregateChurnStudy(stepped_model, pairs, fine);
      (void)churn;
      trace_bytes =
          net_trace.NetStateJsonl().size() + net_trace.NetEventsJsonl().size();
    });
    net_trace.Enable(false);
    net_trace.Reset();
    std::printf("# nettrace checksum: %zu bytes serialized\n", trace_bytes);
  }

  // 5d. Cross-slot tree reuse (graph/tree_reuse.hpp) under a sparse
  //     patch delta: a stepped (patch-mode) snapshot graph, one source's
  //     multi-target tree cached, and each op touching a handful of
  //     edges provably outside the tree's corridor before re-routing.
  //     Measures the reuse fast path — delta intersection plus stored-
  //     array answers — that replaces a full multi-target Dijkstra when
  //     slot-to-slot changes miss the corridor.
  {
    core::NetworkModel::SnapshotWorkspace ws;
    core::SnapshotStepper stepper;
    core::BuildOrStepSnapshot(stepped_model, 0.0, &ws, &stepper);
    core::NetworkModel::Snapshot& snap =
        core::BuildOrStepSnapshot(stepped_model, 10.0, &ws, &stepper);
    snap.graph.SetPatchDeltaRecording(true);

    graph::DijkstraWorkspace dijkstra;
    graph::ShortestPathTree tree;
    graph::TreeReuseCache cache;
    const graph::NodeId src = snap.CityNode(0);
    std::vector<graph::NodeId> targets;
    for (int c = 1; c <= 6 && c < snap.num_cities; ++c) {
      targets.push_back(snap.CityNode(c));
    }
    auto view = cache.Route(snap.graph, src, targets, dijkstra, tree);

    // Edges whose endpoints the stored search never labeled: touching
    // them keeps every slot on the reuse path (total touches stay well
    // under the delta cap).
    std::vector<graph::EdgeId> far_edges;
    for (graph::EdgeId e = 0;
         e < snap.graph.NumEdges() && far_edges.size() < 64; ++e) {
      if (snap.graph.IsTombstone(e)) {
        continue;
      }
      const graph::EdgeRecord& rec = snap.graph.Edge(e);
      if (view.DistanceTo(rec.a) == graph::kInfDistance &&
          view.DistanceTo(rec.b) == graph::kInfDistance) {
        far_edges.push_back(e);
      }
    }
    double reuse_checksum = 0.0;
    size_t touch_cursor = 0;
    suite.Run("tree_reuse_slot", 5, 16, [&] {
      for (int i = 0; i < 16; ++i) {
        for (int k = 0; k < 4 && !far_edges.empty(); ++k) {
          const graph::EdgeId e =
              far_edges[touch_cursor++ % far_edges.size()];
          snap.graph.PatchEdgeWeight(e, snap.graph.Edge(e).weight);
        }
        view = cache.Route(snap.graph, src, targets, dijkstra, tree);
        for (const graph::NodeId t : targets) {
          reuse_checksum += view.DistanceTo(t);
        }
      }
    });
    snap.graph.SetPatchDeltaRecording(false);
    std::printf("# tree_reuse checksum: %.3f ms (%llu reuses, %llu rebuilds)\n",
                reuse_checksum,
                static_cast<unsigned long long>(cache.stats().reuses),
                static_cast<unsigned long long>(cache.stats().rebuilds));
  }

  // 6. Max-min fair allocation on a synthetic slot-sized flow network
  //    (progressive filling is the throughput study's serial tail).
  {
    const flow::FlowNetwork fill_net = MakeFillNetwork(2000, 5000);
    double fill_checksum = 0.0;
    suite.Run("maxmin_fill", 5, 1, [&] {
      fill_checksum = flow::MaxMinFairAllocate(fill_net).total_gbps;
    });
    std::printf("# maxmin checksum: %.3f Gbps total\n", fill_checksum);
  }

  // 7. Library kernels the figures share: coordinate conversions,
  //    geodesics, brute-force visibility (the index's reference), k
  //    edge-disjoint and Yen k-shortest paths, the max-min allocator on
  //    a larger synthetic network, ITU-R slant paths, relay grids and
  //    traffic-matrix sampling.
  {
    double checksum = 0.0;
    const geo::GeodeticCoord g{47.4, 8.5, 0.4};
    suite.Run("geodetic_to_ecef_spherical", 5, 100000, [&] {
      for (int i = 0; i < 100000; ++i) {
        checksum += geo::GeodeticToEcef(g).x;
      }
    });

    const geo::GeodeticCoord london{51.5, -0.13, 0.0};
    const geo::GeodeticCoord sydney{-33.9, 151.2, 0.0};
    suite.Run("great_circle_distance", 5, 100000, [&] {
      for (int i = 0; i < 100000; ++i) {
        checksum += geo::GreatCircleDistanceKm(london, sydney);
      }
    });

    const std::vector<geo::Vec3> sats = hybrid.constellation().PositionsEcef(0.0);
    const geo::Vec3 paris = geo::GeodeticToEcef({48.9, 2.35, 0.0});
    suite.Run("visibility_query_brute", 5, 50, [&] {
      for (int i = 0; i < 50; ++i) {
        checksum += static_cast<double>(
            link::VisibleSatellitesBruteForce(paris, sats, 25.0).size());
      }
    });

    // Non-const: Yen/disjoint-path searches toggle edges during the run.
    core::NetworkModel::Snapshot snap = hybrid.BuildSnapshot(0.0);
    for (const int k : {1, 4}) {
      suite.Run("k_disjoint_paths_k" + std::to_string(k), 5, 8, [&] {
        for (int i = 0; i < 8; ++i) {
          const int a = i % snap.num_cities;
          const int b = (i * 7 + 41) % snap.num_cities;
          checksum += static_cast<double>(
              graph::KEdgeDisjointShortestPaths(snap.graph, snap.CityNode(a),
                                                snap.CityNode(b), k)
                  .size());
        }
      });
    }
    suite.Run("yen_k_shortest_k4", 5, 2, [&] {
      for (int i = 0; i < 2; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        checksum += static_cast<double>(
            graph::KShortestPaths(snap.graph, snap.CityNode(a), snap.CityNode(b), 4)
                .size());
      }
    });

    // Synthetic network: 2000 links, 5000 flows of ~8 hops.
    flow::FlowNetwork net;
    for (int l = 0; l < 2000; ++l) {
      net.AddLink(20.0 + (l % 5) * 20.0);
    }
    uint64_t x = 12345;
    auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (int f = 0; f < 5000; ++f) {
      std::vector<flow::LinkId> path;
      for (int h = 0; h < 8; ++h) {
        path.push_back(static_cast<flow::LinkId>(next() % 2000));
      }
      net.AddFlow(std::move(path));
    }
    suite.Run("maxmin_allocate", 5, 5, [&] {
      for (int i = 0; i < 5; ++i) {
        checksum += flow::MaxMinFairAllocate(net).total_gbps;
      }
    });

    const geo::GeodeticCoord tropics{5.0, 110.0, 0.0};
    suite.Run("slant_path_attenuation", 5, 10000, [&] {
      for (int i = 0; i < 10000; ++i) {
        checksum += itur::SlantPathAttenuationDb(tropics, 35.0, 14.25, 0.5);
      }
    });

    const auto& anchors = data::AnchorCities();
    suite.Run("relay_grid_build_4deg", 5, 2, [&] {
      for (int i = 0; i < 2; ++i) {
        checksum += static_cast<double>(ground::BuildRelayGrid(anchors, 4.0).size());
      }
    });

    core::TrafficMatrixOptions traffic;
    traffic.num_pairs = 500;
    suite.Run("sample_city_pairs", 5, 50, [&] {
      for (int i = 0; i < 50; ++i) {
        checksum += static_cast<double>(core::SampleCityPairs(anchors, traffic).size());
      }
    });
    std::printf("# library kernels checksum: %.3f\n", checksum);
  }

  suite.WriteJson("BENCH_pipeline.json");
  return cli::WriteObsOutputs(config, 0);
}
