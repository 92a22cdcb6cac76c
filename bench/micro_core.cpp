// Library micro-benchmarks (tracked via the shared BenchSuite harness;
// same JSON schema as BENCH_pipeline.json), including the ablations
// DESIGN.md §5 calls out: spherical vs WGS84 conversions and indexed vs
// brute-force visibility. Each benchmark reports the median over
// repeated runs so one-off scheduler hiccups do not skew comparisons.
//
//   micro_core [--reps=N]     (default 5 repetitions per benchmark)
//
// Writes BENCH_micro.json into the working directory.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.hpp"
#include "core/network_builder.hpp"
#include "core/traffic_matrix.hpp"
#include "data/city_catalog.hpp"
#include "flow/maxmin.hpp"
#include "geo/geodesic.hpp"
#include "graph/disjoint_paths.hpp"
#include "graph/yen.hpp"
#include "ground/relay_grid.hpp"
#include "itur/slant_path.hpp"
#include "link/visibility.hpp"
#include "orbit/walker.hpp"

namespace {

using namespace leosim;

// Keeps result values observable so the optimizer cannot delete the
// benchmarked work; the accumulated checksum is printed at the end.
double g_sink = 0.0;

core::NetworkModel& SharedHybridModel() {
  static core::NetworkModel model = [] {
    core::NetworkOptions options;
    options.mode = core::ConnectivityMode::kHybrid;
    options.relay_spacing_deg = 3.0;
    return core::NetworkModel(core::Scenario::Starlink(), options,
                              data::AnchorCities());
  }();
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--reps=", 7) == 0) {
      reps = std::atoi(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "flags: --reps=N   (repetitions per benchmark; default 5)\n"
          "       --log-level=L --metrics-out=F --trace-out=F "
          "--timeseries-out=F --progress[=SEC]\n");
      return 0;
    }
  }
  if (reps < 1) {
    reps = 1;
  }
  // Reuse the shared parser for the observability flags only; --reps is
  // handled above and ignored by ParseFlags.
  const bench::BenchConfig obs_config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(obs_config);

  bench::BenchSuite suite("micro_core");
  suite.AddConfig("reps", std::to_string(reps));
  std::printf("# library micro-benchmarks (median of %d reps)\n", reps);

  {
    const geo::GeodeticCoord g{47.4, 8.5, 0.4};
    suite.Run("geodetic_to_ecef_spherical", reps, 100000, [&] {
      for (int i = 0; i < 100000; ++i) {
        g_sink += geo::GeodeticToEcef(g).x;
      }
    });
    suite.Run("geodetic_to_ecef_wgs84", reps, 100000, [&] {
      for (int i = 0; i < 100000; ++i) {
        g_sink += geo::GeodeticToEcefWgs84(g).x;
      }
    });
  }

  {
    const geo::GeodeticCoord a{51.5, -0.13, 0.0};
    const geo::GeodeticCoord b{-33.9, 151.2, 0.0};
    suite.Run("great_circle_distance", reps, 100000, [&] {
      for (int i = 0; i < 100000; ++i) {
        g_sink += geo::GreatCircleDistanceKm(a, b);
      }
    });
  }

  {
    const auto c = orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
    std::vector<geo::Vec3> positions;
    double t = 0.0;
    suite.Run("propagate_starlink_shell", reps, 8, [&] {
      for (int i = 0; i < 8; ++i) {
        c.PositionsEcefInto(t, &positions);
        g_sink += positions.back().z;
        t += 60.0;
      }
    });
  }

  {
    const auto c = orbit::Constellation::WalkerDelta(orbit::StarlinkShell1());
    const auto sats = c.PositionsEcef(0.0);
    const double coverage = geo::CoverageRadiusKm(550.0, 25.0);
    link::SatelliteIndex index;
    suite.Run("visibility_index_build", reps, 20, [&] {
      for (int i = 0; i < 20; ++i) {
        index.Rebuild(sats, coverage);
      }
    });

    const geo::Vec3 gt = geo::GeodeticToEcef({48.9, 2.35, 0.0});
    std::vector<int> visible;
    suite.Run("visibility_query_indexed", reps, 2000, [&] {
      for (int i = 0; i < 2000; ++i) {
        index.VisibleInto(gt, 25.0, &visible);
        g_sink += static_cast<double>(visible.size());
      }
    });
    suite.Run("visibility_query_brute", reps, 50, [&] {
      for (int i = 0; i < 50; ++i) {
        g_sink += static_cast<double>(
            link::VisibleSatellitesBruteForce(gt, sats, 25.0).size());
      }
    });
  }

  {
    const core::NetworkModel& model = SharedHybridModel();
    core::NetworkModel::SnapshotWorkspace workspace;
    double t = 0.0;
    suite.Run("snapshot_build", reps, 4, [&] {
      for (int i = 0; i < 4; ++i) {
        const auto& snap = model.BuildSnapshot(t, &workspace);
        g_sink += static_cast<double>(snap.graph.NumEdges());
        t += 900.0;
      }
    });
  }

  {
    // Non-const: Yen/disjoint-path searches toggle edges during the run.
    auto snap = SharedHybridModel().BuildSnapshot(0.0);
    graph::DijkstraWorkspace workspace;
    suite.Run("dijkstra_pair", reps, 32, [&] {
      for (int i = 0; i < 32; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        const auto path = graph::ShortestPath(snap.graph, snap.CityNode(a),
                                              snap.CityNode(b), workspace);
        g_sink += path ? path->distance : 0.0;
      }
    });
    for (const int k : {1, 4}) {
      suite.Run("k_disjoint_paths_k" + std::to_string(k), reps, 8, [&] {
        for (int i = 0; i < 8; ++i) {
          const int a = i % snap.num_cities;
          const int b = (i * 7 + 41) % snap.num_cities;
          g_sink += static_cast<double>(
              graph::KEdgeDisjointShortestPaths(snap.graph, snap.CityNode(a),
                                                snap.CityNode(b), k)
                  .size());
        }
      });
    }
    suite.Run("yen_k_shortest_k4", reps, 2, [&] {
      for (int i = 0; i < 2; ++i) {
        const int a = i % snap.num_cities;
        const int b = (i * 7 + 41) % snap.num_cities;
        g_sink += static_cast<double>(
            graph::KShortestPaths(snap.graph, snap.CityNode(a), snap.CityNode(b), 4)
                .size());
      }
    });
  }

  {
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
    suite.Run("maxmin_allocate", reps, 5, [&] {
      for (int i = 0; i < 5; ++i) {
        g_sink += flow::MaxMinFairAllocate(net).total_gbps;
      }
    });
  }

  {
    const itur::SlantPathConfig config{14.25, 0.7, 0.5};
    const geo::GeodeticCoord gt{5.0, 110.0, 0.0};
    suite.Run("slant_path_attenuation", reps, 10000, [&] {
      for (int i = 0; i < 10000; ++i) {
        g_sink += itur::SlantPathAttenuationDb(gt, 35.0, config, 0.5);
      }
    });
  }

  {
    const auto& cities = data::AnchorCities();
    ground::RelayGridConfig config;
    config.spacing_deg = 4.0;
    suite.Run("relay_grid_build_4deg", reps, 2, [&] {
      for (int i = 0; i < 2; ++i) {
        g_sink += static_cast<double>(ground::BuildRelayGrid(cities, config).size());
      }
    });
  }

  {
    const auto& cities = data::AnchorCities();
    core::TrafficMatrixOptions options;
    options.num_pairs = 500;
    suite.Run("sample_city_pairs", reps, 50, [&] {
      for (int i = 0; i < 50; ++i) {
        g_sink += static_cast<double>(core::SampleCityPairs(cities, options).size());
      }
    });
  }

  std::printf("# checksum: %.3f\n", g_sink);
  suite.WriteJson("BENCH_micro.json");
  bench::WriteObsOutputs(obs_config);
  return 0;
}
