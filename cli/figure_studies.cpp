// The paper's figures (Figs. 2-11) as registered studies; see studies.hpp.
#include "studies.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/attenuation_study.hpp"
#include "core/export.hpp"
#include "core/fiber_study.hpp"
#include "core/gso_study.hpp"
#include "core/latency_study.hpp"
#include "core/multishell_study.hpp"
#include "core/report.hpp"
#include "core/routing_tiers.hpp"
#include "core/stats.hpp"
#include "core/throughput_study.hpp"
#include "data/cities.hpp"
#include "itur/slant_path.hpp"

namespace leosim::cli {

using namespace leosim::core;

// Scaled-down latency study (paper Fig. 2 inner loop): BP vs hybrid
// min-RTT over a short schedule. Small defaults keep it interactive;
// with --metrics-out/--trace-out it doubles as the observability demo.
StudyConfig LatencyDefaults() {
  StudyConfig config;
  config.num_pairs = 10;
  config.num_snapshots = 2;
  config.step_sec = 60.0;
  config.relay_spacing_deg = 3.0;
  return config;
}

int RunLatency(const StudyConfig& config) {
  core::RunReport report("latency_study");
  report.AddParam("pairs", config.num_pairs);
  report.AddParam("snapshots", config.num_snapshots);
  report.AddParam("step_sec", config.step_sec);
  report.AddParam("relay_spacing_deg", config.relay_spacing_deg);

  const core::StudyTimer timer;
  const core::Scenario scenario = core::Scenario::Starlink();
  const std::vector<data::City>& cities = data::AnchorCities();
  core::NetworkOptions options;
  options.relay_spacing_deg = config.relay_spacing_deg;
  options.mode = core::ConnectivityMode::kBentPipe;
  const core::NetworkModel bent_pipe(scenario, options, cities);
  options.mode = core::ConnectivityMode::kHybrid;
  const core::NetworkModel hybrid(scenario, options, cities);

  core::TrafficMatrixOptions traffic;
  traffic.num_pairs = config.num_pairs;
  const std::vector<core::CityPair> pairs = core::SampleCityPairs(cities, traffic);

  const core::LatencyStudyResult result =
      core::RunLatencyStudy(bent_pipe, hybrid, pairs, MakeSchedule(config));

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
  std::printf("  routed %llu pair-snapshots, %llu unreachable\n",
              static_cast<unsigned long long>(summary.pairs_routed),
              static_cast<unsigned long long>(summary.pairs_unreachable));
  if (!config.manifest_out.empty()) {
    if (!report.WriteManifest(config.manifest_out)) {
      std::printf("cannot write %s\n", config.manifest_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", config.manifest_out.c_str());
  }
  return 0;
}

// Reproduces Fig. 2 (paper §4): CDFs across city pairs of (a) minimum RTT
// and (b) RTT variation (max - min) over a simulated day, for BP-only vs
// hybrid Starlink connectivity — plus the headline "+80% median / +422%
// 95th-percentile variation" statistics.
int RunFig2Latency(const StudyConfig& config) {
  PrintConfig(config, "Fig. 2: min RTT and RTT variation CDFs (Starlink)");
  // Optional plot export: --csv=PREFIX writes PREFIX_{min,range}_{bp,hybrid}.csv
  const std::string& csv_prefix = config.csv_prefix;

  const std::vector<data::City> cities = MakeCities(config);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(scenario,
                            MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);
  const std::vector<CityPair> pairs = MakePairs(config, cities);
  const SnapshotSchedule schedule = MakeSchedule(config);

  const LatencyStudyResult result = RunLatencyStudy(bp, hybrid, pairs, schedule);

  const std::vector<double> bp_min = result.MinRtts(result.bp);
  const std::vector<double> hy_min = result.MinRtts(result.hybrid);
  const std::vector<double> bp_range = result.Ranges(result.bp);
  const std::vector<double> hy_range = result.Ranges(result.hybrid);

  // A table row or summary value derived from an empty sample (no pair
  // reachable, as with --pairs=0) is left out or printed as n/a.
  const bool have_min = !bp_min.empty() && !hy_min.empty();
  const bool have_range = !bp_range.empty() && !hy_range.empty();
  PrintBanner(std::cout, "Fig. 2(a): CDF of min RTT across city pairs (ms)");
  Table min_table({"percentile", "BP min RTT (ms)", "hybrid min RTT (ms)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    if (!have_min) {
      break;
    }
    min_table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(bp_min, p)),
                      FormatDouble(Percentile(hy_min, p))});
  }
  min_table.Print(std::cout);
  std::printf("max BP-vs-hybrid min-RTT difference: %s ms (paper: up to 57 ms)\n",
              have_min ? FormatDouble(Percentile(bp_min, 100.0) -
                                          Percentile(hy_min, 100.0),
                                      1).c_str()
                       : "n/a");

  PrintBanner(std::cout, "Fig. 2(b): CDF of RTT variation (max-min) across pairs (ms)");
  Table range_table({"percentile", "BP range (ms)", "hybrid range (ms)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    if (!have_range) {
      break;
    }
    range_table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(bp_range, p)),
                        FormatDouble(Percentile(hy_range, p))});
  }
  range_table.Print(std::cout);

  // Signed like printf's %+.0f.
  const auto increase_at = [&](double p) -> std::string {
    if (!have_range) {
      return "n/a";
    }
    const double pct =
        (Percentile(bp_range, p) / std::max(Percentile(hy_range, p), 1e-9) - 1.0) *
        100.0;
    return (std::signbit(pct) ? "" : "+") + FormatDouble(pct, 0);
  };
  if (!csv_prefix.empty()) {
    const auto dump = [&](const std::string& name, std::vector<double> values) {
      std::ofstream file(csv_prefix + "_" + name + ".csv");
      WriteCdfCsv(file, "rtt_ms", EmpiricalCdf(std::move(values), 200));
    };
    dump("min_bp", bp_min);
    dump("min_hybrid", hy_min);
    dump("range_bp", bp_range);
    dump("range_hybrid", hy_range);
    std::printf("\nwrote %s_{min,range}_{bp,hybrid}.csv\n", csv_prefix.c_str());
  }

  std::printf("\nRTT-variation increase without ISLs: median %s%% (paper: +80%%), "
              "95th-p %s%% (paper: +422%%)\n",
              increase_at(50.0).c_str(), increase_at(95.0).c_str());
  std::printf("max hybrid range: %s ms (paper: <20 ms); max BP range: %s ms "
              "(paper: up to 100 ms)\n",
              PercentileOrNa(hy_range, 100.0, 1).c_str(),
              PercentileOrNa(bp_range, 100.0, 1).c_str());
  return 0;
}

// Reproduces Fig. 3 (paper §4): the Maceio (Brazil) <-> Durban (South
// Africa) bent-pipe path changes drastically with aircraft availability —
// sparse south-Atlantic air traffic forces long detours via the north
// Atlantic, inflating RTT by up to ~100 ms.
int RunFig3PathChurn(const StudyConfig& config) {
  PrintConfig(config, "Fig. 3: Maceio<->Durban BP path churn (Starlink)");

  const std::vector<data::City> cities = MakeCities(config);
  const NetworkModel bp(Scenario::Starlink(),
                        MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel hybrid(Scenario::Starlink(),
                            MakeOptions(config, ConnectivityMode::kHybrid),
                            cities);
  const SnapshotSchedule schedule = MakeSchedule(config);

  const auto bp_trace = TracePairPath(bp, "Maceio", "Durban", schedule);
  const auto hy_trace = TracePairPath(hybrid, "Maceio", "Durban", schedule);

  PrintBanner(std::cout, "BP path over time (northern detours make RTT spike)");
  Table table({"t (min)", "BP RTT (ms)", "hybrid RTT (ms)", "aircraft hops",
               "relay hops", "max path lat (deg)"});
  double bp_min = 1e18;
  double bp_max = 0.0;
  int detours = 0;
  for (size_t i = 0; i < bp_trace.size(); ++i) {
    const PathObservation& obs = bp_trace[i];
    const PathObservation& hy = hy_trace[i];
    if (obs.reachable) {
      bp_min = std::min(bp_min, obs.rtt_ms);
      bp_max = std::max(bp_max, obs.rtt_ms);
      // Both endpoints are in the southern hemisphere; a path node in the
      // northern mid-latitudes means a north-Atlantic detour.
      if (obs.max_node_latitude_deg > 15.0) {
        ++detours;
      }
    }
    table.AddRow({FormatDouble(obs.time_sec / 60.0, 0),
                  obs.reachable ? FormatDouble(obs.rtt_ms, 1) : "unreachable",
                  hy.reachable ? FormatDouble(hy.rtt_ms, 1) : "unreachable",
                  std::to_string(obs.aircraft_hops), std::to_string(obs.relay_hops),
                  obs.reachable ? FormatDouble(obs.max_node_latitude_deg, 1) : "-"});
  }
  table.Print(std::cout);

  if (bp_max > 0.0) {
    std::printf("\nBP RTT inflation over the trace: %.1f ms (paper: ~100 ms); "
                "snapshots with a northern detour: %d/%zu\n",
                bp_max - bp_min, detours, bp_trace.size());
  } else {
    std::printf("\nBP path never reachable at this scale; rerun with "
                "--aircraft=2 or --spacing=1.5\n");
  }
  return 0;
}

// Reproduces Fig. 4 (paper §5): aggregate max-min-fair throughput for
// Starlink and Kuiper, BP vs hybrid, traffic split over k = 1 and 4
// edge-disjoint shortest paths — plus the §5 text statistic that 25-32% of
// Starlink satellites are disconnected under BP across a day.
int RunFig4Throughput(const StudyConfig& config) {
  PrintConfig(config, "Fig. 4: aggregate throughput (Starlink & Kuiper)");

  const std::vector<data::City> cities = MakeCities(config);
  const std::vector<CityPair> pairs = MakePairs(config, cities);

  PrintBanner(std::cout, "Fig. 4: aggregate throughput (Gbps), 20 Gbps GT-sat / 100 Gbps ISL");
  Table table({"constellation", "k", "BP (Gbps)", "hybrid (Gbps)", "hybrid/BP"});

  struct Cell {
    double bp, hybrid;
  };
  Cell cells[2][2];  // [scenario][k index]

  const Scenario scenarios[2] = {Scenario::Starlink(), Scenario::Kuiper()};
  for (int s = 0; s < 2; ++s) {
    const NetworkModel bp(scenarios[s],
                          MakeOptions(config, ConnectivityMode::kBentPipe),
                          cities);
    const NetworkModel hybrid(scenarios[s],
                              MakeOptions(config, ConnectivityMode::kHybrid),
                              cities);
    const int ks[2] = {1, 4};
    for (int ki = 0; ki < 2; ++ki) {
      const auto bp_result = RunThroughputStudy(bp, pairs, ks[ki], 0.0);
      const auto hy_result = RunThroughputStudy(hybrid, pairs, ks[ki], 0.0);
      cells[s][ki] = {bp_result.total_gbps, hy_result.total_gbps};
      table.AddRow({scenarios[s].name, std::to_string(ks[ki]),
                    FormatDouble(bp_result.total_gbps, 1),
                    FormatDouble(hy_result.total_gbps, 1),
                    FormatDouble(hy_result.total_gbps /
                                     std::max(bp_result.total_gbps, 1e-9),
                                 2)});
    }
  }
  table.Print(std::cout);

  std::printf("\npaper: hybrid/BP > 2.5x at k=1, > 3.1x at k=4\n");
  std::printf("multipath gain (k=4 / k=1):\n");
  for (int s = 0; s < 2; ++s) {
    std::printf("  %-9s hybrid %.2fx (paper: %.2fx)   BP %.2fx (paper: %.2fx)\n",
                scenarios[s].name.c_str(),
                cells[s][1].hybrid / std::max(cells[s][0].hybrid, 1e-9),
                s == 0 ? 1.65 : 1.76,
                cells[s][1].bp / std::max(cells[s][0].bp, 1e-9),
                s == 0 ? 1.34 : 1.44);
  }

  PrintBanner(std::cout, "Paper §5 text: BP-disconnected Starlink satellites across a day");
  const NetworkModel bp_starlink(
      scenarios[0], MakeOptions(config, ConnectivityMode::kBentPipe), cities);
  const SnapshotSchedule schedule = MakeSchedule(config);
  const DisconnectionStats stats = RunDisconnectionStudy(bp_starlink, schedule);
  std::printf("disconnected satellite fraction: %.1f%% - %.1f%% "
              "(paper: 25.1%% - 31.5%% with a 0.5-deg grid)\n",
              stats.min_fraction * 100.0, stats.max_fraction * 100.0);
  return 0;
}

// Reproduces Fig. 5 (paper §5): Starlink k=4 throughput as ISL capacity
// sweeps from 0.5x to 5x of the 20 Gbps GT-satellite capacity. Even at
// 0.5x the hybrid approach beats BP (2.2x in the paper) thanks to path
// diversity, and gains flatten beyond ~3x with shortest-path routing.
int RunFig5IslCapacity(const StudyConfig& config) {
  PrintConfig(config, "Fig. 5: Starlink throughput vs ISL capacity (k=4)");

  const std::vector<data::City> cities = MakeCities(config);
  const std::vector<CityPair> pairs = MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();

  const NetworkModel bp(scenario,
                        MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const double bp_gbps = RunThroughputStudy(bp, pairs, 4, 0.0).total_gbps;

  PrintBanner(std::cout, "Fig. 5: hybrid throughput vs ISL capacity (k=4)");
  Table table({"ISL capacity (x GT-sat)", "ISL Gbps/link", "hybrid (Gbps)",
               "hybrid/BP"});
  for (const double ratio : {0.5, 1.0, 2.0, 3.0, 4.0, 5.0}) {
    NetworkOptions options = MakeOptions(config, ConnectivityMode::kHybrid);
    options.isl_capacity_gbps = ratio * scenario.radio.capacity_gbps;
    const NetworkModel hybrid(scenario, options, cities);
    const double gbps = RunThroughputStudy(hybrid, pairs, 4, 0.0).total_gbps;
    table.AddRow({FormatDouble(ratio, 1), FormatDouble(options.isl_capacity_gbps, 0),
                  FormatDouble(gbps, 1),
                  FormatDouble(gbps / std::max(bp_gbps, 1e-9), 2)});
  }
  table.Print(std::cout);
  std::printf("\nBP baseline (k=4): %.1f Gbps\n", bp_gbps);
  std::printf("paper: 0.5x ISL capacity already gives 2.2x BP; gains flatten "
              "beyond ~3x (routing artefact)\n");
  return 0;
}

// Reproduces Fig. 6 (paper §6): CDF across city pairs of the 99.5th-
// percentile (0.5% exceedance) worst-link atmospheric attenuation, for BP
// paths (every up/down bounce counts) vs ISL paths (first/last radio hop
// only). Ku band: 14.25 GHz up / 11.7 GHz down.
int RunFig6Attenuation(const StudyConfig& config) {
  PrintConfig(config, "Fig. 6: 99.5th-pct attenuation across pairs (Starlink)");

  const std::vector<data::City> cities = MakeCities(config);
  const std::vector<CityPair> pairs = MakePairs(config, cities);
  const Scenario scenario = Scenario::Starlink();

  const NetworkModel bp(scenario,
                        MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel isl(scenario,
                         MakeOptions(config, ConnectivityMode::kIslOnly),
                         cities);

  const AttenuationDistributions result = RunAttenuationStudy(bp, isl, pairs, 0.0);

  PrintBanner(std::cout, "Fig. 6: CDF of worst-link attenuation (dB), 0.5% exceedance");
  // Rows and values derived from an empty sample (no pair reachable, as
  // with --pairs=0) are left out or printed as n/a.
  const bool have_both = !result.bp_db.empty() && !result.isl_db.empty();
  Table table({"percentile", "BP (dB)", "ISL (dB)"});
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    if (!have_both) {
      break;
    }
    table.AddRow({FormatDouble(p, 0), FormatDouble(Percentile(result.bp_db, p)),
                  FormatDouble(Percentile(result.isl_db, p))});
  }
  table.Print(std::cout);

  const auto power_at_median = [](const std::vector<double>& db) {
    return db.empty() ? "n/a"
                      : FormatDouble(itur::ReceivedPowerFraction(Median(db)) * 100.0, 0);
  };
  std::printf("\nmedian BP-vs-ISL gap: %s dB (paper: >1 dB, i.e. ~11%% received "
              "power)\n",
              have_both ? FormatDouble(Median(result.bp_db) - Median(result.isl_db))
                              .c_str()
                        : "n/a");
  std::printf("received power at median: BP %s%%, ISL %s%%\n",
              power_at_median(result.bp_db).c_str(),
              power_at_median(result.isl_db).c_str());
  std::printf("unreachable pairs: BP %d, ISL %d (of %zu)\n", result.bp_unreachable,
              result.isl_unreachable, pairs.size());
  return 0;
}

// Reproduces Figs. 7-8 (paper §6): the Delhi <-> Sydney path crosses the
// high-precipitation tropics; the BP path bounces through high-attenuation
// regions the ISL path overflies. Prints the attenuation-vs-exceedance
// series and the paper's headline "at 1%: 5 dB BP vs 2.2 dB ISL -> ISLs cut
// weather attenuation 39%" comparison, plus the Fig. 7-style hop dump.
int RunFig8DelhiSydney(const StudyConfig& config) {
  PrintConfig(config, "Fig. 7-8: Delhi<->Sydney path attenuation (Starlink)");

  const std::vector<data::City> cities = MakeCities(config);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel isl(scenario,
                         MakeOptions(config, ConnectivityMode::kIslOnly),
                         cities);

  // Fig. 7: dump the BP path's intermediate hops at one instant.
  SweepWorkspace ws;
  const NetworkModel::Snapshot& snap = bp.BuildSnapshot(0.0, &ws.snapshot);
  const std::vector<CityPair> pair = {{data::CityIndexByName(cities, "Delhi"),
                                       data::CityIndexByName(cities, "Sydney")}};
  const graph::Path path =
      std::move(RoutePairPaths(snap, pair, GroupPairsBySource(pair), ws)[0]);
  PrintBanner(std::cout, "Fig. 7: BP path hops at t=0 (paper shows 2 aircraft + 4 GTs)");
  if (!path.nodes.empty()) {
    int aircraft = 0;
    int relays = 0;
    int transit_cities = 0;
    Table hops({"hop", "kind", "lat (deg)", "lon (deg)"});
    for (size_t i = 0; i < path.nodes.size(); ++i) {
      const graph::NodeId n = path.nodes[i];
      const geo::GeodeticCoord g =
          geo::EcefToGeodetic(snap.node_ecef[static_cast<size_t>(n)]);
      const char* kind = "city GT";
      if (snap.IsSat(n)) {
        kind = "satellite";
      } else if (snap.IsAircraft(n)) {
        kind = "aircraft";
        ++aircraft;
      } else if (snap.IsRelay(n)) {
        kind = "relay GT";
        ++relays;
      } else if (i != 0 && i + 1 != path.nodes.size()) {
        ++transit_cities;
      }
      hops.AddRow({std::to_string(i), kind, FormatDouble(g.latitude_deg, 1),
                   FormatDouble(g.longitude_deg, 1)});
    }
    hops.Print(std::cout);
    std::printf("intermediate ground hops: %d aircraft + %d GTs\n", aircraft,
                relays + transit_cities);
  } else {
    std::printf("BP path unreachable at t=0 at this scale\n");
  }

  // Fig. 8: attenuation vs exceedance probability.
  const std::vector<double> exceedances = {0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0};
  const PathAttenuationCcdf ccdf =
      TracePairAttenuation(bp, isl, "Delhi", "Sydney", 0.0, exceedances);

  PrintBanner(std::cout, "Fig. 8: worst-link attenuation vs exceedance probability");
  Table table({"exceedance (%)", "BP (dB)", "ISL (dB)", "BP rx power", "ISL rx power"});
  double bp_at_1 = 0.0;
  double isl_at_1 = 0.0;
  for (size_t i = 0; i < exceedances.size(); ++i) {
    if (exceedances[i] == 1.0) {
      bp_at_1 = ccdf.bp_db[i];
      isl_at_1 = ccdf.isl_db[i];
    }
    table.AddRow(
        {FormatDouble(exceedances[i], 1), FormatDouble(ccdf.bp_db[i]),
         FormatDouble(ccdf.isl_db[i]),
         FormatDouble(itur::ReceivedPowerFraction(ccdf.bp_db[i]) * 100.0, 0) + "%",
         FormatDouble(itur::ReceivedPowerFraction(ccdf.isl_db[i]) * 100.0, 0) + "%"});
  }
  table.Print(std::cout);

  const double bp_power = itur::ReceivedPowerFraction(bp_at_1);
  const double isl_power = itur::ReceivedPowerFraction(isl_at_1);
  std::printf("\nat 1%% exceedance: BP %.1f dB vs ISL %.1f dB (paper: 5 dB vs 2.2 dB)\n",
              bp_at_1, isl_at_1);
  if (bp_power > 0.0) {
    std::printf("ISL received-power advantage: %.0f%% (paper: 39%%: 56%% BP vs 78%% ISL)\n",
                (isl_power / bp_power - 1.0) * 100.0);
  }
  return 0;
}

// Reproduces Fig. 9 (paper §7): GSO arc-avoidance shrinks a terminal's
// usable field of view, worst at the Equator. Uses Starlink's
// full-deployment 40-degree minimum elevation and 22-degree separation.
int RunFig9GsoArc(const StudyConfig& /*config*/) {
  std::printf("# Fig. 9: GSO arc-avoidance field-of-view reduction\n");

  GsoStudyOptions options;  // e = 40 deg, separation = 22 deg
  std::vector<double> latitudes;
  for (double lat = 0.0; lat <= 70.0; lat += 5.0) {
    latitudes.push_back(lat);
  }
  const auto rows = RunGsoArcStudy(latitudes, options);

  PrintBanner(std::cout,
              "usable-sky fraction excluded by the GSO belt (e=40 deg, 22 deg sep)");
  Table table({"GT latitude (deg)", "excluded sky fraction"});
  for (const GsoStudyRow& row : rows) {
    table.AddRow({FormatDouble(row.latitude_deg, 0),
                  FormatDouble(row.excluded_sky_fraction, 3)});
  }
  table.Print(std::cout);
  std::printf("\npaper Fig. 9: at the Equator only small shaded regions of "
              "elevation remain reachable; BP cross-hemisphere traffic must use "
              "equatorial GTs and is hit hardest\n");

  // Sensitivity: Kuiper's planned separation ramp (12 -> 18 deg).
  PrintBanner(std::cout, "sensitivity: exclusion angle sweep at the Equator");
  Table sweep({"separation (deg)", "excluded sky fraction"});
  for (const double sep : {12.0, 18.0, 22.0}) {
    GsoStudyOptions o = options;
    o.separation_deg = sep;
    const auto r = RunGsoArcStudy({0.0}, o);
    sweep.AddRow({FormatDouble(sep, 0), FormatDouble(r[0].excluded_sky_fraction, 3)});
  }
  sweep.Print(std::cout);
  return 0;
}

// Reproduces Fig. 10 (paper §8): without cross-shell ISLs, a sparse BP
// bounce at a ground station lets the Brisbane <-> Tokyo path switch
// between the 53-degree shell and a polar shell, cutting latency.
int RunFig10Multishell(const StudyConfig& config) {
  PrintConfig(config, "Fig. 10: Brisbane<->Tokyo cross-shell BP transition");

  const std::vector<data::City> cities = MakeCities(config);
  const SnapshotSchedule schedule = MakeSchedule(config);
  const MultishellResult result =
      RunMultishellStudy(Scenario::Starlink(), orbit::PolarShell(), cities,
                         "Brisbane", "Tokyo", schedule);

  PrintBanner(std::cout,
              "RTT: 53-deg shell alone vs two shells with BP transitions (ms)");
  Table table({"t (min)", "single shell (ms)", "dual shell+BP (ms)", "saving (ms)"});
  for (size_t i = 0; i < result.times_sec.size(); ++i) {
    const double single = result.single_shell_rtt_ms[i];
    const double dual = result.dual_shell_rtt_ms[i];
    const bool both = single < 1e17 && dual < 1e17;
    table.AddRow({FormatDouble(result.times_sec[i] / 60.0, 0),
                  single < 1e17 ? FormatDouble(single, 1) : "unreachable",
                  dual < 1e17 ? FormatDouble(dual, 1) : "unreachable",
                  both ? FormatDouble(single - dual, 1) : "-"});
  }
  table.Print(std::cout);

  std::printf("\nsnapshots improved by the second shell: %d/%zu; mean saving "
              "%.1f ms\n", result.improved_snapshots, result.times_sec.size(),
              result.mean_improvement_ms);
  std::printf("paper: cross-shell BP transitions achieve lower latency where the "
              "53-deg shell detours\n");
  return 0;
}

// Reproduces Fig. 11 (paper §8): "distributed GTs" — nearby smaller cities
// lend Paris their satellite visibility over terrestrial fiber, multiplying
// the metro's usable ground-satellite capacity.
int RunFig11FiberAugmentation(const StudyConfig& config) {
  PrintConfig(config, "Fig. 11: Paris fiber-augmented satellite connectivity");

  const std::vector<data::City> cities = MakeCities(config);
  const SnapshotSchedule schedule = MakeSchedule(config);
  // Paris + 5 nearby cities within 250 km.
  const FiberStudyResult result = RunFiberStudy(Scenario::Starlink(), cities, schedule);

  PrintBanner(std::cout, "per-city mean visible Starlink satellites");
  Table table({"city", "mean visible sats", "fiber latency to metro (ms)"});
  table.AddRow({result.metro.city, FormatDouble(result.metro.mean_visible_sats, 1),
                "0.00"});
  for (const FiberMemberStats& m : result.members) {
    table.AddRow({m.city, FormatDouble(m.mean_visible_sats, 1),
                  FormatDouble(m.fiber_latency_ms)});
  }
  table.Print(std::cout);

  PrintBanner(std::cout, "distributed-GT capacity gain");
  std::printf("distinct satellites visible: metro alone %.1f, group %.1f\n",
              result.metro_mean_distinct_sats, result.group_mean_distinct_sats);
  std::printf("satellite-diversity view: metro %.0f Gbps -> group %.0f Gbps "
              "(%.2fx gain)\n",
              result.metro_capacity_gbps, result.group_capacity_gbps,
              result.capacity_gain);
  std::printf("spectrum-reuse view (total GT-sat links): metro %.1f -> group "
              "%.1f links (%.2fx gain)\n",
              result.metro_mean_links, result.group_mean_links, result.link_gain);
  std::printf("\npaper: each nearby city contributes its own cone of satellite "
              "visibility, multiplying the contended ground-satellite spectrum "
              "available to the metro\n");
  return 0;
}

}  // namespace leosim::cli
