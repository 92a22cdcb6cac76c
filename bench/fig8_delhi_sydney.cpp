// Reproduces Figs. 7-8 (paper §6): the Delhi <-> Sydney path crosses the
// high-precipitation tropics; the BP path bounces through high-attenuation
// regions the ISL path overflies. Prints the attenuation-vs-exceedance
// series and the paper's headline "at 1%: 5 dB BP vs 2.2 dB ISL -> ISLs cut
// weather attenuation 39%" comparison, plus the Fig. 7-style hop dump.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "core/attenuation_study.hpp"
#include "core/report.hpp"
#include "data/cities.hpp"
#include "graph/dijkstra.hpp"
#include "itur/slant_path.hpp"

using namespace leosim;
using namespace leosim::core;

int main(int argc, char** argv) {
  const bench::BenchConfig config = bench::ParseFlags(argc, argv);
  bench::ApplyObsConfig(config);
  bench::PrintConfig(config, "Fig. 7-8: Delhi<->Sydney path attenuation (Starlink)");

  const std::vector<data::City> cities = bench::MakeCities(config);
  const Scenario scenario = Scenario::Starlink();
  const NetworkModel bp(scenario,
                        bench::MakeOptions(config, ConnectivityMode::kBentPipe),
                        cities);
  const NetworkModel isl(scenario,
                         bench::MakeOptions(config, ConnectivityMode::kIslOnly),
                         cities);

  // Fig. 7: dump the BP path's intermediate hops at one instant.
  const NetworkModel::Snapshot snap = bp.BuildSnapshot(0.0);
  const int delhi = data::CityIndexByName(cities, "Delhi");
  const int sydney = data::CityIndexByName(cities, "Sydney");
  const auto path =
      graph::ShortestPath(snap.graph, snap.CityNode(delhi), snap.CityNode(sydney));
  PrintBanner(std::cout, "Fig. 7: BP path hops at t=0 (paper shows 2 aircraft + 4 GTs)");
  if (path.has_value()) {
    int aircraft = 0;
    int relays = 0;
    int transit_cities = 0;
    Table hops({"hop", "kind", "lat (deg)", "lon (deg)"});
    for (size_t i = 0; i < path->nodes.size(); ++i) {
      const graph::NodeId n = path->nodes[i];
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
      } else if (i != 0 && i + 1 != path->nodes.size()) {
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
  AttenuationOptions options;
  const std::vector<double> exceedances = {0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0};
  const PathAttenuationCcdf ccdf =
      TracePairAttenuation(bp, isl, "Delhi", "Sydney", 0.0, exceedances, options);

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
  bench::WriteObsOutputs(config);
  return 0;
}
