#include "studies.hpp"

namespace leosim::cli {

namespace {

constexpr Study kStudies[] = {
    {"latency", "BP vs hybrid mean min-RTT over a short schedule", RunLatency,
     0, LatencyDefaults},
    {"fig2_latency", "Fig. 2: min-RTT and RTT-variation CDFs, BP vs hybrid",
     RunFig2Latency},
    {"fig3_path_churn", "Fig. 3: Maceio<->Durban BP path churn", RunFig3PathChurn},
    {"fig4_throughput", "Fig. 4: aggregate throughput, Starlink and Kuiper",
     RunFig4Throughput},
    {"fig5_isl_capacity", "Fig. 5: Starlink throughput vs ISL capacity",
     RunFig5IslCapacity},
    {"fig6_attenuation", "Fig. 6: 99.5th-percentile attenuation across pairs",
     RunFig6Attenuation},
    {"fig8_delhi_sydney", "Figs. 7-8: Delhi<->Sydney path attenuation",
     RunFig8DelhiSydney},
    {"fig9_gso_arc", "Fig. 9: GSO arc-avoidance field-of-view reduction",
     RunFig9GsoArc},
    {"fig10_multishell", "Fig. 10: Brisbane<->Tokyo cross-shell BP transition",
     RunFig10Multishell},
    {"fig11_fiber_augmentation", "Fig. 11: Paris fiber-augmented connectivity",
     RunFig11FiberAugmentation},
    {"ext_coverage", "coverage and availability by latitude", RunExtCoverage},
    {"ext_failures", "satellite-failure resilience", RunExtFailures, 200},
    {"ext_flow_completion", "flow completion times of finite transfers",
     RunExtFlowCompletion, 300},
    {"ext_gravity_matrix", "uniform vs gravity traffic matrix",
     RunExtGravityMatrix, 400},
    // 4 model builds with per-link GSO checks.
    {"ext_gso_network", "GSO exclusion at network level", RunExtGsoNetwork, 300},
    {"ext_handover", "GT-satellite pass durations and handover rates",
     RunExtHandover},
    {"ext_route_churn", "route churn, BP vs hybrid", RunExtRouteChurn, 150},
    {"ext_throughput_stability", "throughput stability over time",
     RunExtThroughputStability, 300},
    {"ext_weather_outage", "weather outages vs fade margin", RunExtWeatherOutage,
     250},
    {"ext_weighted_demand", "population-weighted max-min fairness",
     RunExtWeightedDemand, 400},
    {"ablation_beams", "per-satellite beam budget", RunAblationBeams, 300},
    {"ablation_kaband", "Ku vs Ka band attenuation gap", RunAblationKaband, 250},
    // Yen-based policies are costlier per pair.
    {"ablation_routing", "routing policies on the hybrid network",
     RunAblationRouting, 200},
    {"ablation_updown", "shared vs per-direction link capacities",
     RunAblationUpdown, 400},
};

}  // namespace

std::span<const Study> Studies() { return kStudies; }

const Study* FindStudy(std::string_view name) {
  for (const Study& study : kStudies) {
    if (name == study.name) {
      return &study;
    }
  }
  return nullptr;
}

}  // namespace leosim::cli
