#include "core/temporal_sweep.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.hpp"
#include "link/visibility.hpp"
#include "obs/progress.hpp"

namespace leosim::core {

TemporalSweep::TemporalSweep(std::vector<double> times, int streams)
    : times_(std::move(times)), streams_(streams) {
  if (streams_ < 1) {
    throw std::invalid_argument("TemporalSweep needs at least one stream");
  }
}

void TemporalSweep::Run(
    const std::string& progress_label,
    const std::function<void(const SweepItem&, SweepWorkspace&)>& body) const {
  const int items = slots() * streams_;
  if (items <= 0) {
    return;
  }
  // Workspaces are indexed by dense worker id, and ParallelForWorkers
  // resolves the same worker count (capped at the item count).
  const int workers = std::min(items, DefaultWorkerCount());
  std::vector<SweepWorkspace> workspaces(static_cast<size_t>(workers));
  obs::ProgressReporter progress(progress_label,
                                 static_cast<uint64_t>(items));
  ParallelForWorkers(
      items,
      [&](int worker, int index) {
        // Index -> (slot, stream): slot-major, so consecutive indices
        // walk the streams of one slot before moving on. Claim order
        // never affects results (see the header contract); this layout
        // just keeps one slot's halves temporally close.
        SweepItem item;
        item.slot = index / streams_;
        item.stream = index % streams_;
        item.time_sec = times_[static_cast<size_t>(item.slot)];
        body(item, workspaces[static_cast<size_t>(worker)]);
        progress.Step();
      });
}

std::vector<std::vector<std::vector<int>>> SampleVisibility(
    const std::string& label, const orbit::Constellation& constellation,
    double min_elevation_deg, const std::vector<geo::Vec3>& terminals_ecef,
    const std::vector<double>& times) {
  double max_altitude_km = 0.0;
  for (int s = 0; s < constellation.NumShells(); ++s) {
    max_altitude_km = std::max(max_altitude_km, constellation.shell(s).altitude_km);
  }
  const double radius_km = link::IndexSearchRadiusKm(max_altitude_km, min_elevation_deg);
  std::vector<std::vector<std::vector<int>>> visible(
      times.size(), std::vector<std::vector<int>>(terminals_ecef.size()));
  TemporalSweep(times).Run(label, [&](const SweepItem& item, SweepWorkspace&) {
    std::vector<geo::Vec3> sats;
    constellation.PositionsEcefInto(item.time_sec, &sats);
    const link::SatelliteIndex index(sats, radius_km);
    for (size_t t = 0; t < terminals_ecef.size(); ++t) {
      index.VisibleInto(terminals_ecef[t], min_elevation_deg,
                        &visible[static_cast<size_t>(item.slot)][t]);
    }
  });
  return visible;
}

std::vector<SourceGroup> GroupPairsBySource(const std::vector<CityPair>& pairs) {
  std::vector<SourceGroup> groups;
  // City count is a few hundred; a flat index avoids hashing and keeps
  // first-appearance order.
  std::vector<int> group_of;
  for (int i = 0; i < static_cast<int>(pairs.size()); ++i) {
    const int src = pairs[static_cast<size_t>(i)].a;
    if (src >= static_cast<int>(group_of.size())) {
      group_of.resize(static_cast<size_t>(src) + 1, -1);
    }
    int& slot = group_of[static_cast<size_t>(src)];
    if (slot < 0) {
      slot = static_cast<int>(groups.size());
      groups.push_back({src, {}});
    }
    groups[static_cast<size_t>(slot)].pair_indices.push_back(i);
  }
  return groups;
}

namespace {

bool SameShell(const orbit::OrbitalShell& a, const orbit::OrbitalShell& b) {
  return a.name == b.name && a.num_planes == b.num_planes &&
         a.sats_per_plane == b.sats_per_plane && a.altitude_km == b.altitude_km &&
         a.inclination_deg == b.inclination_deg &&
         a.phase_factor == b.phase_factor &&
         a.raan_spread_deg == b.raan_spread_deg &&
         a.raan_offset_deg == b.raan_offset_deg;
}

}  // namespace

bool CanDeriveBentPipeByMasking(const NetworkModel& bp_model,
                                const NetworkModel& hybrid_model) {
  const NetworkOptions& a = bp_model.options();
  const NetworkOptions& b = hybrid_model.options();
  if (a.mode != ConnectivityMode::kBentPipe ||
      b.mode != ConnectivityMode::kHybrid) {
    return false;
  }
  // Every option apart from the mode must match: each one below feeds
  // node layout, radio-edge construction, or edge weights.
  if (a.relay_spacing_deg != b.relay_spacing_deg ||
      a.use_aircraft != b.use_aircraft ||
      a.aircraft_scale != b.aircraft_scale ||
      a.apply_gso_exclusion != b.apply_gso_exclusion ||
      a.max_gt_links_per_satellite != b.max_gt_links_per_satellite ||
      a.seed != b.seed) {
    return false;
  }
  const Scenario& sa = bp_model.scenario();
  const Scenario& sb = hybrid_model.scenario();
  if (sa.name != sb.name || !SameShell(sa.shell, sb.shell) ||
      sa.radio.min_elevation_deg != sb.radio.min_elevation_deg ||
      sa.radio.capacity_gbps != sb.radio.capacity_gbps ||
      sa.radio.uplink_freq_ghz != sb.radio.uplink_freq_ghz ||
      sa.radio.downlink_freq_ghz != sb.radio.downlink_freq_ghz) {
    return false;
  }
  const orbit::Constellation& ca = bp_model.constellation();
  const orbit::Constellation& cb = hybrid_model.constellation();
  if (ca.NumShells() != cb.NumShells() ||
      ca.NumSatellites() != cb.NumSatellites()) {
    return false;
  }
  for (int s = 0; s < ca.NumShells(); ++s) {
    if (!SameShell(ca.shell(s), cb.shell(s))) {
      return false;
    }
  }
  const std::vector<data::City>& cities_a = bp_model.cities();
  const std::vector<data::City>& cities_b = hybrid_model.cities();
  if (cities_a.size() != cities_b.size()) {
    return false;
  }
  for (size_t i = 0; i < cities_a.size(); ++i) {
    if (cities_a[i].name != cities_b[i].name ||
        cities_a[i].latitude_deg != cities_b[i].latitude_deg ||
        cities_a[i].longitude_deg != cities_b[i].longitude_deg) {
      return false;
    }
  }
  return true;
}

}  // namespace leosim::core
