#include "core/snapshot_stepper.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "geo/angles.hpp"
#include "geo/coordinates.hpp"
#include "link/radio.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "orbit/elements.hpp"

namespace leosim::core {

namespace {

// How far (ground distance) a satellite may drift from its activation
// anchor before the tracked-terminal list must be rescanned. Larger pads
// mean rarer rescans but more tracked pairs per satellite; 600 km is
// ~80 s of LEO ground-track motion against ~30 extra terminals.
constexpr double kActivationPadKm = 600.0;
// Spare half-edge slots per CSR row when entering patch mode.
constexpr int kRowSlack = 6;
// Pad added to each satellite's maximum visible slant range so that a
// distance window closing exactly on the boundary still implies strict
// invisibility, swallowing every floating-point rounding concern (orbit
// radii after rotation, the window arithmetic itself). The decision
// expression stays exact; the pad only shortens skip windows.
constexpr double kDistancePadKm = 1.0;
// Safety factor on the worst-case ECEF satellite acceleration bound.
constexpr double kAccelSafety = 1.01;
// Slack subtracted from the visibility margin (km^2) before opening a
// margin window, absorbing the rounding difference between the margin
// evaluated now and the exact tests evaluated at future steps. The
// margin moves by ~4e4 km^2 per 10 s step, so this costs nothing.
constexpr double kMarginPadKm2 = 1e-3;

obs::Histogram& PhaseHistogram(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(
      name, obs::Histogram::ExponentialBounds(1.0, 2.0, 20));
}

struct StepMetrics {
  obs::Counter& steps =
      obs::MetricsRegistry::Global().GetCounter("snapshot.steps");
  obs::Counter& edges_added =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.edges_added");
  obs::Counter& edges_removed =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.edges_removed");
  obs::Counter& pairs_retested =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.pairs_retested");
  obs::Counter& recompact =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.recompact");
  obs::Counter& windows_expired = obs::MetricsRegistry::Global().GetCounter(
      "snapshot.step.windows_expired");
  // Topology-event view of the same step: how many link_up / link_down /
  // weight-change events this step would contribute to a
  // leosim.netevents/1 stream. Kept distinct from edges_added/removed —
  // events_down also counts rescan removals attributed to the step that
  // triggered the rescan, and events_reweight counts every live-edge
  // weight rewrite (radio survivors + all ISLs), which no other counter
  // sees. Visible in obs_report.py diffs even when trace export is off.
  obs::Counter& events_up =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.events_up");
  obs::Counter& events_down =
      obs::MetricsRegistry::Global().GetCounter("snapshot.step.events_down");
  obs::Counter& events_reweight = obs::MetricsRegistry::Global().GetCounter(
      "snapshot.step.events_reweight");
  // Post-step population of the two tracking lists — the dormancy
  // balance the windowing exists to maintain.
  obs::Gauge& live_pairs =
      obs::MetricsRegistry::Global().GetGauge("snapshot.step.live_pairs");
  obs::Gauge& dormant_pairs =
      obs::MetricsRegistry::Global().GetGauge("snapshot.step.dormant_pairs");
  obs::Histogram& step_us = PhaseHistogram("snapshot.step_us");

  static StepMetrics& Get() {
    static StepMetrics metrics;
    return metrics;
  }
};

bool BitEq(double x, double y) {
  return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
}

// Inward-rounding targets for window ends (t_lo rounds up, t_hi rounds
// down). A {kNeverHi, kNeverHi} window — "expired since forever" —
// never holds and forces an exact recheck on the next step, while its
// t_lo stays below any real time so it cannot inflate the dorm_lo_
// backward-step bound.
constexpr float kNeverLo = std::numeric_limits<float>::max();
constexpr float kNeverHi = std::numeric_limits<float>::lowest();

}  // namespace

// Invisibility window from a positive surplus (distance above the
// pair's visibility boundary, or visibility margin) observed to change
// at `rate`, with second derivative bounded below by -accel: the bound
// surplus + rate t - accel t^2 / 2 stays positive exactly for t inside
// [(rate - q)/accel, (rate + q)/accel] with q = sqrt(rate^2 +
// 2 accel surplus) (see the header derivation). Float window ends are
// rounded inward (t_lo up, t_hi down) so the stored window is a strict
// subset of the true one.
SnapshotStepper::DormTrack SnapshotStepper::QuadWindow(
    int32_t terminal, double time_sec, double rate, double surplus,
    double accel, double inv_accel) {
  const double q = std::sqrt(rate * rate + 2.0 * accel * surplus);
  return {terminal,
          std::nextafterf(static_cast<float>(time_sec + (rate - q) * inv_accel),
                          kNeverLo),
          std::nextafterf(static_cast<float>(time_sec + (rate + q) * inv_accel),
                          kNeverHi)};
}

// Window for a pair inside the pad band, where the distance surplus is
// gone but the pair is still invisible: the margin m = thr dn - g.d
// (km^2, the amount by which the exact test fails) is positive, its
// rate thr v_r - g.v_rel is exactly measurable, and its curvature is
// bounded by -(thr + |g|) a_rel_max = -mb (dn'' >= -a_rel_max with
// thr >= 0, and |d''| <= a_rel_max). Grazing pairs that hover near the
// boundary for tens of seconds get touched a handful of times instead
// of every step. inv_mb == 0 (negative elevation threshold) disables
// the bound; the degenerate [t0, t0] window rounds inward to an
// inverted, never-holding one.
SnapshotStepper::DormTrack SnapshotStepper::MarginWindow(
    int32_t terminal, double time_sec, const TermData& td,
    const geo::Vec3& d, const geo::Vec3& vel, double dn, double gd) const {
  const double m = td.thr * dn - gd - kMarginPadKm2;
  if (!(m > 0.0)) {
    return {terminal, kNeverHi, kNeverHi};
  }
  const double rate = td.thr * (d.Dot(vel) / dn) - td.g.Dot(vel);
  return QuadWindow(terminal, time_sec, rate, m, td.mb, td.inv_mb);
}

bool SnapshotStepper::StepEnabled() {
  const char* env = std::getenv("LEOSIM_STEP");
  return env == nullptr || std::string_view(env) != "0";
}

bool SnapshotStepper::CheckEnabled() {
  const char* env = std::getenv("LEOSIM_STEP_CHECK");
  return env != nullptr && std::string_view(env) == "1";
}

bool SnapshotStepper::CanStep(const NetworkModel& model) {
  // Aircraft nodes move and appear/disappear (the node count itself
  // changes), GSO exclusion adds a second visibility predicate, and beam
  // budgets couple candidates across terminals — all are full-rebuild
  // territory for now.
  return !model.air_.has_value() && !model.options_.apply_gso_exclusion &&
         model.options_.max_gt_links_per_satellite == 0;
}

void SnapshotStepper::Prime(const NetworkModel& model, double time_sec,
                            NetworkModel::SnapshotWorkspace* workspace) {
  model_ = &model;
  ws_ = workspace;
  t_ = time_sec;
  primed_ = true;
  can_step_ = CanStep(model);
  // The fresh build reset the graph, so any previous patch-mode state is
  // gone; rebuild the stepping state on the next TryStep.
  warm_ = false;
}

NetworkModel::Snapshot* SnapshotStepper::TryStep(
    const NetworkModel& model, double time_sec,
    NetworkModel::SnapshotWorkspace* workspace) {
  if (!primed_ || model_ != &model || ws_ != workspace || !can_step_) {
    return nullptr;
  }
  if (std::abs(time_sec - t_) > kMaxStepGapSec) {
    return nullptr;
  }
  if (!StepEnabled()) {
    return nullptr;
  }
  StepMetrics& metrics = StepMetrics::Get();
  double step_us = 0.0;
  {
    const obs::Span span("snapshot.step", &metrics.step_us, &step_us);
    if (!warm_) {
      ColdInit();
    }
    Step(time_sec);
  }
  t_ = time_sec;
  metrics.steps.Increment();
  obs::TimeseriesRecorder& timeseries = obs::TimeseriesRecorder::Global();
  if (timeseries.Enabled()) {
    timeseries.Record(time_sec, "snapshot.step.step_us", step_us);
  }
  if (CheckEnabled()) {
    CrossCheck(time_sec);
  }
  return &ws_->snapshot;
}

void SnapshotStepper::ColdInit() {
  const NetworkModel& model = *model_;
  NetworkModel::Snapshot& snap = ws_->snapshot;
  if (snap.graph.InPatchMode()) {
    throw std::logic_error("stepper primed on an already-patched snapshot");
  }
  num_sats_ = snap.num_sats;
  first_ground_ = snap.num_sats;
  total_nodes_ = snap.NumNodes();
  const int num_ground = total_nodes_ - first_ground_;

  const std::vector<geo::Vec3> ground_ecef(
      snap.node_ecef.begin() + first_ground_, snap.node_ecef.end());
  const double min_el = model.scenario_.radio.min_elevation_deg;
  const double sin_el = std::sin(geo::DegToRad(min_el));

  // Per-orbit altitudes, not shell metadata: FromElements constellations
  // may carry orbits whose altitude differs from their shell's nominal.
  r2_km2_.resize(static_cast<size_t>(num_sats_));
  double alt_min = model.constellation_.orbit(0).elements().altitude_km;
  double alt_max = alt_min;
  for (int s = 0; s < num_sats_; ++s) {
    const double alt = model.constellation_.orbit(s).elements().altitude_km;
    const double r = geo::kEarthRadiusKm + alt;
    r2_km2_[static_cast<size_t>(s)] = r * r;
    alt_min = std::min(alt_min, alt);
    alt_max = std::max(alt_max, alt);
  }
  // Terminals beyond the builder's index radius of the sub-satellite
  // point cannot see the satellite; the pad buys drift slack so the
  // per-satellite lists survive many steps.
  activation_radius_km_ = link::IndexSearchRadiusKm(alt_max, min_el) + kActivationPadKm;
  ground_index_.Rebuild(ground_ecef, activation_radius_km_);
  cos_pad_ = std::cos(kActivationPadKm / geo::kEarthRadiusKm);

  // Worst-case ECEF acceleration of any satellite (terminals are static,
  // so this bounds the relative acceleration): gravity at the lowest
  // orbit radius plus the rotating-frame Coriolis (2 w v) and
  // centrifugal (w^2 r) carries. QuadWindow turns a distance surplus and
  // measured radial rate into a safe-skip window against this bound.
  const double w = geo::kEarthRotationRadPerSec;
  const double r_min = geo::kEarthRadiusKm + alt_min;
  const double r_max = geo::kEarthRadiusKm + alt_max;
  const double v_orb_max = std::sqrt(orbit::kMuEarthKm3PerSec2 / r_min);
  a_rel_max_ = (orbit::kMuEarthKm3PerSec2 / (r_min * r_min) +
                2.0 * w * v_orb_max + w * w * r_max) *
               kAccelSafety;
  inv_a_rel_ = 1.0 / a_rel_max_;

  // Static terminal state, one cache line per terminal. thr is
  // sin(min_el) * |g| — exactly what link::IsVisible computes per call,
  // so retests using the cached value reach bit-identical decisions.
  // gs2mg2 feeds the per-pair boundary d_vis(r, g) and mb the margin
  // curvature bound (windows only, so their own rounding is swallowed
  // by kDistancePadKm / kMarginPadKm2). A negative elevation threshold
  // would break the margin-curvature derivation (thr < 0); inv_mb = 0
  // degrades those margin windows to never-holding ones.
  terms_.resize(static_cast<size_t>(num_ground));
  for (int i = 0; i < num_ground; ++i) {
    const geo::Vec3& g = ground_ecef[static_cast<size_t>(i)];
    const double norm = g.Norm();
    const double thr = sin_el * norm;
    const double mb = thr >= 0.0 ? (thr + norm) * a_rel_max_ : 0.0;
    terms_[static_cast<size_t>(i)] = {g, thr, thr * thr - norm * norm, mb,
                                      mb > 0.0 ? 1.0 / mb : 0.0};
  }

  // Enter patch mode with canonical order keys: radio edge (s, g) sits
  // at s * total_nodes + g, ISL i after every radio edge — exactly the
  // builder's insertion order, so patched rows replay fresh-build rows.
  isl_key_base_ =
      static_cast<uint64_t>(num_sats_) * static_cast<uint64_t>(total_nodes_);
  edge_keys_.assign(static_cast<size_t>(snap.graph.NumEdges()), 0);
  for (const graph::EdgeId e : snap.radio_edges) {
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    edge_keys_[static_cast<size_t>(e)] =
        static_cast<uint64_t>(rec.a) * static_cast<uint64_t>(total_nodes_) +
        static_cast<uint64_t>(rec.b);
  }
  for (size_t i = 0; i < snap.isl_edges.size(); ++i) {
    edge_keys_[static_cast<size_t>(snap.isl_edges[i])] = isl_key_base_ + i;
  }
  snap.graph.BeginPatchMode(edge_keys_, kRowSlack);

  // Seed the per-satellite candidate lists as dormant with never-holding
  // windows: invisible at the priming time per the fresh build, and the
  // first step computes each pair's real window. All-equal expiries make
  // any order a valid heap, so the terminal-sorted seed below doubles as
  // the heap the first step pops dry.
  live_.resize(static_cast<size_t>(num_sats_));
  dorm_.resize(static_cast<size_t>(num_sats_));
  // Expired gates force every satellite through its first dormant pass,
  // which replaces the seeded never-holding windows with real ones.
  dorm_lo_.assign(static_cast<size_t>(num_sats_), kNeverHi);
  dorm_hi_.assign(static_cast<size_t>(num_sats_), kNeverHi);
  anchors_.resize(static_cast<size_t>(num_sats_));
  for (int s = 0; s < num_sats_; ++s) {
    const geo::Vec3& pos = snap.node_ecef[static_cast<size_t>(s)];
    anchors_[static_cast<size_t>(s)] = pos.Normalized();
    ground_index_.WithinRadiusInto(pos, &scan_);
    live_[static_cast<size_t>(s)].clear();
    std::vector<DormTrack>& dorm = dorm_[static_cast<size_t>(s)];
    dorm.clear();
    for (const int gidx : scan_) {
      dorm.push_back({first_ground_ + gidx, kNeverHi, kNeverHi});
    }
  }
  // Move the snapshot's visible pairs to the live lists. radio_edges is
  // in canonical (satellite-major, terminal-ascending) order, so the
  // push_backs keep each live list sorted. Every visible terminal is
  // within coverage of its satellite, hence tracked.
  for (const graph::EdgeId e : snap.radio_edges) {
    const graph::EdgeRecord& rec = snap.graph.Edge(e);
    std::vector<DormTrack>& dorm = dorm_[static_cast<size_t>(rec.a)];
    const auto it = std::lower_bound(
        dorm.begin(), dorm.end(), rec.b,
        [](const DormTrack& t, graph::NodeId term) { return t.terminal < term; });
    if (it == dorm.end() || it->terminal != rec.b) {
      throw std::logic_error(
          "visible terminal missing from its satellite's activation set");
    }
    dorm.erase(it);
    live_[static_cast<size_t>(rec.a)].push_back({rec.b, e});
  }
  warm_ = true;
}

void SnapshotStepper::Rescan(int sat, const geo::Vec3& pos) {
  NetworkModel::Snapshot& snap = ws_->snapshot;
  ground_index_.WithinRadiusInto(pos, &scan_);
  std::vector<LiveTrack>& live = live_[static_cast<size_t>(sat)];
  std::vector<DormTrack>& dorm = dorm_[static_cast<size_t>(sat)];
  // The grid query and the live list are terminal-sorted; the dormant
  // heap is not — sweep a terminal-sorted copy of it instead.
  rescan_sorted_.assign(dorm.begin(), dorm.end());
  std::sort(rescan_sorted_.begin(), rescan_sorted_.end(),
            [](const DormTrack& x, const DormTrack& y) {
              return x.terminal < y.terminal;
            });
  rescan_live_.clear();
  rescan_dorm_.clear();
  size_t li = 0;
  size_t di = 0;
  for (const int gidx : scan_) {
    const int32_t terminal = first_ground_ + gidx;
    while (li < live.size() && live[li].terminal < terminal) {
      // Dropped from the activation set: beyond coverage + 100 km, so
      // provably invisible — remove the edge.
      snap.graph.PatchRemoveEdge(live[li].edge);
      StepMetrics::Get().edges_removed.Increment();
      ++rescan_removed_;
      ++li;
    }
    while (di < rescan_sorted_.size() && rescan_sorted_[di].terminal < terminal) {
      ++di;
    }
    if (li < live.size() && live[li].terminal == terminal) {
      rescan_live_.push_back(live[li]);
      ++li;
    } else if (di < rescan_sorted_.size() &&
               rescan_sorted_[di].terminal == terminal) {
      rescan_dorm_.push_back(rescan_sorted_[di]);
      ++di;
    } else {
      // Newly activated: a large step can overshoot the drift pad far
      // enough that this terminal is already visible, so the expired
      // (never-holding) window forces a recheck in this very step's
      // dormant pass.
      rescan_dorm_.push_back({terminal, kNeverHi, kNeverHi});
    }
  }
  for (; li < live.size(); ++li) {
    snap.graph.PatchRemoveEdge(live[li].edge);
    StepMetrics::Get().edges_removed.Increment();
    ++rescan_removed_;
  }
  live.assign(rescan_live_.begin(), rescan_live_.end());
  dorm.assign(rescan_dorm_.begin(), rescan_dorm_.end());
  std::make_heap(dorm.begin(), dorm.end(), ExpiresLater);
  float lo = kNeverHi;
  for (const DormTrack& dt : dorm) {
    lo = std::max(lo, dt.t_lo);
  }
  dorm_lo_[static_cast<size_t>(sat)] = lo;
  dorm_hi_[static_cast<size_t>(sat)] =
      dorm.empty() ? kNeverLo : dorm.front().t_hi;
  anchors_[static_cast<size_t>(sat)] = pos.Normalized();
}

void SnapshotStepper::Step(double time_sec) {
  const NetworkModel& model = *model_;
  NetworkModel::Snapshot& snap = ws_->snapshot;
  graph::Graph& graph = snap.graph;
  StepMetrics& metrics = StepMetrics::Get();
  const uint64_t recompact_before = graph.PatchRecompactions();
  uint64_t retested = 0;
  uint64_t tracked = 0;
  uint64_t added = 0;
  uint64_t removed = 0;
  uint64_t expired = 0;
  uint64_t reweighted = 0;
  rescan_removed_ = 0;
  // Same batch propagation as the builder — positions are bit-identical.
  // The velocity kernel consumes the inertial SoA block (before the
  // in-place frame rotation), saving its PositionEci recomputation;
  // velocities feed the invisibility windows only — never the snapshot.
  model.constellation_.PropagateBatch(time_sec, &ws_->sat_soa,
                                      &ws_->sat_phase);
  model.constellation_.VelocitiesEcefBatchInto(time_sec, ws_->sat_soa,
                                               &sat_vel_);
  geo::EciToEcefBatch(time_sec, &ws_->sat_soa);
  geo::PackInto(ws_->sat_soa, &ws_->sat_ecef);
  const std::vector<geo::Vec3>& sat_ecef = ws_->sat_ecef;
  std::copy(sat_ecef.begin(), sat_ecef.end(), snap.node_ecef.begin());

  const double gt_capacity = model.GtCapacityGbps();
  snap.radio_edges.clear();

  // Dormant phase: every satellite's rescan and window-expiry work runs
  // before any live pass. The refreshes touch only the terminal table,
  // the per-satellite state arrays, and the expired heap tops — a
  // working set small enough to stay cached across satellites, which
  // interleaving with the live passes' streaming rewrites would evict
  // (measured ~30x slowdown per refresh when interleaved). Pairs that
  // turn visible are queued on births_ — satellite-ascending by
  // construction — for the live phase to merge.
  births_.clear();
  for (int s = 0; s < num_sats_; ++s) {
    const geo::Vec3& pos = sat_ecef[static_cast<size_t>(s)];
    const geo::Vec3& vel = sat_vel_[static_cast<size_t>(s)];
    // Anchor drift beyond the pad invalidates the activation-set
    // invariant; rescan before touching this satellite's pairs.
    if (pos.Dot(anchors_[static_cast<size_t>(s)]) < cos_pad_ * pos.Norm()) {
      Rescan(s, pos);
    }
    const double r2 = r2_km2_[static_cast<size_t>(s)];
    std::vector<DormTrack>& dorm = dorm_[static_cast<size_t>(s)];
    tracked += live_[static_cast<size_t>(s)].size() + dorm.size();

    // The expiry heap makes the pass proportional to the windows that
    // actually ran out: the contiguous dorm_hi_ gate says whether the
    // root expired at all, and popping stops at the first held window.
    // Each popped pair is re-derived exactly once per step — a refresh
    // can legitimately produce an already-expired window (a grazing
    // pair's margin never-window), which simply pops again next step.
    // Re-derives one expired pair: still beyond its distance boundary →
    // new distance window; inside the pad band → exact visibility test,
    // then either a new live edge or a margin window. `heaped` keeps the
    // heap invariant when pushing into an already-valid heap.
    const auto refresh = [&](const DormTrack dt, float& lo, bool heaped) {
      const size_t gi = static_cast<size_t>(dt.terminal - first_ground_);
      const TermData& td = terms_[gi];
      const geo::Vec3 d = pos - td.g;
      const double dn2 = d.NormSquared();
      const double d_vis = std::sqrt(r2 + td.gs2mg2) - td.thr + kDistancePadKm;
      if (dn2 > d_vis * d_vis) {
        // Beyond the pair's visibility boundary: refresh the window
        // from the measured radial rate without ever evaluating the
        // exact expression.
        const double dn = std::sqrt(dn2);
        const DormTrack w =
            QuadWindow(dt.terminal, time_sec, d.Dot(vel) / dn, dn - d_vis,
                       a_rel_max_, inv_a_rel_);
        lo = std::max(lo, w.t_lo);
        dorm.push_back(w);
        if (heaped) {
          std::push_heap(dorm.begin(), dorm.end(), ExpiresLater);
        }
        return;
      }
      // Inside the 1 km pad band around the pair's boundary: exact
      // test; a pair staying invisible gets a margin window.
      const double dn = std::sqrt(dn2);  // == d.Norm() bit for bit
      ++retested;
      const double gd = td.g.Dot(d);
      if (gd >= td.thr * dn) {
        const graph::EdgeId e = graph.PatchAddEdge(
            s, dt.terminal, link::PropagationLatencyMs(dn), gt_capacity,
            static_cast<uint64_t>(s) * static_cast<uint64_t>(total_nodes_) +
                static_cast<uint64_t>(dt.terminal));
        ++added;
        births_.push_back({s, {dt.terminal, e}});
      } else {
        const DormTrack w = MarginWindow(dt.terminal, time_sec, td, d, vel, dn, gd);
        lo = std::max(lo, w.t_lo);
        dorm.push_back(w);
        if (heaped) {
          std::push_heap(dorm.begin(), dorm.end(), ExpiresLater);
        }
      }
    };
    if (time_sec < dorm_lo_[static_cast<size_t>(s)]) {
      // A step before some window opened (backward steps, or the seeded
      // first pass): hold-check every entry, re-derive the rest, and
      // re-establish the heap and the exact dorm_lo_ bound.
      dorm_refresh_.clear();
      size_t dw = 0;
      float lo = kNeverHi;
      for (const DormTrack dt : dorm) {
        if (dt.t_lo <= time_sec && time_sec <= dt.t_hi) {
          dorm[dw++] = dt;
          lo = std::max(lo, dt.t_lo);
        } else {
          dorm_refresh_.push_back(dt);
        }
      }
      dorm.resize(dw);
      for (const DormTrack dt : dorm_refresh_) {
        refresh(dt, lo, /*heaped=*/false);
      }
      std::make_heap(dorm.begin(), dorm.end(), ExpiresLater);
      dorm_lo_[static_cast<size_t>(s)] = lo;
      dorm_hi_[static_cast<size_t>(s)] =
          dorm.empty() ? kNeverLo : dorm.front().t_hi;
    } else if (time_sec > dorm_hi_[static_cast<size_t>(s)]) {
      // Forward step past the earliest expiry: pop the expired prefix of
      // the heap, re-derive those pairs, and push survivors back.
      dorm_refresh_.clear();
      while (!dorm.empty() && dorm.front().t_hi < time_sec) {
        std::pop_heap(dorm.begin(), dorm.end(), ExpiresLater);
        dorm_refresh_.push_back(dorm.back());
        dorm.pop_back();
      }
      expired += dorm_refresh_.size();
      float lo = dorm_lo_[static_cast<size_t>(s)];
      for (const DormTrack dt : dorm_refresh_) {
        refresh(dt, lo, /*heaped=*/true);
      }
      dorm_lo_[static_cast<size_t>(s)] = lo;
      dorm_hi_[static_cast<size_t>(s)] =
          dorm.empty() ? kNeverLo : dorm.front().t_hi;
    }
  }

  // Live phase, after every dormant pass is done.
  size_t bi = 0;
  for (int s = 0; s < num_sats_; ++s) {
    const geo::Vec3& pos = sat_ecef[static_cast<size_t>(s)];
    const geo::Vec3& vel = sat_vel_[static_cast<size_t>(s)];
    const double r2 = r2_km2_[static_cast<size_t>(s)];
    std::vector<LiveTrack>& live = live_[static_cast<size_t>(s)];
    std::vector<DormTrack>& dorm = dorm_[static_cast<size_t>(s)];

    // Collect this satellite's births. They surfaced in expiry order;
    // the live merge needs them in terminal order.
    newly_live_.clear();
    while (bi < births_.size() && births_[bi].sat == s) {
      newly_live_.push_back(births_[bi].lt);
      ++bi;
    }
    if (newly_live_.size() > 1) {
      std::sort(newly_live_.begin(), newly_live_.end(),
                [](const LiveTrack& x, const LiveTrack& y) {
                  return x.terminal < y.terminal;
                });
    }

    // Live pass: every weight changes every step, and the exact
    // visibility expression rides along on the |s-g| the weight refresh
    // needs anyway. Deaths compact the list in place and open a
    // distance window; births from the dormant pass merge in by
    // terminal so radio_edges keeps the canonical order.
    newly_dorm_.clear();
    if (newly_live_.empty()) {
      size_t lw = 0;
      for (size_t i = 0; i < live.size(); ++i) {
        // The weight rewrite a few iterations ahead touches an edge
        // record picked by a recycled id — a dependent scattered access
        // the hardware prefetcher cannot predict. Hide its latency.
        if (i + 8 < live.size()) {
          __builtin_prefetch(&graph.Edge(live[i + 8].edge), 1);
        }
        const LiveTrack lt = live[i];
        const size_t gi = static_cast<size_t>(lt.terminal - first_ground_);
        const TermData& td = terms_[gi];
        const geo::Vec3 d = pos - td.g;
        const double dn = d.Norm();
        ++retested;
        const double gd = td.g.Dot(d);
        if (gd >= td.thr * dn) {
          // PropagationLatencyMs(|s-g|) matches the builder's
          // PropagationLatencyMs(ground, pos) bit for bit: DistanceTo
          // squares the negated difference, which is the same double.
          // Deferred: the terminal-row half copy would be a scattered
          // write per pair; the flush below streams them row-clustered.
          graph.PatchEdgeWeightDeferred(lt.edge, link::PropagationLatencyMs(dn));
          ++reweighted;
          snap.radio_edges.push_back(lt.edge);
          live[lw++] = lt;
        } else {
          graph.PatchRemoveEdge(lt.edge);
          ++removed;
          // A fresh death just crossed its boundary, so dn usually sits
          // inside the pad band (delta <= 0): no distance surplus to
          // window on — fall back to the margin window.
          const double delta =
              dn - (std::sqrt(r2 + td.gs2mg2) - td.thr + kDistancePadKm);
          newly_dorm_.push_back(
              delta > 0.0
                  ? QuadWindow(lt.terminal, time_sec, d.Dot(vel) / dn, delta,
                               a_rel_max_, inv_a_rel_)
                  : MarginWindow(lt.terminal, time_sec, td, d, vel, dn, gd));
        }
      }
      live.resize(lw);
    } else {
      live_merge_.clear();
      size_t nl = 0;
      for (size_t i = 0; i <= live.size(); ++i) {
        const int32_t upto =
            i < live.size() ? live[i].terminal : total_nodes_;
        while (nl < newly_live_.size() && newly_live_[nl].terminal < upto) {
          snap.radio_edges.push_back(newly_live_[nl].edge);
          live_merge_.push_back(newly_live_[nl]);
          ++nl;
        }
        if (i == live.size()) {
          break;
        }
        if (i + 8 < live.size()) {
          __builtin_prefetch(&graph.Edge(live[i + 8].edge), 1);
        }
        const LiveTrack lt = live[i];
        const size_t gi = static_cast<size_t>(lt.terminal - first_ground_);
        const TermData& td = terms_[gi];
        const geo::Vec3 d = pos - td.g;
        const double dn = d.Norm();
        ++retested;
        const double gd = td.g.Dot(d);
        if (gd >= td.thr * dn) {
          graph.PatchEdgeWeightDeferred(lt.edge, link::PropagationLatencyMs(dn));
          ++reweighted;
          snap.radio_edges.push_back(lt.edge);
          live_merge_.push_back(lt);
        } else {
          graph.PatchRemoveEdge(lt.edge);
          ++removed;
          // A fresh death just crossed its boundary, so dn usually sits
          // inside the pad band (delta <= 0): no distance surplus to
          // window on — fall back to the margin window.
          const double delta =
              dn - (std::sqrt(r2 + td.gs2mg2) - td.thr + kDistancePadKm);
          newly_dorm_.push_back(
              delta > 0.0
                  ? QuadWindow(lt.terminal, time_sec, d.Dot(vel) / dn, delta,
                               a_rel_max_, inv_a_rel_)
                  : MarginWindow(lt.terminal, time_sec, td, d, vel, dn, gd));
        }
      }
      live.assign(live_merge_.begin(), live_merge_.end());
    }

    // Push freshly dormant pairs onto the expiry heap and keep the
    // contiguous gate in sync with the (possibly new) root.
    if (!newly_dorm_.empty()) {
      float lo = dorm_lo_[static_cast<size_t>(s)];
      for (const DormTrack& nd : newly_dorm_) {
        lo = std::max(lo, nd.t_lo);
        dorm.push_back(nd);
        std::push_heap(dorm.begin(), dorm.end(), ExpiresLater);
      }
      dorm_lo_[static_cast<size_t>(s)] = lo;
      dorm_hi_[static_cast<size_t>(s)] = dorm.front().t_hi;
    }
  }

  // ISLs never churn; refresh their weights in stored (stable-id) order.
  for (const graph::EdgeId e : snap.isl_edges) {
    const graph::EdgeRecord& rec = graph.Edge(e);
    graph.PatchEdgeWeight(
        e, link::PropagationLatencyMs(sat_ecef[static_cast<size_t>(rec.a)],
                                      sat_ecef[static_cast<size_t>(rec.b)]));
  }

  reweighted += snap.isl_edges.size();

  // Apply the live passes' queued terminal-side weight copies in one
  // row-clustered sweep (see PatchEdgeWeightDeferred).
  graph.FlushPatchWeights();

  metrics.edges_added.Add(added);
  metrics.edges_removed.Add(removed);
  metrics.pairs_retested.Add(retested);
  metrics.recompact.Add(graph.PatchRecompactions() - recompact_before);
  metrics.windows_expired.Add(expired);
  metrics.events_up.Add(added);
  metrics.events_down.Add(removed + rescan_removed_);
  metrics.events_reweight.Add(reweighted);
  // Post-step list populations: O(num_sats) size sums, no allocation.
  uint64_t live_pairs = 0;
  uint64_t dormant_pairs = 0;
  for (int s = 0; s < num_sats_; ++s) {
    live_pairs += live_[static_cast<size_t>(s)].size();
    dormant_pairs += dorm_[static_cast<size_t>(s)].size();
  }
  metrics.live_pairs.Set(static_cast<double>(live_pairs));
  metrics.dormant_pairs.Set(static_cast<double>(dormant_pairs));
  obs::TimeseriesRecorder& timeseries = obs::TimeseriesRecorder::Global();
  if (timeseries.Enabled()) {
    timeseries.Record(time_sec, "snapshot.step.edges_added",
                      static_cast<double>(added));
    timeseries.Record(time_sec, "snapshot.step.edges_removed",
                      static_cast<double>(removed));
    timeseries.Record(time_sec, "snapshot.step.pairs_retested",
                      static_cast<double>(retested));
    timeseries.Record(time_sec, "snapshot.step.windows_expired",
                      static_cast<double>(expired));
    timeseries.Record(time_sec, "snapshot.step.events_up",
                      static_cast<double>(added));
    timeseries.Record(time_sec, "snapshot.step.events_down",
                      static_cast<double>(removed + rescan_removed_));
    timeseries.Record(time_sec, "snapshot.step.events_reweight",
                      static_cast<double>(reweighted));
  }
  obs::LogDebug("snapshot.step")
      .Field("t_sec", time_sec)
      .Field("edges_added", added)
      .Field("edges_removed", removed)
      .Field("pairs_retested", retested)
      .Field("windows_expired", expired)
      .Field("pairs_tracked", tracked)
      .Field("live_pairs", live_pairs)
      .Field("dormant_pairs", dormant_pairs);
}

void SnapshotStepper::CrossCheck(double time_sec) {
  if (check_ws_ == nullptr) {
    check_ws_ = std::make_unique<NetworkModel::SnapshotWorkspace>();
  }
  const NetworkModel::Snapshot& rebuilt =
      model_->BuildSnapshot(time_sec, check_ws_.get());
  std::string why;
  if (!SnapshotsEquivalent(ws_->snapshot, rebuilt, &why)) {
    throw std::logic_error("stepped snapshot diverged from full rebuild at t=" +
                           std::to_string(time_sec) + ": " + why);
  }
}

NetworkModel::Snapshot& BuildOrStepSnapshot(
    const NetworkModel& model, double time_sec,
    NetworkModel::SnapshotWorkspace* workspace, SnapshotStepper* stepper) {
  if (stepper != nullptr) {
    if (NetworkModel::Snapshot* stepped =
            stepper->TryStep(model, time_sec, workspace)) {
      return *stepped;
    }
  }
  NetworkModel::Snapshot& snap = model.BuildSnapshot(time_sec, workspace);
  if (stepper != nullptr) {
    stepper->Prime(model, time_sec, workspace);
  }
  return snap;
}

bool SnapshotsEquivalent(const NetworkModel::Snapshot& a,
                         const NetworkModel::Snapshot& b, std::string* why) {
  const auto fail = [why](std::string msg) {
    if (why != nullptr) {
      *why = std::move(msg);
    }
    return false;
  };
  if (a.num_sats != b.num_sats || a.num_cities != b.num_cities ||
      a.num_relays != b.num_relays || a.num_aircraft != b.num_aircraft) {
    return fail("node-group counts differ");
  }
  if (a.node_ecef.size() != b.node_ecef.size()) {
    return fail("node counts differ");
  }
  for (size_t n = 0; n < a.node_ecef.size(); ++n) {
    if (!BitEq(a.node_ecef[n].x, b.node_ecef[n].x) ||
        !BitEq(a.node_ecef[n].y, b.node_ecef[n].y) ||
        !BitEq(a.node_ecef[n].z, b.node_ecef[n].z)) {
      return fail("node_ecef differs at node " + std::to_string(n));
    }
  }
  if (a.aircraft_coords.size() != b.aircraft_coords.size()) {
    return fail("aircraft counts differ");
  }
  for (size_t i = 0; i < a.aircraft_coords.size(); ++i) {
    if (!BitEq(a.aircraft_coords[i].latitude_deg,
               b.aircraft_coords[i].latitude_deg) ||
        !BitEq(a.aircraft_coords[i].longitude_deg,
               b.aircraft_coords[i].longitude_deg) ||
        !BitEq(a.aircraft_coords[i].altitude_km,
               b.aircraft_coords[i].altitude_km)) {
      return fail("aircraft coord differs at " + std::to_string(i));
    }
  }
  if (a.graph.NumNodes() != b.graph.NumNodes()) {
    return fail("graph node counts differ");
  }
  if (a.graph.NumLiveEdges() != b.graph.NumLiveEdges()) {
    return fail("live edge counts differ: " +
                std::to_string(a.graph.NumLiveEdges()) + " vs " +
                std::to_string(b.graph.NumLiveEdges()));
  }
  for (graph::NodeId n = 0; n < a.graph.NumNodes(); ++n) {
    const std::span<const graph::HalfEdge> ra = a.graph.Neighbours(n);
    const std::span<const graph::HalfEdge> rb = b.graph.Neighbours(n);
    if (ra.size() != rb.size()) {
      return fail("row length differs at node " + std::to_string(n));
    }
    for (size_t k = 0; k < ra.size(); ++k) {
      if (ra[k].to != rb[k].to || !BitEq(ra[k].weight, rb[k].weight)) {
        return fail("row entry differs at node " + std::to_string(n) +
                    " slot " + std::to_string(k));
      }
      const graph::EdgeRecord& ea = a.graph.Edge(ra[k].edge);
      const graph::EdgeRecord& eb = b.graph.Edge(rb[k].edge);
      if (!BitEq(ea.capacity, eb.capacity) || ea.enabled != eb.enabled) {
        return fail("edge record differs at node " + std::to_string(n) +
                    " slot " + std::to_string(k));
      }
    }
  }
  if (a.radio_edges.size() != b.radio_edges.size()) {
    return fail("radio edge counts differ");
  }
  for (size_t i = 0; i < a.radio_edges.size(); ++i) {
    const graph::EdgeRecord& ea = a.graph.Edge(a.radio_edges[i]);
    const graph::EdgeRecord& eb = b.graph.Edge(b.radio_edges[i]);
    if (ea.a != eb.a || ea.b != eb.b || !BitEq(ea.weight, eb.weight)) {
      return fail("radio edge " + std::to_string(i) + " differs");
    }
  }
  if (a.isl_edges.size() != b.isl_edges.size()) {
    return fail("isl edge counts differ");
  }
  for (size_t i = 0; i < a.isl_edges.size(); ++i) {
    const graph::EdgeRecord& ea = a.graph.Edge(a.isl_edges[i]);
    const graph::EdgeRecord& eb = b.graph.Edge(b.isl_edges[i]);
    if (ea.a != eb.a || ea.b != eb.b || !BitEq(ea.weight, eb.weight)) {
      return fail("isl edge " + std::to_string(i) + " differs");
    }
  }
  return true;
}

}  // namespace leosim::core
