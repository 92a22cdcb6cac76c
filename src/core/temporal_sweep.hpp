// Snapshot-parallel sweep driver for the temporal studies. The paper's
// headline figures are the same per-snapshot pipeline evaluated at many
// time slots; slots are independent, so the sweep fans them out across
// ParallelForWorkers with one workspace bundle per dense worker id.
//
// Determinism contract (regression-tested in temporal_sweep_test): a
// sweep-driven study produces byte-identical outputs at any thread
// count. The driver's side of the bargain is per-worker workspaces and
// a stable item <-> (slot, stream) mapping; the study's side is writing
// only to preallocated slot-indexed arrays from the body and doing every
// order-sensitive reduction — timeseries emission, StudySummary
// counters, churn's consecutive-slot diffs — in a serial pass over
// those arrays afterwards. Churn diffs in particular stay serial by
// design: they chain slot i to slot i-1, and replaying them over the
// per-slot route tables costs microseconds while keeping the float
// accumulation order identical to the historical snapshot-major loop.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/network_builder.hpp"
#include "core/snapshot_stepper.hpp"
#include "core/traffic_matrix.hpp"
#include "graph/dijkstra.hpp"
#include "graph/landmarks.hpp"
#include "graph/sssp_tree.hpp"
#include "graph/tree_reuse.hpp"

namespace leosim::core {

// Per-worker scratch bundle, owned by TemporalSweep::Run and handed to
// the body by dense worker id. Reused across every item the worker
// claims, so a steady-state sweep allocates nothing per slot. The
// snapshot workspace is model-agnostic (each build refills it), so one
// bundle serves bodies that alternate between models (e.g. the
// multishell study's single- and dual-shell builds).
struct SweepWorkspace {
  NetworkModel::SnapshotWorkspace snapshot;
  // Incremental stepping state for bodies that build snapshots through
  // BuildOrStepSnapshot. It steps when the worker's previous item was a
  // nearby slot. Workers claim slots one at a time, so that holds on one
  // thread but not on several: traced runs of perfbench's 10-s churn
  // sweep (30 slots) took 1 build and 58 recompactions at one thread,
  // and 5-6 builds and 4,400-4,950 recompactions at four. Bodies that
  // call BuildSnapshot directly simply leave it cold.
  SnapshotStepper stepper;
  graph::DijkstraWorkspace dijkstra;
  graph::ShortestPathTree tree;
  // Cross-slot tree reuse (graph/tree_reuse.hpp). No study uses it: they
  // route through RouteSourceGroups (core/routing_tiers.hpp), which
  // builds ws.tree directly. It stays only for perfbench's replay, which
  // routes its churn tree batches through this field; bench_pipeline
  // benchmarks the cache with an instance of its own.
  graph::TreeReuseCache tree_cache;
  // ALT landmarks for the throughput study's edge-disjoint follow-up
  // searches, created by the study on first use. Held by pointer so
  // the workspaces Run constructs (one per item) keep their size: an
  // inline table added 160 bytes to each and raised the one-thread
  // churn sweep's peak RSS by about 0.5 MB through heap layout alone.
  std::unique_ptr<graph::LandmarkTable> landmarks;
  // Generic study scratch: component labels + DFS stack for the
  // reachability precheck, a NodeId buffer for batched targets, and the
  // pair indices those targets came from.
  std::vector<int> labels;
  std::vector<graph::NodeId> stack;
  std::vector<graph::NodeId> targets;
  std::vector<int> target_pairs;
};

// One scheduled unit of work: time slot `slot` (index into times()),
// stream `stream` in [0, streams). Streams let a study split a slot's
// independent halves (e.g. the latency study's bent-pipe and hybrid
// models) into separate items for better load balance.
struct SweepItem {
  int slot{0};
  int stream{0};
  double time_sec{0.0};
};

class TemporalSweep {
 public:
  explicit TemporalSweep(std::vector<double> times, int streams = 1);

  const std::vector<double>& times() const { return times_; }
  int slots() const { return static_cast<int>(times_.size()); }
  int streams() const { return streams_; }

  // Invokes body(item, workspace) once per (slot, stream) across the
  // resolved worker count (see parallel.hpp for resolution and
  // exception semantics), reporting one progress step per item under
  // `progress_label`. The body must confine its writes to slot-indexed
  // state; it runs concurrently for distinct items.
  void Run(const std::string& progress_label,
           const std::function<void(const SweepItem&, SweepWorkspace&)>& body,
           int num_threads = 0) const;

 private:
  std::vector<double> times_;
  int streams_{1};
};

// Pairs grouped by source city (pair.a — SampleCityPairs canonicalises
// a < b, and the studies never flip the orientation because reversing a
// path re-sums its edge weights in the opposite order, which is not
// bit-identical in floating point). Group order follows first
// appearance in `pairs`, so grouping is deterministic.
struct SourceGroup {
  int src_city{0};
  std::vector<int> pair_indices;  // indices into the original pair vector
};

std::vector<SourceGroup> GroupPairsBySource(const std::vector<CityPair>& pairs);

// True when `bp_model`'s snapshots are exactly `hybrid_model`'s with the
// ISL edges removed — same scenario, shells, cities, and options apart
// from the connectivity mode. The graph builder appends ISL edges after
// every radio edge, so disabling a hybrid snapshot's isl_edges (weight
// becomes +inf; relax loops skip them arithmetically) yields a graph
// whose searches are bit-identical to a dedicated bent-pipe build —
// letting the latency study build each time slot once instead of twice.
bool CanDeriveBentPipeByMasking(const NetworkModel& bp_model,
                                const NetworkModel& hybrid_model);

}  // namespace leosim::core
