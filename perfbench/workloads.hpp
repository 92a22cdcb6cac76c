// Study outputs, their digests, and the traced replays of the study slot
// loops, shared by the benchmark driver (driver.cpp) and the replays
// (replay.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/churn_study.hpp"
#include "core/latency_study.hpp"
#include "core/net_trace.hpp"
#include "core/network_builder.hpp"
#include "core/throughput_study.hpp"
#include "core/traffic_matrix.hpp"
#include "spans.hpp"

namespace perfbench {

// Paths per pair in the Fig. 4 throughput sweep.
inline constexpr int kFig4Paths = 4;

// figs_15min: the latency study (Fig. 2) and the k=4 throughput sweep
// (Fig. 4) on the bent-pipe and hybrid models.
struct FigsOutput {
  leosim::core::LatencyStudyResult latency;
  std::vector<leosim::core::ThroughputResult> bp_throughput;
  std::vector<leosim::core::ThroughputResult> hybrid_throughput;
};

// churn_10s / trace_10s: aggregate route churn, plus the trace bytes
// when the network-state recorder is on.
struct ChurnOutput {
  leosim::core::AggregateChurn churn;
  uint64_t trace_bytes{0};
  bool validate_ok{true};
  std::string validate_why;
};

// FNV-1a over the bit patterns of the values added, so a digest moves
// on any change of value (a 1-ulp change included) and on no change of
// text formatting.
class Digest {
 public:
  void Add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    AddBits(bits);
  }
  void Add(int64_t v) { AddBits(static_cast<uint64_t>(v)); }
  void Add(int v) { AddBits(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { AddBits(v ? 1 : 0); }
  std::string Hex() const;

 private:
  void AddBits(uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t hash_{0xcbf29ce484222325ULL};
};

// Pair-slot RTTs of both latency series.
std::string DigestLatency(const leosim::core::LatencyStudyResult& r);
// Per-slot Fig. 4 results of both models.
std::string DigestThroughput(const FigsOutput& out);
// The aggregate churn values.
std::string DigestChurn(const leosim::core::AggregateChurn& c);
// Every captured SlotRecord of the global trace recorder: node positions,
// links and study events, as values rather than serialized text.
std::string DigestTrace();

// Work counts the replay reads from its own workspaces and results.
struct ReplayCounters {
  uint64_t tree_reuses{0};
  int64_t subflows{0};
};

// Traced replays: the slot loop of each study, one thread, through the
// same public calls the study makes, with a span around each call. The
// outputs are bit-identical to the study's at any thread count.
FigsOutput ReplayFigs(const leosim::core::NetworkModel& bp,
                      const leosim::core::NetworkModel& hybrid,
                      const std::vector<leosim::core::CityPair>& pairs,
                      const leosim::core::SnapshotSchedule& schedule,
                      SpanLog& log, ReplayCounters* counters);

// With `export_trace` the replay captures every slot into the global
// recorder (as RunAggregateChurnStudy does when it is enabled), then
// serializes and validates it as the trace_10s workload does.
ChurnOutput ReplayChurn(const leosim::core::NetworkModel& model,
                        const std::vector<leosim::core::CityPair>& pairs,
                        const leosim::core::SnapshotSchedule& schedule,
                        bool export_trace, SpanLog& log,
                        ReplayCounters* counters);

}  // namespace perfbench
