#include "core/net_trace.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/mutex.hpp"
#include "core/thread_annotations.hpp"
#include "obs/json_number.hpp"
#include "obs/metrics.hpp"
#include "obs/schemas.hpp"
#include "obs/trace.hpp"

namespace leosim::core {

namespace {

using Link = NetTraceRecorder::Link;
using SlotRecord = NetTraceRecorder::SlotRecord;
using StudyEvent = NetTraceRecorder::StudyEvent;

// Recorder state, owned file-locally so the header stays a pure
// interface. Never destroyed: sweep workers may capture past static
// destruction order, same as the obs recorders.
struct RecorderState {
  std::atomic<bool> enabled{false};
  // Published once SetTimeline has sized `slots`; CaptureSlot reads it
  // with acquire so the vector is fully constructed before any worker
  // indexes into it lock-free.
  std::atomic<int> num_slots{0};
  Mutex mutex;
  bool timeline_set LEOSIM_GUARDED_BY(mutex) = false;
  std::vector<SlotRecord> slots;
};

RecorderState& State() {
  static RecorderState* state = new RecorderState();
  return *state;
}

obs::Counter& SlotsCapturedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.slots_captured");
  return *counter;
}

obs::Counter& CapturesDroppedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.captures_dropped");
  return *counter;
}

obs::Counter& EventsEmittedCounter() {
  static obs::Counter* counter =
      &obs::MetricsRegistry::Global().GetCounter("nettrace.events_emitted");
  return *counter;
}

// Per-call wall time of the trace layer's phases, in microseconds: one
// span per CaptureSlot, per serializer call and per ValidateReplay, so a
// profile of a traced run attributes the trace cost without help from
// the caller. Bounds reach ~8 s, the serialization of a long sweep.
obs::Histogram& PhaseHistogram(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(
      name, obs::Histogram::ExponentialBounds(1.0, 2.0, 24));
}

obs::Histogram& CaptureHistogram() {
  static obs::Histogram* histogram = &PhaseHistogram("nettrace.capture_us");
  return *histogram;
}

obs::Histogram& SerializeHistogram() {
  static obs::Histogram* histogram = &PhaseHistogram("nettrace.serialize_us");
  return *histogram;
}

obs::Histogram& ValidateHistogram() {
  static obs::Histogram* histogram = &PhaseHistogram("nettrace.validate_us");
  return *histogram;
}

bool BitsEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool BitsEqual(const geo::Vec3& a, const geo::Vec3& b) {
  return BitsEqual(a.x, b.x) && BitsEqual(a.y, b.y) && BitsEqual(a.z, b.z);
}

using obs::AppendJsonNumber;

void AppendInt(std::string* out, int64_t value) {
  char buf[24];
  char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  out->append(buf, end);
}

void AppendVec3Array(std::string* out, const geo::Vec3* begin, size_t count) {
  out->push_back('[');
  for (size_t i = 0; i < count; ++i) {
    if (i != 0) {
      out->push_back(',');
    }
    out->push_back('[');
    AppendJsonNumber(out, begin[i].x);
    out->push_back(',');
    AppendJsonNumber(out, begin[i].y);
    out->push_back(',');
    AppendJsonNumber(out, begin[i].z);
    out->push_back(']');
  }
  out->push_back(']');
}

void AppendIntArray(std::string* out, const std::vector<int32_t>& values) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) {
      out->push_back(',');
    }
    AppendInt(out, values[i]);
  }
  out->push_back(']');
}

void AppendLink(std::string* out, const Link& link, const char* type) {
  out->push_back('[');
  AppendInt(out, link.a);
  out->push_back(',');
  AppendInt(out, link.b);
  out->push_back(',');
  AppendJsonNumber(out, link.delay_ms);
  out->push_back(',');
  AppendJsonNumber(out, link.capacity_gbps);
  out->append(",\"");
  out->append(type);
  out->append("\"]");
}

void AppendStudyEvent(std::string* out, const StudyEvent& event) {
  switch (event.kind) {
    case StudyEvent::Kind::kRouteChange:
      out->append("[\"route_change\",");
      AppendInt(out, event.pair);
      out->push_back(',');
      AppendJsonNumber(out, event.rtt_ms);
      out->push_back(',');
      AppendIntArray(out, event.nodes);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kReachable:
      out->append("[\"reachable\",");
      AppendInt(out, event.pair);
      out->push_back(',');
      AppendJsonNumber(out, event.rtt_ms);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kUnreachable:
      out->append("[\"unreachable\",");
      AppendInt(out, event.pair);
      out->push_back(']');
      break;
    case StudyEvent::Kind::kHandover:
      out->append("[\"handover\",");
      AppendIntArray(out, event.nodes);
      out->push_back(',');
      AppendIntArray(out, event.nodes2);
      out->push_back(']');
      break;
  }
}

// One link-level delta between two consecutive captured slots, split by
// type so the replayer can maintain the radio and ISL sections
// independently.
struct LinkDiff {
  std::vector<Link> radio_down;
  std::vector<Link> radio_up;
  std::vector<Link> radio_weight;
  std::vector<Link> isl_down;
  std::vector<Link> isl_up;
  std::vector<Link> isl_weight;

  size_t Total() const {
    return radio_down.size() + radio_up.size() + radio_weight.size() +
           isl_down.size() + isl_up.size() + isl_weight.size();
  }
};

// A link's (a, b) as one 64-bit key. Node ids are non-negative, so the
// unsigned packing orders keys exactly as std::pair(a, b) would.
uint64_t Key(const Link& link) {
  return uint64_t{static_cast<uint32_t>(link.a)} << 32 |
         static_cast<uint32_t>(link.b);
}

// A closure, not a function, so std::sort inlines the comparison.
constexpr auto KeyLess = [](const Link& x, const Link& y) {
  return Key(x) < Key(y);
};

// Merge-walks two (a, b)-sorted link lists. A capacity change is a
// down+up (the link was replaced, not retuned); a delay-only change is
// a weight event. Comparisons are bit-exact so the diff stream carries
// exactly the information the replay invariant needs.
void DiffLinks(const std::vector<Link>& prev, const std::vector<Link>& cur,
               std::vector<Link>* down, std::vector<Link>* up,
               std::vector<Link>* weight) {
  size_t i = 0;
  size_t j = 0;
  while (i < prev.size() || j < cur.size()) {
    const bool take_prev =
        j == cur.size() || (i < prev.size() && KeyLess(prev[i], cur[j]));
    const bool take_cur =
        i == prev.size() || (j < cur.size() && KeyLess(cur[j], prev[i]));
    if (take_prev) {
      down->push_back(prev[i]);
      ++i;
    } else if (take_cur) {
      up->push_back(cur[j]);
      ++j;
    } else {
      if (!BitsEqual(prev[i].capacity_gbps, cur[j].capacity_gbps)) {
        down->push_back(prev[i]);
        up->push_back(cur[j]);
      } else if (!BitsEqual(prev[i].delay_ms, cur[j].delay_ms)) {
        weight->push_back(cur[j]);
      }
      ++i;
      ++j;
    }
  }
}

LinkDiff ComputeDiff(const SlotRecord& prev, const SlotRecord& cur) {
  LinkDiff diff;
  DiffLinks(prev.radio_links, cur.radio_links, &diff.radio_down,
            &diff.radio_up, &diff.radio_weight);
  DiffLinks(prev.isl_links, cur.isl_links, &diff.isl_down, &diff.isl_up,
            &diff.isl_weight);
  return diff;
}

// The netevents stream only re-sends satellite and aircraft positions;
// cities and relays are declared static in slot 0's keyframe. A model
// change that starts moving them must bump the schema, and this check
// turns that omission into a hard error instead of a silently
// unreplayable trace.
void CheckStaticGroundNodes(const SlotRecord& prev, const SlotRecord& cur) {
  if (prev.num_cities != cur.num_cities || prev.num_relays != cur.num_relays) {
    throw std::logic_error(
        "netevents/1 assumes a fixed city/relay count across slots");
  }
  const size_t prev_base = static_cast<size_t>(prev.num_sats);
  const size_t cur_base = static_cast<size_t>(cur.num_sats);
  const size_t ground = static_cast<size_t>(cur.num_cities + cur.num_relays);
  for (size_t i = 0; i < ground; ++i) {
    if (!BitsEqual(prev.node_ecef[prev_base + i], cur.node_ecef[cur_base + i])) {
      throw std::logic_error(
          "netevents/1 assumes static city/relay positions across slots");
    }
  }
}

// Applies one slot's delta to a replayed link list in place, in linear
// time. `down`, `up` and `weight` are (a, b)-sorted, as DiffLinks emits
// them; per key the downs apply first, then the ups, then the weights,
// so a capacity change (down+up of one key) replaces the link. A forward
// pass drops the downs, then a backward pass merges the ups in from the
// end of the grown list. Neither pass overwrites a link it has yet to
// read, so replay holds one copy of each list, as a fresh capture does.
void ApplyDiff(const std::vector<Link>& down, const std::vector<Link>& up,
               const std::vector<Link>& weight, std::vector<Link>* links) {
  std::vector<Link>& list = *links;
  size_t kept = 0;
  size_t d = 0;
  for (const Link& link : list) {
    if (d < down.size() && Key(down[d]) <= Key(link)) {
      if (Key(down[d]) < Key(link)) {
        break;  // that down names a link the list does not hold
      }
      ++d;
      continue;
    }
    list[kept++] = link;
  }
  if (d < down.size()) {
    throw std::logic_error("replay: link_down for a link that is not up");
  }
  list.resize(kept + up.size());
  // Backward: `out - r` equals the ups still to place, so out >= r.
  size_t r = kept;
  size_t out = list.size();
  size_t u = up.size();
  size_t w = weight.size();
  while (u > 0 || w > 0) {
    const uint64_t key = std::max(u > 0 ? Key(up[u - 1]) : 0,
                                  w > 0 ? Key(weight[w - 1]) : 0);
    while (r > 0 && Key(list[r - 1]) > key) {
      list[--out] = list[--r];
    }
    bool present = r > 0 && Key(list[r - 1]) == key;
    Link link = present ? list[--r] : Link{};
    for (; u > 0 && Key(up[u - 1]) == key; --u) {
      if (present) {
        throw std::logic_error("replay: link_up for a link that is already up");
      }
      link = up[u - 1];
      present = true;
    }
    // DiffLinks emits at most one weight event per key.
    if (w > 0 && Key(weight[w - 1]) == key) {
      if (!present) {
        throw std::logic_error(
            "replay: weight event for a link that is not up");
      }
      link.delay_ms = weight[--w].delay_ms;
    }
    if (present) {
      list[--out] = link;
    }
  }
}

std::string DescribeMismatch(int slot, const char* what) {
  std::string out = "slot ";
  AppendInt(&out, slot);
  out.append(": replayed ");
  out.append(what);
  out.append(" diverges from the stored capture");
  return out;
}

}  // namespace

NetTraceRecorder& NetTraceRecorder::Global() {
  static NetTraceRecorder* recorder = new NetTraceRecorder();
  return *recorder;
}

bool NetTraceRecorder::Enabled() const {
  return State().enabled.load(std::memory_order_relaxed);
}

void NetTraceRecorder::Enable(bool enabled) {
  State().enabled.store(enabled, std::memory_order_relaxed);
}

void NetTraceRecorder::SetTimeline(const std::vector<double>& times_sec) {
  RecorderState& state = State();
  const MutexLock lock(state.mutex);
  if (state.timeline_set) {
    return;  // first sweep wins; see the header contract
  }
  state.timeline_set = true;
  state.slots.assign(times_sec.size(), SlotRecord{});
  for (size_t i = 0; i < times_sec.size(); ++i) {
    state.slots[i].time_sec = times_sec[i];
  }
  state.num_slots.store(static_cast<int>(times_sec.size()),
                        std::memory_order_release);
}

int NetTraceRecorder::NumSlots() const {
  return State().num_slots.load(std::memory_order_acquire);
}

void NetTraceRecorder::CaptureSlot(int slot, double time_sec,
                                   const NetworkModel::Snapshot& snapshot) {
  const obs::Span span("nettrace.capture", &CaptureHistogram());
  RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  if (slot < 0 || slot >= num_slots) {
    CapturesDroppedCounter().Increment();
    return;
  }
  SlotRecord& record = state.slots[static_cast<size_t>(slot)];
  record.time_sec = time_sec;
  record.num_sats = snapshot.num_sats;
  record.num_cities = snapshot.num_cities;
  record.num_relays = snapshot.num_relays;
  record.num_aircraft = snapshot.num_aircraft;
  record.node_ecef = snapshot.node_ecef;
  record.radio_links.clear();
  record.isl_links.clear();
  const auto capture_edges = [&](const std::vector<graph::EdgeId>& ids,
                                 std::vector<Link>* out) {
    out->reserve(ids.size());
    for (const graph::EdgeId e : ids) {
      if (snapshot.graph.IsTombstone(e) || !snapshot.graph.IsEnabled(e)) {
        continue;
      }
      const graph::EdgeRecord& rec = snapshot.graph.Edge(e);
      Link link;
      link.a = std::min(rec.a, rec.b);
      link.b = std::max(rec.a, rec.b);
      link.delay_ms = rec.weight;
      link.capacity_gbps = rec.capacity;
      out->push_back(link);
    }
    std::sort(out->begin(), out->end(), KeyLess);
  };
  capture_edges(snapshot.radio_edges, &record.radio_links);
  capture_edges(snapshot.isl_edges, &record.isl_links);
  record.captured = true;
  SlotsCapturedCounter().Increment();
}

void NetTraceRecorder::AddRouteChange(int slot, int pair, double rtt_ms,
                                      std::vector<int32_t> sorted_path_nodes) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kRouteChange;
  event.pair = pair;
  event.rtt_ms = rtt_ms;
  event.nodes = std::move(sorted_path_nodes);
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddReachable(int slot, int pair, double rtt_ms) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kReachable;
  event.pair = pair;
  event.rtt_ms = rtt_ms;
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddUnreachable(int slot, int pair) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kUnreachable;
  event.pair = pair;
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

void NetTraceRecorder::AddHandover(int slot, std::vector<int32_t> lost,
                                   std::vector<int32_t> gained) {
  RecorderState& state = State();
  if (slot < 0 || slot >= state.num_slots.load(std::memory_order_acquire)) {
    CapturesDroppedCounter().Increment();
    return;
  }
  StudyEvent event;
  event.kind = StudyEvent::Kind::kHandover;
  event.nodes = std::move(lost);
  event.nodes2 = std::move(gained);
  state.slots[static_cast<size_t>(slot)].events.push_back(std::move(event));
}

std::string NetTraceRecorder::NetStateJsonl() const {
  const obs::Span span("nettrace.serialize", &SerializeHistogram());
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  std::string out;
  for (int slot = 0; slot < num_slots; ++slot) {
    const SlotRecord& record = state.slots[static_cast<size_t>(slot)];
    if (!record.captured) {
      continue;
    }
    out.append("{\"schema\":\"");
    out.append(obs::kNetStateSchema);
    out.append("\",\"slot\":");
    AppendInt(&out, slot);
    out.append(",\"t\":");
    AppendJsonNumber(&out, record.time_sec);
    out.append(",\"counts\":[");
    AppendInt(&out, record.num_sats);
    out.push_back(',');
    AppendInt(&out, record.num_cities);
    out.push_back(',');
    AppendInt(&out, record.num_relays);
    out.push_back(',');
    AppendInt(&out, record.num_aircraft);
    out.append("],\"nodes\":[");
    for (size_t n = 0; n < record.node_ecef.size(); ++n) {
      if (n != 0) {
        out.push_back(',');
      }
      const int i = static_cast<int>(n);
      const char* kind = i < record.num_sats ? "sat"
                         : i < record.num_sats + record.num_cities
                             ? "city"
                         : i < record.num_sats + record.num_cities +
                                   record.num_relays
                             ? "relay"
                             : "air";
      out.append("[\"");
      out.append(kind);
      out.append("\",");
      AppendJsonNumber(&out, record.node_ecef[n].x);
      out.push_back(',');
      AppendJsonNumber(&out, record.node_ecef[n].y);
      out.push_back(',');
      AppendJsonNumber(&out, record.node_ecef[n].z);
      out.push_back(']');
    }
    out.append("],\"links\":[");
    bool first = true;
    for (const Link& link : record.radio_links) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendLink(&out, link, "radio");
    }
    for (const Link& link : record.isl_links) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendLink(&out, link, "isl");
    }
    out.append("]}\n");
  }
  return out;
}

std::string NetTraceRecorder::NetEventsJsonl() const {
  return SerializeNetEvents(nullptr);
}

std::string NetTraceRecorder::SerializeNetEvents(uint64_t* events) const {
  const obs::Span span("nettrace.serialize", &SerializeHistogram());
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  std::string out;
  uint64_t count = 0;
  for (int slot = 0; slot < num_slots; ++slot) {
    const SlotRecord& record = state.slots[static_cast<size_t>(slot)];
    out.append("{\"schema\":\"");
    out.append(obs::kNetEventsSchema);
    out.append("\",\"slot\":");
    AppendInt(&out, slot);
    out.append(",\"t\":");
    AppendJsonNumber(&out, record.time_sec);
    const bool has_delta =
        slot > 0 && record.captured &&
        state.slots[static_cast<size_t>(slot - 1)].captured;
    LinkDiff diff;
    if (has_delta) {
      const SlotRecord& prev = state.slots[static_cast<size_t>(slot - 1)];
      CheckStaticGroundNodes(prev, record);
      diff = ComputeDiff(prev, record);
      out.append(",\"sat_ecef\":");
      AppendVec3Array(&out, record.node_ecef.data(),
                      static_cast<size_t>(record.num_sats));
      out.append(",\"air_ecef\":");
      AppendVec3Array(&out,
                      record.node_ecef.data() + record.num_sats +
                          record.num_cities + record.num_relays,
                      static_cast<size_t>(record.num_aircraft));
    }
    out.append(",\"events\":[");
    bool first = true;
    const auto emit_links = [&](const std::vector<Link>& links,
                                const char* name, const char* type,
                                bool with_attrs) {
      for (const Link& link : links) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out.append("[\"");
        out.append(name);
        out.append("\",");
        AppendInt(&out, link.a);
        out.push_back(',');
        AppendInt(&out, link.b);
        if (with_attrs) {
          out.push_back(',');
          AppendJsonNumber(&out, link.delay_ms);
          out.push_back(',');
          AppendJsonNumber(&out, link.capacity_gbps);
          out.append(",\"");
          out.append(type);
          out.push_back('"');
        }
        out.push_back(']');
      }
    };
    // Deterministic order: downs, then ups, then weight changes — radio
    // before ISL within each class, each list (a, b)-sorted. Study
    // events follow in the order the serial study passes added them.
    emit_links(diff.radio_down, "link_down", "radio", false);
    emit_links(diff.isl_down, "link_down", "isl", false);
    emit_links(diff.radio_up, "link_up", "radio", true);
    emit_links(diff.isl_up, "link_up", "isl", true);
    const auto emit_weights = [&](const std::vector<Link>& links) {
      for (const Link& link : links) {
        if (!first) {
          out.push_back(',');
        }
        first = false;
        out.append("[\"weight\",");
        AppendInt(&out, link.a);
        out.push_back(',');
        AppendInt(&out, link.b);
        out.push_back(',');
        AppendJsonNumber(&out, link.delay_ms);
        out.push_back(']');
      }
    };
    emit_weights(diff.radio_weight);
    emit_weights(diff.isl_weight);
    for (const StudyEvent& event : record.events) {
      if (!first) {
        out.push_back(',');
      }
      first = false;
      AppendStudyEvent(&out, event);
    }
    out.append("]}\n");
    count += diff.Total() + record.events.size();
  }
  if (events != nullptr) {
    *events = count;
  }
  return out;
}

bool NetTraceRecorder::WriteTo(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return false;
  }
  const std::string netstate = NetStateJsonl();
  uint64_t events = 0;
  const std::string netevents = SerializeNetEvents(&events);
  EventsEmittedCounter().Add(events);
  const auto write_file = [&](const char* name, const std::string& body) {
    const std::string path = dir + "/" + name;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    const size_t written = std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    return written == body.size();
  };
  return write_file("netstate.jsonl", netstate) &&
         write_file("netevents.jsonl", netevents);
}

bool NetTraceRecorder::ValidateReplay(std::string* why) const {
  const obs::Span span("nettrace.validate", &ValidateHistogram());
  const RecorderState& state = State();
  const int num_slots = state.num_slots.load(std::memory_order_acquire);
  int first = 0;
  while (first < num_slots &&
         !state.slots[static_cast<size_t>(first)].captured) {
    ++first;
  }
  if (first >= num_slots) {
    return true;  // nothing captured → nothing to replay
  }
  // Replayed state, seeded from the first capture.
  SlotRecord replayed = state.slots[static_cast<size_t>(first)];
  for (int slot = first + 1; slot < num_slots; ++slot) {
    const SlotRecord& record = state.slots[static_cast<size_t>(slot)];
    if (!record.captured) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, "stream (gap in captured slots)");
      }
      return false;
    }
    const SlotRecord& prev = state.slots[static_cast<size_t>(slot - 1)];
    const LinkDiff diff = ComputeDiff(prev, record);
    // Apply the delta exactly as a downstream replayer would: replace
    // the moving node positions, merge the events into the link lists.
    try {
      CheckStaticGroundNodes(prev, record);
      replayed.num_aircraft = record.num_aircraft;
      replayed.node_ecef.resize(
          static_cast<size_t>(record.num_sats + record.num_cities +
                              record.num_relays + record.num_aircraft));
      std::copy_n(record.node_ecef.begin(), record.num_sats,
                  replayed.node_ecef.begin());
      std::copy_n(record.node_ecef.begin() + record.num_sats +
                      record.num_cities + record.num_relays,
                  record.num_aircraft,
                  replayed.node_ecef.begin() + record.num_sats +
                      record.num_cities + record.num_relays);
      ApplyDiff(diff.radio_down, diff.radio_up, diff.radio_weight,
                &replayed.radio_links);
      ApplyDiff(diff.isl_down, diff.isl_up, diff.isl_weight,
                &replayed.isl_links);
    } catch (const std::logic_error& error) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, error.what());
      }
      return false;
    }
    replayed.time_sec = record.time_sec;
    // Compare the replayed state against the stored full capture, bit
    // for bit — this is the invariant trace_check.py re-proves from
    // the files alone.
    if (replayed.num_sats != record.num_sats ||
        replayed.num_cities != record.num_cities ||
        replayed.num_relays != record.num_relays ||
        replayed.num_aircraft != record.num_aircraft) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, "node counts");
      }
      return false;
    }
    if (replayed.node_ecef.size() != record.node_ecef.size()) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, "node array size");
      }
      return false;
    }
    for (size_t n = 0; n < record.node_ecef.size(); ++n) {
      if (!BitsEqual(replayed.node_ecef[n], record.node_ecef[n])) {
        if (why != nullptr) {
          *why = DescribeMismatch(slot, "node positions");
        }
        return false;
      }
    }
    const auto links_equal = [](const std::vector<Link>& x,
                                const std::vector<Link>& y) {
      if (x.size() != y.size()) {
        return false;
      }
      for (size_t i = 0; i < x.size(); ++i) {
        if (x[i].a != y[i].a || x[i].b != y[i].b ||
            !BitsEqual(x[i].delay_ms, y[i].delay_ms) ||
            !BitsEqual(x[i].capacity_gbps, y[i].capacity_gbps)) {
          return false;
        }
      }
      return true;
    };
    if (!links_equal(replayed.radio_links, record.radio_links)) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, "radio links");
      }
      return false;
    }
    if (!links_equal(replayed.isl_links, record.isl_links)) {
      if (why != nullptr) {
        *why = DescribeMismatch(slot, "isl links");
      }
      return false;
    }
  }
  return true;
}

void NetTraceRecorder::Reset() {
  RecorderState& state = State();
  const MutexLock lock(state.mutex);
  state.num_slots.store(0, std::memory_order_release);
  state.slots.clear();
  state.timeline_set = false;
}

const NetTraceRecorder::SlotRecord& NetTraceRecorder::Slot(int slot) const {
  return State().slots.at(static_cast<size_t>(slot));
}

}  // namespace leosim::core
