// In-memory span log for the benchmark's traced replay. Spans are opened
// around calls into the library's layers, from the benchmark's own code,
// on one thread; they nest strictly, so a span's parent is the innermost
// span still open. A span's self time is its duration minus the time its
// children cover. Nothing is written out until the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  struct Stats {
    std::string name;
    uint64_t calls{0};
    double total_ns{0.0};
    double self_ns{0.0};
    std::vector<double> durations_ns;  // one per call, in call order
  };

  // RAII span. The name may be set after the call it wraps has run
  // (BuildOrStepSnapshot is a build or a step, known only afterwards).
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), name_(name) {
      log_.Open();
    }
    ~Scope() { log_.Close(name_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_name(const char* name) { name_ = name; }

   private:
    SpanLog& log_;
    const char* name_;
  };

  void Open() { open_.push_back({NowNs(), 0}); }

  void Close(const char* name) {
    const Frame frame = open_.back();
    open_.pop_back();
    const double duration = static_cast<double>(NowNs() - frame.start_ns);
    Stats& stats = StatsFor(name);
    ++stats.calls;
    stats.total_ns += duration;
    stats.self_ns += duration - static_cast<double>(frame.child_ns);
    stats.durations_ns.push_back(duration);
    if (!open_.empty()) {
      open_.back().child_ns += static_cast<int64_t>(duration);
    }
  }

  // Stats for `name`, or an empty record when the span never ran.
  const Stats& Get(const std::string& name) const {
    for (const Stats& s : stats_) {
      if (s.name == name) {
        return s;
      }
    }
    return empty_;
  }

  const std::vector<Stats>& all() const { return stats_; }

 private:
  struct Frame {
    int64_t start_ns;
    int64_t child_ns;
  };

  Stats& StatsFor(const char* name) {
    for (Stats& s : stats_) {
      if (s.name == name) {
        return s;
      }
    }
    stats_.push_back({name, 0, 0.0, 0.0, {}});
    return stats_.back();
  }

  std::vector<Frame> open_;
  std::vector<Stats> stats_;
  Stats empty_;
};

}  // namespace perfbench
