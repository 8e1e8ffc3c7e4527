// TraceRecorder: scoped/complete spans, instants, counters, and async
// request timelines, exported as Chrome trace_event JSON so any
// serpsched/bench/serving run can be opened in chrome://tracing or
// https://ui.perfetto.dev (see docs/observability.md for the span
// taxonomy and a workflow walkthrough).
//
// Two clock domains, rendered as two trace "processes":
//   * pid 1, the WALL clock — CPU work (scheduler builds, repairs),
//     stamped from a steady_clock anchored at recorder construction;
//   * pid 2, the VIRTUAL clock — simulated drive/library time (drive ops,
//     backoff waits, batch service, request lifetimes), stamped by the
//     caller in virtual seconds since its own zero.
//
// Threading: events land in per-thread buffers (one mutex acquisition per
// thread lifetime, lock-free appends afterwards) and are merged at
// flush — concatenated in thread-registration order, then stably sorted
// by timestamp, so the export is deterministic whenever the recorded
// timestamps are.
//
// Disabled-path contract: instrumentation sites consult the ambient
// TraceRecorder::active() pointer — one relaxed atomic load when no
// recorder is installed (the default), and recording never feeds back
// into simulated timing, so traced and untraced runs are bit-identical
// (pinned by tests/obs_test.cc).
#ifndef SERPENTINE_OBS_TRACE_H_
#define SERPENTINE_OBS_TRACE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serpentine/util/status.h"

namespace serpentine::obs {

/// Which trace process an event belongs to (doubles as the pid).
enum class TraceClock : int {
  kWall = 1,     ///< CPU time (steady_clock since recorder construction).
  kVirtual = 2,  ///< Simulated time (caller-stamped virtual seconds).
};

/// One recorded trace event (internal representation; the exporter turns
/// these into trace_event JSON objects).
struct TraceEvent {
  char ph = 'X';             ///< 'X' complete, 'i' instant, 'C' counter,
                             ///< 'b'/'e' async begin/end.
  TraceClock clock = TraceClock::kWall;
  const char* category = "";  ///< Static-storage category string.
  std::string name;
  int64_t ts_us = 0;
  int64_t end_us = 0;        ///< 'X' only; dur = end - ts.
  int64_t id = 0;            ///< 'b'/'e' only.
  double value = 0.0;        ///< 'C' only.
  std::string args_json;     ///< Preformatted JSON object ("{...}"), or "".
};

class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Wall-clock seconds since this recorder was constructed (the wall
  /// domain's time base).
  double WallSeconds() const;

  /// Records a completed span covering [start_seconds, end_seconds] in
  /// `clock`'s domain on the calling thread's track. Timestamps convert to
  /// microseconds monotonically, so span containment in seconds is
  /// preserved exactly in the exported trace.
  void CompleteEvent(TraceClock clock, const char* category, std::string name,
                     double start_seconds, double end_seconds,
                     std::string args_json = std::string());

  /// Records a zero-duration instant (thread-scoped).
  void InstantEvent(TraceClock clock, const char* category, std::string name,
                    double at_seconds, std::string args_json = std::string());

  /// Records one sample of a counter track (rendered as a stacked area
  /// chart in the trace viewer — e.g. queue depth over time).
  void CounterEvent(TraceClock clock, std::string name, double at_seconds,
                    double value);

  /// Async span endpoints: spans that may overlap freely (one per request
  /// in flight), matched by (category, id).
  void AsyncBegin(TraceClock clock, const char* category, std::string name,
                  int64_t id, double at_seconds,
                  std::string args_json = std::string());
  void AsyncEnd(TraceClock clock, const char* category, std::string name,
                int64_t id, double at_seconds);

  /// Total events recorded so far (merges nothing; sums buffer sizes).
  int64_t event_count() const;

  /// The merged trace as a Chrome trace_event JSON document:
  /// {"traceEvents":[...]} with process/thread metadata. Safe to call
  /// while other threads still record (they keep their buffers; events
  /// recorded after the call may be missed).
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  serpentine::Status WriteJson(const std::string& path) const;

  /// The ambient recorder instrumentation sites record into, or nullptr
  /// (the default: tracing disabled). The active recorder must outlive its
  /// installation; destroying it deactivates it.
  static TraceRecorder* active();
  static void SetActive(TraceRecorder* recorder);

 private:
  struct ThreadBuffer {
    int tid = 0;
    /// Guards `events` for the (rare) cross-thread read at flush; appends
    /// by the owning thread take it uncontended.
    std::mutex mu;
    std::vector<TraceEvent> events;
  };

  /// The calling thread's buffer, registering it on first use.
  ThreadBuffer& Buffer();
  void Append(TraceEvent event);

  const uint64_t generation_;  ///< Distinguishes recorders for TLS reuse.

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  int64_t wall_epoch_ns_ = 0;
};

/// RAII wall-clock span against the ambient recorder: zero work beyond one
/// relaxed atomic load when tracing is disabled. The category must have
/// static storage; the name is copied.
class ScopedSpan {
 public:
  ScopedSpan(const char* category, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;
  const char* category_;
  std::string name_;
  double start_seconds_ = 0.0;
};

/// Hook helpers: record into the active recorder if one is installed;
/// no-ops otherwise.
inline void TraceComplete(TraceClock clock, const char* category,
                          std::string name, double start_seconds,
                          double end_seconds,
                          std::string args_json = std::string()) {
  if (TraceRecorder* r = TraceRecorder::active()) {
    r->CompleteEvent(clock, category, std::move(name), start_seconds,
                     end_seconds, std::move(args_json));
  }
}
inline void TraceInstant(TraceClock clock, const char* category,
                         std::string name, double at_seconds,
                         std::string args_json = std::string()) {
  if (TraceRecorder* r = TraceRecorder::active()) {
    r->InstantEvent(clock, category, std::move(name), at_seconds,
                    std::move(args_json));
  }
}
inline void TraceCounter(TraceClock clock, std::string name, double at_seconds,
                         double value) {
  if (TraceRecorder* r = TraceRecorder::active()) {
    r->CounterEvent(clock, std::move(name), at_seconds, value);
  }
}

}  // namespace serpentine::obs

#endif  // SERPENTINE_OBS_TRACE_H_
