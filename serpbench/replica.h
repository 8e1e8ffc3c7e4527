// Bench-side replicas of the two entry points, with a wall-clock lap at
// every call into a layer. They call the same public layer
// functions in the same order as sim::SimulatePoint (single-threaded) and
// fleet::RunFleet, so their simulated results must equal the entry
// points' field for field; serpbench checks that on every traced run.
//
// Timing is by call site and never nested: a layer's seconds are the time
// spent inside the calls the replica makes into it. ServingCore::Step
// builds and executes schedules internally, so on the serving workloads
// sched and drive time is part of sim.dispatch.
#ifndef SERPBENCH_REPLICA_H_
#define SERPBENCH_REPLICA_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/request.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpbench {

/// The timed call sites, named after the repository's modules.
enum class Layer {
  kGen,           ///< arrival / request generation
  kCatalogBuild,  ///< fleet validation, replica catalog build + teardown
  kAdmit,         ///< Push (+ depth gauge), input bounds, idle Steps
  kEstimate,      ///< catalog lookup + per-replica service-time bids
  kRoute,         ///< the router's decision
  kDispatch,      ///< Step runs that dispatched (build + execute inside)
  kBuild,         ///< sched::BuildSchedule
  kExecute,       ///< sim::ExecuteSchedule over the drive stack
  kFinalize,      ///< result folding and percentile sorts
};
inline constexpr int kNumLayers = 9;

/// "workload.gen", "fleet.estimate", ... (metric name prefixes).
const char* LayerName(Layer layer);

/// Per-layer wall seconds and call counts, plus optional spans into a
/// private TraceRecorder (never installed as the ambient one, so the
/// library itself stays on its untraced path).
///
/// Timing is by laps: contiguous regions, one clock read each. Mark
/// starts a chain; each Lap charges the time since the previous Mark or
/// Lap to a layer, so the replica's own lines between two calls (copying
/// a routed request, folding a trial's result) go to the call that follows
/// them. Span recording stays outside every lap.
class LayerClock {
 public:
  /// `recorder` is borrowed and may be null (no spans).
  explicit LayerClock(serpentine::obs::TraceRecorder* recorder = nullptr)
      : epoch_(std::chrono::steady_clock::now()), recorder_(recorder) {}

  /// Seconds since construction.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  /// Starts a chain of laps; returns its time.
  double Mark() { return mark_ = Now(); }

  /// Charges the time since the last Mark or Lap, and `calls` calls, to
  /// `layer`. Dispatches always get a span; other layers only while call
  /// spans are on.
  void Lap(Layer layer, int64_t calls = 1) {
    const double now = Now();
    mark_ = Charge(layer, mark_, now, calls) ? Now() : now;
  }

  /// Counts calls made inside a region charged elsewhere.
  void Count(Layer layer, int64_t calls) {
    calls_[static_cast<int>(layer)] += calls;
  }

  /// A span that charges no layer (the per-arrival parent of its calls).
  void Span(const char* name, double start, double end,
            std::string args_json = std::string());

  void set_call_spans(bool on) { call_spans_ = on && recorder_ != nullptr; }

  double seconds(Layer layer) const {
    return seconds_[static_cast<int>(layer)];
  }
  int64_t calls(Layer layer) const { return calls_[static_cast<int>(layer)]; }

 private:
  /// Adds [start, end] to `layer`; returns whether a span was recorded.
  bool Charge(Layer layer, double start, double end, int64_t calls);

  std::chrono::steady_clock::time_point epoch_;
  serpentine::obs::TraceRecorder* recorder_;
  bool call_spans_ = false;
  double mark_ = 0.0;
  std::array<double, kNumLayers> seconds_{};
  std::array<int64_t, kNumLayers> calls_{};
};

/// What the batch replica adds to SimulatePoint's statistics.
struct BatchReplicaResult {
  serpentine::sim::PointStats stats;
  /// Completion time of every read, from the moment its batch was
  /// submitted (all of a batch's requests arrive together).
  std::vector<double> responses;
  /// Virtual phase split of every executed schedule.
  double locate_seconds = 0.0;
  double read_seconds = 0.0;
  double busy_seconds = 0.0;
};

/// SimulatePoint(model, model, algorithm, n, trials, start_at_bot=false,
/// seed, {}, {.threads = 1}), call for call, with per-trial accumulators
/// folded in trial order as SimulatePoint does. Only
/// mean_schedule_cpu_seconds (a wall measurement) may differ.
BatchReplicaResult ReplaySimulatePoint(
    const serpentine::tape::LocateModel& model,
    serpentine::sched::Algorithm algorithm, int n, int64_t trials,
    int32_t seed, LayerClock& clock);

/// Arrivals that get per-call spans; dispatch spans cover the whole run.
inline constexpr int64_t kSpannedArrivals = 1000;

/// fleet::RunFleet, call for call.
serpentine::StatusOr<serpentine::fleet::FleetResult> ReplayRunFleet(
    const serpentine::fleet::Fleet& fleet,
    const serpentine::fleet::FleetConfig& config, LayerClock& clock);

}  // namespace serpbench

#endif  // SERPBENCH_REPLICA_H_
