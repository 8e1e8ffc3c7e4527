#include "serpentine/sim/online_server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "serpentine/sim/serving_core.h"
#include "serpentine/tsp/exact.h"
#include "serpentine/tsp/ltsp.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {
namespace {

/// The largest batch `algorithm` can schedule, or 0 for no limit.
int64_t BatchLimit(sched::Algorithm algorithm) {
  switch (algorithm) {
    case sched::Algorithm::kOpt:
      return tsp::kMaxHeldKarpCities;
    case sched::Algorithm::kLtsp:
      return tsp::kMaxLtspCities;
    default:
      return 0;
  }
}

}  // namespace

Status ValidateOnlineServerConfig(const OnlineServerConfig& config) {
  if (!std::isfinite(config.arrival_rate_per_hour) ||
      config.arrival_rate_per_hour <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: arrival_rate_per_hour must be finite and > 0, "
        "got " +
        std::to_string(config.arrival_rate_per_hour));
  }
  if (config.total_requests < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: total_requests must be >= 1, got " +
        std::to_string(config.total_requests));
  }
  // The per-request async-span id packs (seed << 32) | arrival index; an
  // index at or above 2^32 would silently bleed into the seed bits and
  // alias another run's ids, so reject it here instead.
  if (config.total_requests >= (int64_t{1} << 32)) {
    return InvalidArgumentError(
        "OnlineServerConfig: total_requests must be < 2^32 (async-span ids "
        "pack the arrival index into 32 bits), got " +
        std::to_string(config.total_requests));
  }
  if (config.dispatch_min_batch < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_min_batch must be >= 1, got " +
        std::to_string(config.dispatch_min_batch));
  }
  // Infinity means "no wait bound" and is the default; NaN and non-positive
  // waits would make the dispatch policy undecidable.
  if (std::isnan(config.dispatch_max_wait_seconds) ||
      config.dispatch_max_wait_seconds <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_max_wait_seconds must be > 0 (inf = "
        "no bound), got " +
        std::to_string(config.dispatch_max_wait_seconds));
  }
  SERPENTINE_RETURN_IF_ERROR(drive::ValidateFaultProfile(config.faults));

  if (config.dispatch_max_batch < 0) {
    return InvalidArgumentError(
        "OnlineServerConfig: dispatch_max_batch must be >= 0 (0 = "
        "unbounded), got " +
        std::to_string(config.dispatch_max_batch));
  }
  if (config.priority_classes < 1) {
    return InvalidArgumentError(
        "OnlineServerConfig: priority_classes must be >= 1, got " +
        std::to_string(config.priority_classes));
  }
  if (std::isnan(config.deadline_seconds) || config.deadline_seconds <= 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: deadline_seconds must be > 0 (inf = no "
        "deadlines), got " +
        std::to_string(config.deadline_seconds));
  }
  if (!std::isfinite(config.deadline_spread) || config.deadline_spread < 0.0) {
    return InvalidArgumentError(
        "OnlineServerConfig: deadline_spread must be finite and >= 0, got " +
        std::to_string(config.deadline_spread));
  }
  if (config.max_wait_cycles < 0) {
    return InvalidArgumentError(
        "OnlineServerConfig: max_wait_cycles must be >= 0 (0 = unbounded), "
        "got " +
        std::to_string(config.max_wait_cycles));
  }
  if (config.admission.max_queue_depth < 0) {
    return InvalidArgumentError(
        "AdmissionPolicy: max_queue_depth must be >= 0 (0 = unbounded), "
        "got " +
        std::to_string(config.admission.max_queue_depth));
  }
  if (config.degradation.enabled && config.degradation.queue_depth_step < 0) {
    return InvalidArgumentError(
        "DegradationPolicy: queue_depth_step must be >= 0 (0 = disabled), "
        "got " +
        std::to_string(config.degradation.queue_depth_step));
  }
  if (config.breaker_enabled) {
    SERPENTINE_RETURN_IF_ERROR(drive::ValidateBreakerPolicy(config.breaker));
  }

  // OPT and LTSP are exact: each refuses a batch above its solver's
  // limit, and the serving loop cannot recover from a refused build.
  // Reject any config that can hand one a larger batch. Only the dispatch
  // cap bounds a batch below the stream length, and only without an aging
  // bound, whose forced boarding can exceed it. The degradation ladder
  // holds neither and replaces the algorithm.
  const int64_t limit = BatchLimit(config.algorithm);
  int64_t max_batch = config.total_requests;
  if (config.dispatch_max_batch > 0 && config.max_wait_cycles == 0) {
    max_batch = std::min<int64_t>(max_batch, config.dispatch_max_batch);
  }
  if (limit > 0 && max_batch > limit && !config.degradation.enabled) {
    return InvalidArgumentError(
        "OnlineServerConfig: algorithm " +
        std::string(sched::AlgorithmName(config.algorithm)) +
        " schedules at most " + std::to_string(limit) +
        " requests per batch, but a batch can hold " +
        std::to_string(max_batch) + " (total_requests = " +
        std::to_string(config.total_requests) + ", dispatch_max_batch = " +
        std::to_string(config.dispatch_max_batch) + ", max_wait_cycles = " +
        std::to_string(config.max_wait_cycles) +
        "); bound a batch with dispatch_max_batch <= " +
        std::to_string(limit) +
        " and max_wait_cycles = 0, or with total_requests <= " +
        std::to_string(limit));
  }
  return OkStatus();
}

StatusOr<OnlineServerResult> RunOnlineServer(const tape::LocateModel& model,
                                             const OnlineServerConfig& config) {
  SERPENTINE_RETURN_IF_ERROR(ValidateOnlineServerConfig(config));
  const tape::TapeGeometry& g = model.geometry();

  // Pre-generate the Poisson arrival stream, then crank the serving
  // engine through it one arrival at a time (the fleet layer drives the
  // same engine, which is what pins a 1-library fleet to this function's
  // results).
  std::vector<ServingRequest> arrivals =
      GenerateOnlineArrivals(config, g.total_segments());

  ServingCore core(std::vector<const tape::LocateModel*>{&model}, config,
                   /*fault_stream=*/config.seed);
  for (const ServingRequest& a : arrivals) {
    while (core.Step() == ServingStep::kRan) {
    }
    core.Push(a);
  }
  core.FinishInput();
  while (core.Step() == ServingStep::kRan) {
  }
  SERPENTINE_CHECK(core.Step() == ServingStep::kDone);
  core.FinishResult();

  OnlineServerResult result = core.result();

  SERPENTINE_CHECK_EQ(result.shed + result.completed + result.failed,
                      config.total_requests);
  SERPENTINE_CHECK_EQ(result.arrivals, config.total_requests);

  FinalizeOnlineServerResult(&result, &core.responses(), core.batch_sum(),
                             core.clock(),
                             arrivals.empty() ? 0.0 : arrivals[0].time);
  return result;
}

}  // namespace serpentine::sim
