// Online serving with overload resilience. The paper evaluates isolated
// batches; a served system must also decide *when* to dispatch a batch
// while requests keep arriving, and it must survive what a benchmark never
// sees — arrival rates past saturation, per-request deadlines, and drives
// that are having a bad week.
//
// RunOnlineServer runs a Poisson arrival stream against one drive through
// sim::ServingCore, the library's one serving loop. Its base is a dispatch
// queue: when the drive is idle and the batch policy fires (enough requests
// pending, or the oldest has waited long enough), every pending request
// boards one batch, scheduled by the configured algorithm. Five layers sit
// on top, every one off by default and every one deterministic (virtual
// clock + seeded rand48 streams, thread-count invariant):
//
//   * priority classes and per-request deadlines, drawn from a rand48
//     stream *separate* from the arrival stream, so enabling them never
//     perturbs arrival times or requested segments;
//   * an admission controller that sheds infeasible work with an explicit
//     Status (never a silent drop): queue-depth caps return
//     ResourceExhausted, and deadline-feasibility checks — a
//     sched::Estimator prediction of the FIFO completion time from the
//     drive's *current head position* — return DeadlineExceeded;
//   * an aging bound: no admitted request waits more than K dispatch
//     cycles, enforced by forcing over-aged requests into the next batch
//     ahead of priority order;
//   * a graceful-degradation ladder that steps the scheduler down
//     (kDegradationRungs: loss-mt-oropt → loss-mt → scan → fifo, via
//     sched::Registry names) as queue depth crosses multiples of a step,
//     recorded as an obs gauge;
//   * a drive::HealthDrive circuit breaker over the fault stack, with
//     RecoveringExecutor waiting out open periods instead of burning its
//     retry budget.
//
// With everything disabled (no deadlines, no admission, no degradation, no
// breaker, zero faults) the server is the plain dispatch queue; a pinned
// test holds it bit-identical to the queue-simulator loop the repository
// keeps as a test oracle (tests/queue_sim_reference.h).
#ifndef SERPENTINE_SIM_ONLINE_SERVER_H_
#define SERPENTINE_SIM_ONLINE_SERVER_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "serpentine/drive/health_drive.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sim {

/// Admission control: decide at arrival time whether a request can be
/// served, and shed it with an explicit Status if not. A request that
/// carries a finite deadline is shed with DeadlineExceeded when now +
/// estimate exceeds that deadline, where the estimate is the FIFO
/// completion time of (pending queue + request) from the drive's current
/// head position.
struct AdmissionPolicy {
  bool enabled = false;
  /// Queue-depth cap: arrivals finding this many requests already pending
  /// are shed with ResourceExhausted. 0 = unbounded.
  int max_queue_depth = 0;
};

/// The degradation ladder, best first, as sched::Registry names.
inline constexpr std::array<const char*, 4> kDegradationRungs = {
    "loss-mt-oropt", "loss-mt", "scan", "fifo"};

/// Graceful degradation: trade schedule quality for scheduling cost as the
/// backlog grows, instead of letting the scheduler itself become the
/// bottleneck. When enabled, rung 0 of kDegradationRungs replaces
/// OnlineServerConfig::algorithm as the baseline scheduler.
struct DegradationPolicy {
  bool enabled = false;
  /// The ladder's only trigger, queue depth: each full multiple of this
  /// many pending requests steps one rung down (clamped to the last rung).
  /// 0 keeps every batch on rung 0.
  int queue_depth_step = 0;
};

struct OnlineServerConfig {
  /// Poisson arrival rate (requests per hour). The unscheduled drive
  /// saturates near 3600 / E[locate] ≈ 44/h; scheduling raises the
  /// sustainable rate severalfold.
  double arrival_rate_per_hour = 60.0;
  /// Simulation length in arrivals. Must stay below 2^32: the per-request
  /// async-span id packs (seed << 32) | arrival index, and the validator
  /// rejects lengths that would wrap the index field.
  int64_t total_requests = 400;
  /// Scheduling algorithm per dispatched batch.
  sched::Algorithm algorithm = sched::Algorithm::kLoss;
  sched::SchedulerOptions scheduler_options;
  /// Dispatch policy: start service when the drive is idle AND (pending >=
  /// dispatch_min_batch OR the oldest pending request has waited
  /// dispatch_max_wait_seconds OR no arrival is left).
  int dispatch_min_batch = 1;
  double dispatch_max_wait_seconds = std::numeric_limits<double>::infinity();
  /// Seed for arrivals and request positions.
  int32_t seed = 1;
  /// Drive/media fault process for batch execution. Every batch runs
  /// through the RecoveringExecutor; all-zero (the default) injects no
  /// fault, and a fault-free locate-then-read walk then advances the clock
  /// request by request, exactly as the queue-simulator loop does. The
  /// fault stream is seeded from (faults.seed, seed), so replications
  /// decorrelate while staying deterministic for any thread count.
  drive::FaultProfile faults;

  /// Cap on requests dispatched per batch; the rest stay queued (and age).
  /// 0 = dispatch all pending. Over-aged requests (see max_wait_cycles)
  /// are always included even past this cap.
  int dispatch_max_batch = 0;

  /// Number of priority classes; class 0 is the most urgent. When > 1 each
  /// arrival draws a uniform class from the online extras stream; when a
  /// batch is capped, lower classes board first.
  int priority_classes = 1;

  /// Base relative deadline: a request arriving at t must complete by
  /// t + deadline_seconds * m, with the multiplier m drawn uniformly from
  /// [1, 1 + deadline_spread] (spread 0 = fixed deadlines). Infinity (the
  /// default) disables deadlines entirely.
  double deadline_seconds = std::numeric_limits<double>::infinity();
  double deadline_spread = 0.0;

  AdmissionPolicy admission;
  DegradationPolicy degradation;

  /// Aging/starvation bound: no admitted request waits more than this many
  /// dispatch cycles before boarding a batch. 0 = unbounded (also the only
  /// meaningful setting when dispatch_max_batch is 0, since uncapped
  /// batches take everything anyway).
  int max_wait_cycles = 0;

  /// Arms a drive::HealthDrive over the execution stack.
  bool breaker_enabled = false;
  drive::BreakerPolicy breaker;
};

/// One shed request: who, when, and the explicit reason. Sheds are never
/// silent — every rejected request is answered with a non-OK Status.
struct ShedRecord {
  int64_t id = 0;
  double arrival_seconds = 0.0;
  int priority = 0;
  Status status;
};

struct OnlineServerResult {
  /// Population accounting; shed + completed + failed == arrivals always
  /// holds (the chaos test asserts it).
  int64_t arrivals = 0;
  int64_t admitted = 0;
  int64_t completed = 0;  ///< answered OK
  int64_t failed = 0;  ///< answered with an error (media / retry exhaustion)
  int64_t shed = 0;    ///< rejected at admission, never dispatched
  /// Admitted requests answered after their deadline (counted in
  /// completed/failed too; a miss is late, not lost).
  int64_t deadline_missed = 0;

  int64_t batches = 0;
  double mean_batch_size = 0.0;
  double makespan_seconds = 0.0;
  double drive_busy_seconds = 0.0;
  double utilization = 0.0;
  /// Response-time statistics over *admitted, answered* requests.
  double mean_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double p99_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  double throughput_per_hour = 0.0;

  /// Fault accounting (all zero when OnlineServerConfig::faults is zero).
  int64_t fault_retries = 0;
  int64_t drive_resets = 0;
  int64_t reschedules = 0;
  int64_t permanent_errors = 0;
  double recovery_seconds = 0.0;

  /// Aging: the largest number of dispatch cycles any boarded request had
  /// waited; < max_wait_cycles whenever the bound is set.
  int max_wait_cycles_observed = 0;

  /// Degradation: batches scheduled below rung 0, and the lowest rung hit.
  int64_t degraded_batches = 0;
  int degradation_max_rung = 0;

  /// Breaker: refusals, virtual seconds spent waiting out open periods,
  /// and the full state-transition history (empty when disarmed).
  int64_t breaker_fast_fails = 0;
  double breaker_wait_seconds = 0.0;
  std::vector<drive::BreakerTransition> breaker_transitions;

  /// Every shed request with its explicit rejection Status, in shed order.
  std::vector<ShedRecord> shed_records;
};

/// Rejects NaN/negative/inconsistent configurations with a descriptive
/// status: a positive finite arrival rate, 1 <= total_requests < 2^32,
/// dispatch_min_batch >= 1, dispatch_max_wait_seconds > 0 (inf allowed,
/// NaN not), valid nested fault and breaker policies, and no exact
/// algorithm that a batch above its solver's limit can reach: more than
/// tsp::kMaxHeldKarpCities requests for OPT, tsp::kMaxLtspCities for LTSP.
Status ValidateOnlineServerConfig(const OnlineServerConfig& config);

/// Runs the online server to completion (every arrival answered or shed).
/// Fails only on an invalid configuration.
StatusOr<OnlineServerResult> RunOnlineServer(const tape::LocateModel& model,
                                             const OnlineServerConfig& config);

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_ONLINE_SERVER_H_
