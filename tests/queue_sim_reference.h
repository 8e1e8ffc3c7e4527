// The queue simulator's serving loop, kept as the test oracle for
// sim::ServingCore.
//
// This is the loop the library shipped as sim::RunQueueSimulation before
// ServingCore became its only serving loop, unchanged apart from its
// namespace, its dropped validation call (callers pass configs that
// sim::ValidateOnlineServerConfig accepts) and its dropped obs hooks: a
// Poisson arrival stream against one drive, dispatched whenever the drive
// is idle and the batch policy (minimum batch size, maximum wait) fires,
// every pending request boarding. It is short and obviously faithful to
// that policy, so sim_online_test.cc requires RunOnlineServer, with every
// online extension off, to reproduce its results bit for bit.
#ifndef SERPENTINE_TESTS_QUEUE_SIM_REFERENCE_H_
#define SERPENTINE_TESTS_QUEUE_SIM_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sim::reference {

struct QueueSimConfig {
  /// Poisson arrival rate (requests per hour).
  double arrival_rate_per_hour = 60.0;
  /// Simulation length in arrivals.
  int64_t total_requests = 400;
  /// Scheduling algorithm per dispatched batch.
  sched::Algorithm algorithm = sched::Algorithm::kLoss;
  sched::SchedulerOptions scheduler_options;
  /// Dispatch policy: start service when the drive is idle AND (pending >=
  /// dispatch_min_batch OR the oldest pending request has waited
  /// dispatch_max_wait_seconds). All pending requests join the batch.
  int dispatch_min_batch = 1;
  double dispatch_max_wait_seconds = std::numeric_limits<double>::infinity();
  /// Seed for arrivals and request positions.
  int32_t seed = 1;
  /// Drive/media fault process for batch execution. All-zero (the default)
  /// keeps the exact fault-free execution path; any nonzero rate routes
  /// batches through the RecoveringExecutor. The fault stream is seeded
  /// from (faults.seed, seed).
  drive::FaultProfile faults;
};

struct QueueSimResult {
  int64_t completed = 0;
  int64_t batches = 0;
  double mean_batch_size = 0.0;
  double makespan_seconds = 0.0;     ///< arrival of first to last completion
  double drive_busy_seconds = 0.0;
  double utilization = 0.0;          ///< busy / makespan
  double mean_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  double throughput_per_hour = 0.0;  ///< completed / makespan

  /// Fault accounting (all zero when QueueSimConfig::faults is zero).
  /// `failed` requests completed with an error (unreadable media / retry
  /// exhaustion); they are included in `completed` — the client always gets
  /// an answer.
  int64_t failed = 0;
  int64_t fault_retries = 0;
  int64_t drive_resets = 0;
  int64_t reschedules = 0;
  int64_t permanent_errors = 0;
  double recovery_seconds = 0.0;
};

namespace internal {

struct Arrival {
  double time;
  tape::SegmentId segment;
};

}  // namespace internal

/// Runs the simulation to completion (all arrivals served).
inline QueueSimResult RunQueueSimulation(const tape::LocateModel& model,
                                         const QueueSimConfig& config) {
  using internal::Arrival;
  const tape::TapeGeometry& g = model.geometry();

  // Pre-generate the Poisson arrival stream.
  Lrand48 rng(config.seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(config.total_requests);
  double t = 0.0;
  double mean_gap = 3600.0 / config.arrival_rate_per_hour;
  for (int64_t i = 0; i < config.total_requests; ++i) {
    double u = rng.NextDouble();
    t += -std::log(1.0 - u) * mean_gap;
    arrivals.push_back(Arrival{t, rng.NextBounded(g.total_segments())});
  }

  QueueSimResult result;
  std::vector<double> responses;
  responses.reserve(config.total_requests);

  // Fault process for this run, decorrelated per (fault seed, arrival
  // seed) pair so replications draw independent fault streams.
  std::unique_ptr<drive::FaultInjector> injector;
  if (config.faults.any()) {
    injector = std::make_unique<drive::FaultInjector>(config.faults);
    injector->ReseedState(DeriveRand48State(config.faults.seed, config.seed));
  }

  // The simulated drive: one stateful head for the whole run, with the
  // fault process (if any) layered on top. Every batch below executes
  // against this stack, so the head position carries across batches.
  drive::ModelDrive base_drive(model);
  drive::FaultDrive fault_drive(&base_drive, injector.get());
  drive::Drive& drive = fault_drive;

  double clock = 0.0;
  size_t next_arrival = 0;
  std::deque<Arrival> pending;
  double batch_sum = 0.0;

  while (result.completed < config.total_requests) {
    // Admit everything that has arrived by `clock`.
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].time <= clock) {
      pending.push_back(arrivals[next_arrival++]);
    }

    bool no_more_arrivals = next_arrival >= arrivals.size();
    // The oldest request's dispatch deadline. Computed once so the policy
    // test and the idle target agree bit-for-bit (comparing a recomputed
    // `clock - front` against max_wait can disagree with `front + max_wait`
    // by one ULP and spin forever).
    double deadline = std::numeric_limits<double>::infinity();
    if (!pending.empty() &&
        std::isfinite(config.dispatch_max_wait_seconds)) {
      deadline =
          pending.front().time + config.dispatch_max_wait_seconds;
    }
    bool policy_fires =
        !pending.empty() &&
        (static_cast<int>(pending.size()) >= config.dispatch_min_batch ||
         clock >= deadline || no_more_arrivals);

    if (!policy_fires) {
      // Idle until the next arrival or until the oldest pending request
      // ages past the wait bound.
      double next_time = deadline;
      if (!no_more_arrivals) {
        next_time = std::min(next_time, arrivals[next_arrival].time);
      }
      SERPENTINE_CHECK(std::isfinite(next_time));
      SERPENTINE_CHECK_GT(next_time, clock);
      clock = next_time;
      continue;
    }

    // Dispatch: all pending requests form the batch.
    std::vector<sched::Request> batch;
    std::vector<Arrival> members(pending.begin(), pending.end());
    pending.clear();
    batch.reserve(members.size());
    for (const Arrival& a : members)
      batch.push_back(sched::Request{a.segment, 1});

    auto schedule = sched::BuildSchedule(model, drive.Position(), batch,
                                         config.algorithm,
                                         config.scheduler_options);
    SERPENTINE_CHECK(schedule.ok());
    ++result.batches;
    batch_sum += static_cast<double>(members.size());

    // Execute step by step so each request gets a completion stamp.
    // Requests map back to arrivals by segment; duplicates resolve to the
    // oldest unmatched member (a per-segment FIFO of member indices).
    std::unordered_map<tape::SegmentId, std::deque<size_t>> waiting;
    for (size_t i = 0; i < members.size(); ++i) {
      waiting[members[i].segment].push_back(i);
    }
    auto complete = [&](tape::SegmentId segment, double at, bool ok) {
      auto it = waiting.find(segment);
      SERPENTINE_CHECK(it != waiting.end() && !it->second.empty());
      size_t i = it->second.front();
      it->second.pop_front();
      responses.push_back(at - members[i].time);
      ++result.completed;
      if (!ok) ++result.failed;
    };

    if (injector != nullptr) {
      // Fault path: the recovering executor runs the batch (retries,
      // resets, mid-batch rescheduling) against the shared fault stack and
      // stamps completions as it goes.
      RecoveryOptions recovery;
      recovery.scheduler_options = config.scheduler_options;
      RecoveringExecutor executor(drive, model, recovery);
      double base = clock;
      if (schedule->full_tape_scan) {
        // The executor's scan starts at BOT; charge the leading locate.
        // A pure model query: the repositioning before a scan never draws
        // from the fault process.
        double lead = model.LocateSeconds(drive.Position(), 0);
        base += lead;
        clock += lead;
        result.drive_busy_seconds += lead;
      }
      RecoveringExecutionResult res = executor.Execute(
          *schedule,
          [&](const sched::Request& req, double at, double, bool ok) {
            complete(req.segment, base + at, ok);
          });
      clock += res.total_seconds;
      result.drive_busy_seconds += res.total_seconds;
      result.fault_retries += res.retries;
      result.drive_resets += res.drive_resets;
      result.reschedules += res.reschedules;
      result.permanent_errors += res.permanent_errors;
      result.recovery_seconds += res.recovery_seconds;
    } else if (schedule->full_tape_scan) {
      double pass_start = clock + model.LocateSeconds(drive.Position(), 0);
      // Sequenced ops: the locate must advance the head before the scan.
      double busy = drive.Locate(0).times.locate_seconds;
      busy += drive.ScanSegments(0, g.total_segments() - 1).times.read_seconds;
      busy += drive.Rewind().times.rewind_seconds;
      for (const Arrival& a : members) {
        complete(a.segment, pass_start + model.ReadSeconds(0, a.segment),
                 /*ok=*/true);
      }
      clock += busy;
      result.drive_busy_seconds += busy;
    } else {
      for (const sched::Request& r : schedule->order) {
        double step = drive.Locate(r.segment).times.locate_seconds;
        step += drive.ReadSegments(r.segment, r.last()).times.read_seconds;
        clock += step;
        result.drive_busy_seconds += step;
        complete(r.segment, clock, /*ok=*/true);
      }
    }
  }

  result.mean_batch_size = batch_sum / result.batches;
  result.makespan_seconds = clock - (arrivals.empty() ? 0.0 : arrivals[0].time);
  result.utilization = result.makespan_seconds > 0
                           ? result.drive_busy_seconds / result.makespan_seconds
                           : 0.0;
  std::sort(responses.begin(), responses.end());
  double sum = 0.0;
  for (double r : responses) sum += r;
  result.mean_response_seconds = sum / responses.size();
  result.p95_response_seconds =
      responses[static_cast<size_t>(0.95 * (responses.size() - 1))];
  result.max_response_seconds = responses.back();
  result.throughput_per_hour =
      result.completed / (result.makespan_seconds / 3600.0);
  return result;
}

}  // namespace serpentine::sim::reference

#endif  // SERPENTINE_TESTS_QUEUE_SIM_REFERENCE_H_
