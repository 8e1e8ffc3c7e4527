#include "serpentine/layout/migration.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <unordered_map>
#include <utility>

#include "serpentine/sched/estimator.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/check.h"
#include "serpentine/util/status.h"

namespace serpentine::layout {

namespace {

int64_t GroupSize(const Placement& target, int64_t group) {
  return std::min<int64_t>(
      target.group_segments(),
      target.total_segments() - group * target.group_segments());
}

// Contiguous destination runs of a batch's groups: [first, last] physical
// segment spans, in ascending slot order. Groups occupying consecutive
// slots share one run (one locate, one streaming transfer).
std::vector<std::pair<tape::SegmentId, tape::SegmentId>> DestinationRuns(
    const std::vector<int64_t>& groups, const Placement& target) {
  std::vector<int64_t> by_slot = groups;
  std::sort(by_slot.begin(), by_slot.end(), [&](int64_t x, int64_t y) {
    return target.slot_of(x) < target.slot_of(y);
  });
  std::vector<std::pair<tape::SegmentId, tape::SegmentId>> runs;
  for (int64_t g : by_slot) {
    tape::SegmentId start = target.group_physical_start(g);
    tape::SegmentId end = start + GroupSize(target, g) - 1;
    if (!runs.empty() && runs.back().second + 1 == start) {
      runs.back().second = end;
    } else {
      runs.emplace_back(start, end);
    }
  }
  return runs;
}

// Write-leg cost of `runs` from head position `position` on the model:
// per run, one locate plus a streaming transfer at the read rate (the
// transport writes at the same speed it reads). Returns the cost and
// leaves `position` past the last run.
double WriteLegSeconds(const tape::LocateModel& model,
                       const std::vector<std::pair<tape::SegmentId,
                                                   tape::SegmentId>>& runs,
                       tape::SegmentId* position) {
  const tape::SegmentId last =
      model.geometry().total_segments() - 1;
  double seconds = 0.0;
  for (const auto& [start, end] : runs) {
    if (*position != start) seconds += model.LocateSeconds(*position, start);
    seconds += model.ReadSeconds(start, end);
    *position = std::min<tape::SegmentId>(end + 1, last);
  }
  return seconds;
}

}  // namespace

StatusOr<MigrationPlan> PlanMigration(const tape::Dlt4000LocateModel& model,
                                      const Placement& target,
                                      const sched::Registry& registry,
                                      const MigrationOptions& options) {
  if (options.batch_groups <= 0) {
    return InvalidArgumentError(
        "PlanMigration: batch_groups must be positive, got " +
        std::to_string(options.batch_groups));
  }
  StatusOr<const sched::RegistryEntry*> entry =
      registry.Resolve(options.algorithm);
  if (!entry.ok()) return entry.status();

  // Moved groups in destination-slot order, so consecutive batches write
  // consecutive regions.
  std::vector<int64_t> moved;
  for (int64_t slot = 0; slot < target.num_groups(); ++slot) {
    int64_t group = target.order()[slot];
    if (group != slot) moved.push_back(group);
  }

  MigrationPlan plan;
  plan.moved_groups = static_cast<int64_t>(moved.size());
  tape::SegmentId position = 0;
  for (size_t at = 0; at < moved.size(); at += options.batch_groups) {
    MigrationBatch batch;
    size_t end = std::min(moved.size(),
                          at + static_cast<size_t>(options.batch_groups));
    std::vector<sched::Request> reads;
    for (size_t i = at; i < end; ++i) {
      int64_t g = moved[i];
      batch.groups.push_back(g);
      int64_t size = GroupSize(target, g);
      reads.push_back(
          sched::Request{g * target.group_segments(), size});
      batch.segments += size;
    }
    StatusOr<sched::Schedule> schedule =
        (*entry)->Build(model, position, std::move(reads));
    if (!schedule.ok()) return schedule.status();
    sim::ExecutionResult read_result =
        sim::ExecuteSchedule(model, schedule.value());
    batch.reads = std::move(schedule).value();
    batch.read_seconds = read_result.total_seconds;
    position = read_result.final_position;
    batch.write_seconds = WriteLegSeconds(
        model, DestinationRuns(batch.groups, target), &position);
    plan.segments += batch.segments;
    plan.estimated_seconds += batch.read_seconds + batch.write_seconds;
    plan.batches.push_back(std::move(batch));
  }
  return plan;
}

MigrationExecution ExecuteMigration(drive::Drive& drive,
                                    const MigrationPlan& plan,
                                    const Placement& target) {
  MigrationExecution exec;
  for (const MigrationBatch& batch : plan.batches) {
    sim::ExecutionResult reads = sim::ExecuteSchedule(drive, batch.reads);
    exec.read_seconds += reads.total_seconds;
    for (const auto& [start, end] : DestinationRuns(batch.groups, target)) {
      if (drive.Position() != start) {
        drive::OpResult locate = drive.Locate(start);
        exec.write_seconds += locate.times.total();
      }
      // Streaming write modeled at the transport's read rate.
      drive::OpResult transfer = drive.ReadSegments(start, end);
      exec.write_seconds += transfer.times.total();
    }
    exec.segments += batch.segments;
    ++exec.batches;
  }
  exec.total_seconds = exec.read_seconds + exec.write_seconds;
  exec.batches = static_cast<int64_t>(plan.batches.size());
  return exec;
}

StatusOr<InterleavedResult> RunInterleavedMigration(
    const tape::Dlt4000LocateModel& model, const MigrationPlan& plan,
    const Placement& target, const sched::Registry& registry,
    const InterleavedOptions& options) {
  // Foreground Poisson stream over the physical segment space: the
  // online server's generator (gap, then segment, from one rand48 stream).
  sim::OnlineServerConfig foreground;
  foreground.arrival_rate_per_hour = options.arrival_rate_per_hour;
  foreground.total_requests = options.foreground_requests;
  foreground.seed = options.seed;
  SERPENTINE_RETURN_IF_ERROR(
      AnnotateStatus(sim::ValidateOnlineServerConfig(foreground),
                     "RunInterleavedMigration"));
  StatusOr<const sched::RegistryEntry*> entry =
      registry.Resolve(options.algorithm);
  if (!entry.ok()) return entry.status();
  const tape::TapeGeometry& geometry = model.geometry();
  const std::vector<sim::ServingRequest> arrivals =
      sim::GenerateOnlineArrivals(foreground, geometry.total_segments());

  // The plan, flattened to a group stream the ladder slices.
  std::vector<int64_t> remaining;
  int64_t full_slice = 0;
  for (const MigrationBatch& batch : plan.batches) {
    full_slice = std::max<int64_t>(
        full_slice, static_cast<int64_t>(batch.groups.size()));
    remaining.insert(remaining.end(), batch.groups.begin(),
                     batch.groups.end());
  }
  const double per_group_seconds =
      plan.moved_groups > 0
          ? plan.estimated_seconds / static_cast<double>(plan.moved_groups)
          : 0.0;

  InterleavedResult result;
  std::vector<double> responses;
  responses.reserve(arrivals.size());
  double clock = 0.0;
  tape::SegmentId position = 0;
  size_t next_arrival = 0;
  size_t next_group = 0;
  std::vector<sim::ServingRequest> pending;

  while (next_arrival < arrivals.size() || !pending.empty() ||
         next_group < remaining.size()) {
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].time <= clock) {
      pending.push_back(arrivals[next_arrival++]);
    }
    if (!pending.empty()) {
      // Dispatch everything queued as one scheduled batch, stamping each
      // request as the head reaches it (FIFO among same-segment
      // duplicates).
      std::unordered_map<tape::SegmentId, std::deque<double>> waiting;
      std::vector<sched::Request> requests;
      requests.reserve(pending.size());
      for (const sim::ServingRequest& a : pending) {
        waiting[a.segment].push_back(a.time);
        requests.push_back(sched::Request{a.segment, 1});
      }
      StatusOr<sched::Schedule> schedule =
          (*entry)->Build(model, position, std::move(requests));
      if (!schedule.ok()) return schedule.status();
      double start = clock;
      for (const sched::Request& r : schedule.value().order) {
        if (position != r.segment) {
          clock += model.LocateSeconds(position, r.segment);
        }
        clock += model.ReadSeconds(r.segment, r.segment + r.count - 1);
        position = sched::OutPosition(geometry, r);
        std::deque<double>& q = waiting[r.segment];
        SERPENTINE_CHECK(!q.empty());
        responses.push_back(clock - q.front());
        q.pop_front();
        ++result.foreground_completed;
      }
      result.foreground_seconds += clock - start;
      pending.clear();
      continue;
    }
    if (next_group < remaining.size()) {
      // Ladder rung by expected arrivals during a full slice.
      double expected = options.arrival_rate_per_hour / 3600.0 *
                        per_group_seconds * static_cast<double>(full_slice);
      int64_t slice = full_slice;
      if (expected <= 2.0) {
        ++result.full_slices;
      } else if (expected <= 8.0) {
        slice = (full_slice + 1) / 2;
        ++result.half_slices;
      } else {
        slice = (full_slice + 3) / 4;
        ++result.quarter_slices;
      }
      slice = std::max<int64_t>(1, slice);
      std::vector<int64_t> groups(
          remaining.begin() + next_group,
          remaining.begin() +
              std::min(remaining.size(), next_group + slice));
      next_group += groups.size();
      std::vector<sched::Request> reads;
      for (int64_t g : groups) {
        reads.push_back(sched::Request{g * target.group_segments(),
                                       GroupSize(target, g)});
      }
      StatusOr<sched::Schedule> schedule =
          (*entry)->Build(model, position, std::move(reads));
      if (!schedule.ok()) return schedule.status();
      sim::ExecutionResult reads_result =
          sim::ExecuteSchedule(model, schedule.value());
      double slice_seconds = reads_result.total_seconds;
      position = reads_result.final_position;
      slice_seconds += WriteLegSeconds(
          model, DestinationRuns(groups, target), &position);
      clock += slice_seconds;
      result.migration_seconds += slice_seconds;
      continue;
    }
    // Idle until the next arrival.
    clock = std::max(clock, arrivals[next_arrival].time);
  }

  result.makespan_seconds = clock;
  result.migration_complete = next_group == remaining.size();
  if (!responses.empty()) {
    std::sort(responses.begin(), responses.end());
    double sum = 0.0;
    for (double r : responses) sum += r;
    result.mean_response_seconds = sum / responses.size();
    size_t p99 = static_cast<size_t>(
        std::ceil(0.99 * static_cast<double>(responses.size())));
    result.p99_response_seconds = responses[std::min(
        responses.size() - 1, p99 == 0 ? 0 : p99 - 1)];
    result.max_response_seconds = responses.back();
  }
  return result;
}

}  // namespace serpentine::layout
