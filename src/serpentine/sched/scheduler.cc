#include "serpentine/sched/scheduler.h"

#include <algorithm>

#include "serpentine/sched/internal.h"
#include "serpentine/sched/local_search.h"

namespace serpentine::sched {

StatusOr<Schedule> BuildSchedule(const tape::LocateModel& model,
                                 tape::SegmentId initial_position,
                                 std::vector<Request> requests,
                                 Algorithm algorithm,
                                 const SchedulerOptions& options) {
  const tape::TapeGeometry& g = model.geometry();
  if (initial_position < 0 || initial_position >= g.total_segments()) {
    return InvalidArgumentError("initial position off tape");
  }
  for (const Request& r : requests) {
    if (r.count <= 0) return InvalidArgumentError("request count must be >0");
    if (r.segment < 0 || r.last() >= g.total_segments()) {
      return InvalidArgumentError("request outside tape: segment " +
                                  std::to_string(r.segment));
    }
  }

  Schedule schedule;
  schedule.algorithm = algorithm;
  schedule.initial_position = initial_position;

  switch (algorithm) {
    case Algorithm::kRead:
      schedule.full_tape_scan = true;
      schedule.order = internal::ScheduleSort(std::move(requests));
      break;
    case Algorithm::kFifo:
      schedule.order = std::move(requests);
      break;
    case Algorithm::kSort:
      schedule.order = internal::ScheduleSort(std::move(requests));
      break;
    case Algorithm::kOpt: {
      SERPENTINE_ASSIGN_OR_RETURN(
          schedule.order,
          internal::ScheduleOpt(model, initial_position, requests));
      break;
    }
    case Algorithm::kSltf:
      if (options.sltf_naive) {
        schedule.order = internal::ScheduleSltfNaive(model, initial_position,
                                                     std::move(requests));
      } else {
        schedule.order = internal::ScheduleSltfSectioned(
            model, initial_position, std::move(requests));
      }
      break;
    case Algorithm::kScan:
      schedule.order = internal::ScheduleScan(g, std::move(requests));
      break;
    case Algorithm::kWeave:
      schedule.order =
          internal::ScheduleWeave(g, initial_position, std::move(requests));
      break;
    case Algorithm::kLoss:
      schedule.order =
          internal::ScheduleLoss(model, initial_position, std::move(requests),
                                 options.loss_coalesce_threshold);
      break;
    case Algorithm::kSparseLoss:
      schedule.order = internal::ScheduleSparseLoss(
          model, initial_position, std::move(requests),
          options.loss_coalesce_threshold > 0
              ? options.loss_coalesce_threshold
              : kDefaultCoalesceThreshold,
          options.construction_workers);
      break;
    case Algorithm::kLtsp: {
      SERPENTINE_ASSIGN_OR_RETURN(
          schedule.order,
          internal::ScheduleLtsp(model, initial_position, std::move(requests),
                                 options.loss_coalesce_threshold));
      break;
    }
    case Algorithm::kLossMt:
    case Algorithm::kLossMtOrOpt:
      schedule.order = internal::ScheduleLossPartitioned(
          model, initial_position, std::move(requests),
          options.loss_coalesce_threshold, kDefaultLossPartitionSize,
          options.construction_workers);
      if (algorithm == Algorithm::kLossMtOrOpt) {
        LocalSearchOptions search;
        search.insertion_window = kLossMtOrOptInsertionWindow;
        ImproveSchedule(model, &schedule, search);
      }
      break;
  }
  return schedule;
}

}  // namespace serpentine::sched
