#include "serpentine/sched/selector.h"

#include "serpentine/sched/estimator.h"

namespace serpentine::sched {

Algorithm RecommendedAlgorithm(int n, int opt_cutoff, int read_cutoff) {
  if (n <= opt_cutoff) return Algorithm::kOpt;
  if (n <= read_cutoff) return Algorithm::kLoss;
  return Algorithm::kRead;
}

serpentine::StatusOr<Schedule> BuildBestSchedule(
    const tape::LocateModel& model, tape::SegmentId initial_position,
    std::vector<Request> requests, const SelectorOptions& options) {
  Algorithm algorithm =
      static_cast<int>(requests.size()) <= options.opt_cutoff
          ? Algorithm::kOpt
          : options.heuristic;
  SERPENTINE_ASSIGN_OR_RETURN(
      Schedule schedule,
      BuildSchedule(model, initial_position, requests, algorithm,
                    options.scheduler_options));
  if (options.compare_with_full_read) {
    // The READ baseline ignores the order, so just compare totals.
    if (model.FullReadAndRewindSeconds() <
        EstimateScheduleSeconds(model, schedule)) {
      return BuildSchedule(model, initial_position, std::move(requests),
                           Algorithm::kRead, options.scheduler_options);
    }
  }
  return schedule;
}

}  // namespace serpentine::sched
