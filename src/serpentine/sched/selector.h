// Algorithm selection: the paper's operating guidance (§5/§8) as code —
// "OPT is recommended for scheduling up to 10 locates. Then, use the LOSS
// algorithm for up to 1536 uniformly randomly distributed requests. For
// more than 1536 requests just read the entire tape."
#ifndef SERPENTINE_SCHED_SELECTOR_H_
#define SERPENTINE_SCHED_SELECTOR_H_

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sched {

struct SelectorOptions {
  /// Largest batch handed to the exact solver.
  int opt_cutoff = 10;
  /// When true, compare the schedule's estimate (OPT's included) against a
  /// full tape read and return a READ schedule if that is faster (instead
  /// of relying on a fixed batch-size threshold — the actual crossover
  /// depends on the request distribution).
  bool compare_with_full_read = true;
  /// Heuristic used between the OPT cutoff and the READ crossover.
  Algorithm heuristic = Algorithm::kLoss;
  /// Passed through to BuildSchedule.
  SchedulerOptions scheduler_options;
};

/// Which algorithm the paper's rule picks for a batch of `n` uniform
/// requests (static rule: OPT ≤ 10 < LOSS ≤ 1536 < READ).
Algorithm RecommendedAlgorithm(int n, int opt_cutoff = 10,
                               int read_cutoff = 1536);

/// Builds the best schedule per the selector policy: OPT for tiny batches,
/// the configured heuristic otherwise, downgraded to READ when a full
/// sequential pass is estimated to be faster. store::TertiaryStore flushes
/// every batch through it.
serpentine::StatusOr<Schedule> BuildBestSchedule(
    const tape::LocateModel& model, tape::SegmentId initial_position,
    std::vector<Request> requests, const SelectorOptions& options = {});

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_SELECTOR_H_
