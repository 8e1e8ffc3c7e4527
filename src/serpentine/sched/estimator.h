// Schedule execution-time estimation: the "essential ingredient for
// scheduling" (paper §3) — given a locate-time model, predict how long a
// candidate ordering will take to execute.
#ifndef SERPENTINE_SCHED_ESTIMATOR_H_
#define SERPENTINE_SCHED_ESTIMATOR_H_

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sched {

struct EstimateOptions {
  /// Charge a rewind to BOT after the last read (e.g. before ejecting a
  /// single-reel cartridge, paper footnote 5). READ schedules always
  /// include their rewind.
  bool rewind_at_end = false;
};

/// Head position after servicing `r` (the paper's x_out = x+1, generalized
/// to multi-segment requests and clamped to the last segment on tape).
tape::SegmentId OutPosition(const tape::TapeGeometry& geometry,
                            const Request& r);

/// Predicted wall-clock seconds to execute `schedule` on a drive whose
/// timing follows `model`.
double EstimateScheduleSeconds(const tape::LocateModel& model,
                               const Schedule& schedule,
                               const EstimateOptions& options = {});

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_ESTIMATOR_H_
