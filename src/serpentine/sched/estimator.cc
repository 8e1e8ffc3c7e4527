#include "serpentine/sched/estimator.h"

#include <algorithm>

#include "serpentine/util/check.h"

namespace serpentine::sched {

tape::SegmentId OutPosition(const tape::TapeGeometry& geometry,
                            const Request& r) {
  return std::min<tape::SegmentId>(r.segment + r.count,
                                   geometry.total_segments() - 1);
}

double EstimateScheduleSeconds(const tape::LocateModel& model,
                               const Schedule& schedule,
                               const EstimateOptions& options) {
  const tape::TapeGeometry& g = model.geometry();

  if (schedule.full_tape_scan) {
    tape::SegmentId last = g.total_segments() - 1;
    return model.ReadSeconds(0, last) + model.RewindSeconds(last);
  }

  double total = 0.0;
  tape::SegmentId position = schedule.initial_position;
  for (const Request& r : schedule.order) {
    SERPENTINE_CHECK_GE(r.segment, 0);
    SERPENTINE_CHECK_LE(r.last(), g.total_segments() - 1);
    total += model.LocateSeconds(position, r.segment);
    total += model.ReadSeconds(r.segment, r.last());
    position = OutPosition(g, r);
  }
  if (options.rewind_at_end) total += model.RewindSeconds(position);
  return total;
}

}  // namespace serpentine::sched
