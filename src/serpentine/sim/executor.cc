#include "serpentine/sim/executor.h"

#include <cmath>
#include <limits>

#include "serpentine/drive/model_drive.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {

ExecutionResult ExecuteSchedule(drive::Drive& drive,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options) {
  const tape::TapeGeometry& g = drive.geometry();
  ExecutionResult r;

  if (schedule.full_tape_scan) {
    tape::SegmentId last = g.total_segments() - 1;
    r.read_seconds = drive.ScanSegments(0, last).times.read_seconds;
    r.rewind_seconds = drive.Rewind().times.rewind_seconds;
    r.total_seconds = r.read_seconds + r.rewind_seconds;
    r.segments_read = g.total_segments();
    r.final_position = drive.Position();
    return r;
  }

  // An empty batch does nothing: no locates, no rewind, head untouched.
  if (schedule.order.empty()) {
    drive.SetPosition(schedule.initial_position);
    r.final_position = schedule.initial_position;
    return r;
  }

  drive.SetPosition(schedule.initial_position);
  for (const sched::Request& req : schedule.order) {
    SERPENTINE_CHECK_GE(req.segment, 0);
    SERPENTINE_CHECK_LE(req.last(), g.total_segments() - 1);
    r.locate_seconds += drive.Locate(req.segment).times.locate_seconds;
    ++r.locates;
    r.read_seconds +=
        drive.ReadSegments(req.segment, req.last()).times.read_seconds;
    r.segments_read += req.count;
  }
  if (options.rewind_at_end) {
    r.rewind_seconds = drive.Rewind().times.rewind_seconds;
  }
  r.final_position = drive.Position();
  r.total_seconds = r.locate_seconds + r.read_seconds + r.rewind_seconds;
  return r;
}

ExecutionResult ExecuteSchedule(const tape::LocateModel& model,
                                const sched::Schedule& schedule,
                                const sched::EstimateOptions& options) {
  drive::ModelDrive drive(model, schedule.initial_position);
  return ExecuteSchedule(drive, schedule, options);
}

double PercentError(double estimate, double measurement) {
  // Near-zero measurements (empty schedules, degenerate configurations)
  // must not divide to garbage: two zeros agree perfectly; a real estimate
  // against a zero measurement is infinitely wrong, signed by the miss.
  constexpr double kTiny = 1e-12;
  if (std::abs(measurement) < kTiny) {
    if (std::abs(estimate) < kTiny) return 0.0;
    return std::copysign(std::numeric_limits<double>::infinity(),
                         estimate - measurement);
  }
  return (estimate - measurement) / measurement * 100.0;
}

}  // namespace serpentine::sim
