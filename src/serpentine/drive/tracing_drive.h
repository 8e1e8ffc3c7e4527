// TracingDrive: a transparent decorator that emits one virtual-clock trace
// span per drive operation — with per-phase child spans
// (locate/read/rewind/recovery) and status/position args — into the
// ambient obs::TraceRecorder. Results are returned unmodified; with no
// recorder installed the decorator costs one relaxed atomic load and a
// double add per op, and execution is bit-identical either way (pinned by
// tests/obs_test.cc).
//
// The decorator keeps its own virtual clock: the sum of every op's total
// seconds since construction. Stack it
// outermost — Tracing(Metered(Fault(Model))) — so its clock covers
// everything execution experienced, recovery time included, and spans line
// up with the executor's completion stamps.
#ifndef SERPENTINE_DRIVE_TRACING_DRIVE_H_
#define SERPENTINE_DRIVE_TRACING_DRIVE_H_

#include "serpentine/drive/drive.h"

namespace serpentine::drive {

/// Pass-through decorator tracing every operation of the wrapped drive.
class TracingDrive : public Drive {
 public:
  /// `inner` must outlive this decorator. Spans go to the ambient
  /// obs::TraceRecorder::active() at each op, so a recorder installed
  /// after construction is picked up automatically.
  explicit TracingDrive(Drive* inner) : inner_(inner) {}

  OpResult Locate(tape::SegmentId dst) override;
  OpResult ReadSegments(tape::SegmentId from, tape::SegmentId to) override;
  OpResult ScanSegments(tape::SegmentId from, tape::SegmentId to) override;
  OpResult DeliverSpan(tape::SegmentId from, tape::SegmentId to) override;
  OpResult Rewind() override;

  tape::SegmentId Position() const override { return inner_->Position(); }
  void SetPosition(tape::SegmentId position) override {
    inner_->SetPosition(position);
  }
  const tape::LocateModel& model() const override { return inner_->model(); }

 private:
  /// Advances the clock and, when a recorder is active, emits the op span
  /// plus per-phase child spans.
  void Emit(const char* op, const OpResult& r);

  Drive* inner_;
  double clock_seconds_ = 0.0;
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_TRACING_DRIVE_H_
