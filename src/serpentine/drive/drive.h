// The stateful drive abstraction the executors run against.
//
// The paper's whole pipeline — estimate (§5), execute, validate (Fig 8),
// perturb (Fig 9/10) — is "same schedule, different timing source". A
// drive::Drive owns the head position and answers one operation at a time
// with a per-op time breakdown, so the timing source, fault process, and
// observability are stackable decorators instead of parameters threaded
// through every layer:
//
//   ModelDrive(model)                      — ideal timing of any LocateModel
//   FaultDrive(&inner, &injector)          — seeded structural faults
//   MeteredDrive(&inner)                   — op counters + latency histograms
//
// Stacks compose: Metered(Fault(Model)) meters what execution experienced
// (faults included); Fault(Metered(Model)) meters only the useful work the
// fault layer let through. The executors (sim::ExecuteSchedule and
// sim::RecoveringExecutor, which sim::ServingCore runs every batch
// through) consume a Drive& and never see which stack they run on.
#ifndef SERPENTINE_DRIVE_DRIVE_H_
#define SERPENTINE_DRIVE_DRIVE_H_

#include <cstdint>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/types.h"

namespace serpentine::drive {

/// Outcome class of one drive operation. Non-kOk statuses are produced by
/// fault-injecting decorators; the base ModelDrive always reports kOk.
enum class OpStatus {
  kOk = 0,
  /// Soft read error: the pass delivered no data; re-issue the read.
  kTransientReadError,
  /// Positioning settled on the wrong segment; the head is where
  /// OpResult::position says, not at the requested target.
  kLocateOvershoot,
  /// Drive firmware soft reset: the transport rewound to BOT; any plan
  /// built for the old head position is stale.
  kDriveReset,
  /// Media defect: the span is unreadable now and forever.
  kPermanentMediaError,
  /// A health decorator's circuit breaker is open: the operation was
  /// refused without touching the transport. OpResult::retry_after_seconds
  /// says how long until the breaker will admit a probe; retrying sooner
  /// just fails fast again.
  kCircuitOpen,
};

/// Stable lowercase name ("ok", "transient-read", ...).
const char* OpStatusName(OpStatus s);

/// Per-phase time breakdown of one operation. Useful work lands in the
/// locate/read/rewind buckets; wasted motion, settle/reset penalties, and
/// failed read passes land in recovery_seconds — the same split
/// ExecutionResult reports, so decorator meters and executor totals agree.
struct OpTimes {
  double locate_seconds = 0.0;
  double read_seconds = 0.0;
  double rewind_seconds = 0.0;
  double recovery_seconds = 0.0;

  double total() const {
    return locate_seconds + read_seconds + rewind_seconds + recovery_seconds;
  }
};

/// Result of one drive operation.
struct OpResult {
  OpStatus status = OpStatus::kOk;
  OpTimes times;
  /// Head position after the operation.
  tape::SegmentId position = 0;
  /// Segments transferred by this operation (read ops only).
  int64_t segments_read = 0;
  /// Transient read errors absorbed inside the operation (scan-delivery
  /// re-reads fold one retry into a single DeliverSpan op).
  int transient_read_errors = 0;
  /// For kCircuitOpen only: virtual seconds until the breaker's cooldown
  /// expires and a half-open probe will be admitted. Callers that wait this
  /// long before re-issuing are guaranteed the next op reaches the
  /// transport (as the probe). Zero for every other status.
  double retry_after_seconds = 0.0;

  bool ok() const { return status == OpStatus::kOk; }
};

/// A stateful serpentine drive: one head position, one operation at a time.
///
/// Contract notes shared by all implementations:
///   * Read ops take explicit (from, to) spans and charge from `from`
///     regardless of the current head position — positioning is the
///     executor's job (call Locate first); this keeps every op's cost a
///     pure function of its arguments and the model, which is what makes
///     the Drive path bit-identical to the raw-model execution path.
///   * The head ends a read just past the span, clamped to the last
///     segment on tape (sched::OutPosition's rule).
///   * Decorators forward every operation to the wrapped drive and may
///     adjust the result (add recovery time, flip the status, move the
///     head via SetPosition).
class Drive {
 public:
  virtual ~Drive() = default;

  /// Positions the head at the start of `dst`, ready to read. One attempt:
  /// fault decorators report overshoot/reset instead of looping.
  virtual OpResult Locate(tape::SegmentId dst) = 0;

  /// One service read of segments `from`..`to` inclusive (head assumed at
  /// `from`). Fault decorators draw per-span read faults here.
  virtual OpResult ReadSegments(tape::SegmentId from, tape::SegmentId to) = 0;

  /// Streaming pass over `from`..`to` (the READ baseline's sequential
  /// scan). Never faults: structural read errors surface per delivered
  /// span (DeliverSpan), not per pass. Default: same timing as a service
  /// read.
  virtual OpResult ScanSegments(tape::SegmentId from, tape::SegmentId to) {
    return ReadSegments(from, to);
  }

  /// Delivery of an already-streamed span to the client during a scan
  /// (zero cost on an ideal drive). Fault decorators draw the span's read
  /// fault here, absorbing one on-the-fly re-read: a transient error
  /// charges a re-read of the span and redraws; only a permanent media
  /// error fails the delivery. Does not move the head.
  virtual OpResult DeliverSpan(tape::SegmentId from, tape::SegmentId to) {
    (void)from;
    (void)to;
    OpResult r;
    r.position = Position();
    return r;
  }

  /// Rewinds to the beginning of tape from the current position.
  virtual OpResult Rewind() = 0;

  /// Current head position.
  virtual tape::SegmentId Position() const = 0;

  /// Teleports the head at zero cost. Two legitimate callers: executors
  /// aligning the head with a schedule's planned start (the schedule was
  /// built from the live position, so this is a no-op there), and fault
  /// decorators reporting where a faulted transport actually settled.
  virtual void SetPosition(tape::SegmentId position) = 0;

  /// The timing model governing this drive (decorators forward to the
  /// wrapped drive's). Executors use it for pure timing queries —
  /// completion stamps, repair planning — that must not consume fault
  /// draws or advance any state.
  virtual const tape::LocateModel& model() const = 0;

  /// The mounted tape's geometry (the model's belief).
  const tape::TapeGeometry& geometry() const { return model().geometry(); }
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_DRIVE_H_
