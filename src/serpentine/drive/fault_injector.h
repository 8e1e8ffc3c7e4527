// Deterministic fault injection for the drive layer.
//
// The paper's schedules are static plans against a believed locate-time
// model, and PhysicalDrive perturbs only the *timing* of a locate. Real
// DLT-class hardware also fails structurally: reads hit soft ECC errors and
// are retried, positioning overshoots near track ends and must be redone
// (Hillyer & Silberschatz §3/§7 blame exactly this region for their model
// error), drives soft-reset and rewind to BOT, and media develops sticky
// bad segments. TALICS³ (Arslan et al.) makes the same point for tape
// clouds: a simulator is only production-useful once these are first-class
// events.
//
// FaultInjector turns a FaultProfile (per-operation Bernoulli rates plus
// recovery timings) into a deterministic event stream: one seeded rand48
// draw per drive operation, in operation order. The same seed therefore
// yields a bit-identical fault sequence no matter which thread runs the
// (serial) execution — the parallel harnesses give each replication its own
// injector stream derived via DeriveRand48State, which is what keeps
// 1-thread and N-thread experiment statistics bit-identical under faults.
#ifndef SERPENTINE_DRIVE_FAULT_INJECTOR_H_
#define SERPENTINE_DRIVE_FAULT_INJECTOR_H_

#include <cstdint>
#include <set>
#include <string>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/types.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/statusor.h"

namespace serpentine::drive {

/// The fault classes the injector can produce.
enum class FaultType {
  kNone = 0,
  /// Soft read error on a segment span: the pass delivered no data; a
  /// re-read usually succeeds (retryable).
  kTransientReadError,
  /// Positioning completed but settled on the wrong segment (the paper's
  /// under-modeled track-end region); the head must re-locate (retryable).
  kLocateOvershoot,
  /// Drive firmware soft reset: the transport rewinds to BOT and the whole
  /// remaining plan starts from the wrong head position (retryable, but the
  /// plan is stale — reschedule).
  kDriveReset,
  /// Media defect: the segment is unreadable now and forever (permanent;
  /// sticky per segment).
  kPermanentMediaError,
};

/// Rates and recovery timings of one fault process. All rates are
/// per-operation Bernoulli probabilities; zero everywhere (the default)
/// injects nothing, so fault-aware code paths reproduce the paper's
/// fault-free figures exactly.
struct FaultProfile {
  /// P[soft read error] per serviced request span.
  double transient_read_rate = 0.0;
  /// P[positioning overshoot] per locate.
  double locate_overshoot_rate = 0.0;
  /// P[drive soft reset] per locate.
  double drive_reset_rate = 0.0;
  /// P[segment goes permanently bad] per serviced request span; once drawn,
  /// the segment stays bad for the injector's lifetime.
  double permanent_error_rate = 0.0;

  /// Wasted settle time on an overshoot before the head can re-locate.
  double overshoot_settle_seconds = 4.0;
  /// Soft reset: controller restart before the forced rewind begins.
  double reset_seconds = 25.0;
  /// Fixed per-attempt overhead of a failed read pass (ECC retry logic,
  /// internal repositioning), on top of the wasted transport time.
  double reread_overhead_seconds = 2.0;

  /// Seed of the injector's rand48 fault stream.
  int32_t seed = 4099;

  /// True when any rate is nonzero (i.e. the profile can inject at all).
  bool any() const;

  /// Returns a copy with every rate scaled by `factor` (clamped to [0, 1]);
  /// timings and seed are unchanged. The fault-rate sweep knob.
  FaultProfile Scaled(double factor) const;

  /// Named profiles for CLI/bench use. None() is all-zero; Light() is a
  /// drive having a bad day; Heavy() is a drive that should be retired.
  static FaultProfile None();
  static FaultProfile Light();
  static FaultProfile Heavy();
};

/// Rejects garbage profiles with a descriptive status: every rate must be a
/// finite probability in [0, 1], every recovery timing finite and >= 0.
serpentine::Status ValidateFaultProfile(const FaultProfile& profile);

/// Parses a profile from a file of `key=value` lines (keys are the
/// FaultProfile field names; '#' starts a comment), or from the names
/// "none", "light", "heavy". Unknown keys fail with InvalidArgument; the
/// parsed profile is validated with ValidateFaultProfile before returning.
serpentine::StatusOr<FaultProfile> LoadFaultProfile(const std::string& spec);

/// A seeded, deterministic fault process over drive operations.
///
/// Each Draw* call consumes exactly one rand48 draw (OvershootTarget one
/// more), so the event stream is a pure function of (profile.seed, sequence
/// of operations). Not thread-safe: like the drive it shadows, an injector
/// belongs to one serial execution; concurrent harnesses derive one
/// injector per replication.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultProfile& profile);

  const FaultProfile& profile() const { return profile_; }

  /// Restarts the fault stream (srand48-style), keeping sticky bad
  /// segments. ReseedState seeds from a full 48-bit state (e.g. a
  /// DeriveRand48State product) for decorrelated per-replication streams.
  void Reseed(int32_t seed);
  void ReseedState(uint64_t state);

  /// Draws the fault, if any, for the next locate operation: kNone,
  /// kLocateOvershoot, or kDriveReset.
  FaultType DrawLocateFault();

  /// Draws the fault for servicing a read of the span starting at
  /// `segment`: kNone, kTransientReadError, or kPermanentMediaError.
  /// Permanent errors are sticky — once a segment has drawn one, every
  /// later read of it fails permanently without consuming a draw.
  FaultType DrawReadFault(tape::SegmentId segment);

  /// Where an overshot locate actually settles: a segment within roughly
  /// one reading section of `dst`, never `dst` itself.
  tape::SegmentId OvershootTarget(const tape::TapeGeometry& geometry,
                                  tape::SegmentId dst);

  /// True if `segment` has drawn a permanent media error.
  bool IsBadSegment(tape::SegmentId segment) const {
    return bad_segments_.count(segment) > 0;
  }
  const std::set<tape::SegmentId>& bad_segments() const {
    return bad_segments_;
  }

  /// Lifetime counters (injected faults by class).
  int64_t faults_injected() const { return faults_injected_; }

 private:
  FaultProfile profile_;
  serpentine::Lrand48 rng_;
  std::set<tape::SegmentId> bad_segments_;
  int64_t faults_injected_ = 0;
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_FAULT_INJECTOR_H_
