// HealthDrive: drive-health tracking and a circuit breaker, as a stackable
// decorator over the fault stream FaultDrive produces.
//
// A production library serving "a planet's worth of cold-storage reads"
// cannot keep feeding work to a drive that has started eating it: every op
// sent to a sick transport burns a full retry schedule before failing, and
// the queue behind the drive grows without bound. The classic remedy is a
// circuit breaker — observe a rolling window of per-op outcomes, trip open
// when the failure density crosses a threshold, refuse work during a
// cooldown, then probe with a few trial ops (half-open) before trusting the
// drive again (closed).
//
// Everything here runs on the simulation's virtual clock and is a pure
// function of the op sequence it observes, so a seeded run reproduces the
// same breaker trajectory bit-for-bit on any thread count.
#ifndef SERPENTINE_DRIVE_HEALTH_DRIVE_H_
#define SERPENTINE_DRIVE_HEALTH_DRIVE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "serpentine/drive/drive.h"
#include "serpentine/util/status.h"

namespace serpentine::drive {

/// Breaker automaton states.
enum class BreakerState {
  kClosed = 0,    ///< healthy: every op passes through
  kHalfOpen = 1,  ///< probing: ops pass, consecutive successes re-close
  kOpen = 2,      ///< tripped: ops fail fast until the cooldown expires
};

/// Stable lowercase name ("closed", "half-open", "open").
const char* BreakerStateName(BreakerState s);

/// Tuning of one circuit breaker. Defaults trip after 4 failures inside a
/// 16-op window and cool down for two virtual minutes.
struct BreakerPolicy {
  /// Rolling window length, in observed operations.
  int window_ops = 16;
  /// Failures within the window that trip the breaker open.
  int failure_threshold = 4;
  /// An op slower than this counts as a failure even if it succeeded
  /// (a drive taking 10x the modeled time is as sick as one erroring).
  /// Infinity (the default) disables the latency criterion.
  double slow_op_seconds = std::numeric_limits<double>::infinity();
  /// Virtual seconds the breaker stays open before admitting a probe.
  double cooldown_seconds = 120.0;
  /// Consecutive half-open probe successes required to close again.
  int half_open_successes = 2;
  /// Cost charged to an op refused while open (controller round-trip; the
  /// point of the breaker is that this is orders of magnitude cheaper than
  /// a real attempt's retry schedule).
  double fail_fast_seconds = 0.0;
};

/// Rejects NaN/negative/inconsistent policies with a descriptive status.
Status ValidateBreakerPolicy(const BreakerPolicy& policy);

/// One recorded state change, stamped with the breaker's virtual clock.
struct BreakerTransition {
  double at_seconds = 0.0;
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
};

/// The breaker automaton, independent of any drive; HealthDrive runs one
/// over a drive stack. Legal transitions (asserted by the chaos test):
/// closed→open, open→half-open, half-open→closed, half-open→open.
///
/// Not thread-safe; like the drive it guards, a breaker belongs to one
/// serial execution.
class CircuitBreaker {
 public:
  /// `policy` must pass ValidateBreakerPolicy (checked).
  explicit CircuitBreaker(const BreakerPolicy& policy);

  const BreakerPolicy& policy() const { return policy_; }
  BreakerState state() const { return state_; }

  /// Decides whether to admit an operation at virtual time `now`. Open →
  /// refuses and reports the remaining cooldown in `*retry_after_seconds`
  /// (never negative); once `now` reaches the cooldown expiry the breaker
  /// moves to half-open and admits the call as a probe. `now` must be
  /// monotone across calls.
  bool Admit(double now, double* retry_after_seconds);

  /// Reports the outcome of an admitted operation ending at time `now`.
  void RecordSuccess(double now);
  void RecordFailure(double now);

  /// Times the breaker tripped open (closed→open and half-open→open).
  int64_t opens() const { return opens_; }
  /// Operations refused while open.
  int64_t fast_fails() const { return fast_fails_; }
  /// Full transition history, in virtual-time order.
  const std::vector<BreakerTransition>& transitions() const {
    return transitions_;
  }

 private:
  void TransitionTo(BreakerState next, double now);
  void Observe(bool failure, double now);

  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  /// Rolling outcome window, newest at the back; true = failure.
  std::deque<bool> window_;
  int window_failures_ = 0;
  int probe_successes_ = 0;
  double open_until_ = 0.0;
  int64_t opens_ = 0;
  int64_t fast_fails_ = 0;
  std::vector<BreakerTransition> transitions_;
};

/// Decorator that feeds every op outcome of the wrapped drive into a
/// CircuitBreaker and fails ops fast while it is open.
///
/// Clock contract: the decorator accumulates an internal virtual clock from
/// the OpTimes it returns — callers are assumed to "wait" exactly what an
/// op charges, which is how every executor in this codebase treats OpTimes
/// already. A refused op charges fail_fast_seconds *plus the remaining
/// cooldown* as recovery time (and reports the cooldown component in
/// OpResult::retry_after_seconds), so after one kCircuitOpen result the
/// virtual clock has passed the cooldown expiry and the next op is
/// admitted as the half-open probe. This keeps breaker pacing deterministic
/// without executors knowing the decorator exists.
///
/// Gating: Locate, ReadSegments, ScanSegments, and DeliverSpan are gated
/// and observed. Rewind is observed but never refused — recovery paths
/// must always be able to rewind a sick transport.
class HealthDrive : public Drive {
 public:
  /// `inner` must outlive this decorator; `policy` must validate.
  HealthDrive(Drive* inner, const BreakerPolicy& policy);

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

  const CircuitBreaker& breaker() const { return breaker_; }
  /// Virtual seconds of op time observed (including fail-fast charges).
  double clock_seconds() const { return clock_seconds_; }

  /// Points the decorator at a different transport while keeping the
  /// breaker's window and state. A tape library swapping cartridges under
  /// one physical drive is the intended use: the breaker guards the drive,
  /// not the cartridge. `inner` must outlive this decorator.
  void set_inner(Drive* inner) { inner_ = inner; }

 private:
  /// Refusal result for an op issued while the breaker is open.
  OpResult FailFast(double retry_after);
  /// Clocks an admitted op's result and records its outcome.
  OpResult Observe(OpResult result);

  Drive* inner_;
  CircuitBreaker breaker_;
  double clock_seconds_ = 0.0;
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_HEALTH_DRIVE_H_
