#include "serpentine/sim/recovering_executor.h"

#include <cmath>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/util/check.h"

namespace serpentine::sim {
namespace {

// Observability hooks (category "recover"): instants for each fault class
// at the virtual time it struck, spans for backoff waits, and counters in
// the ambient metrics registry. All of this is skipped on one branch when
// neither a recorder nor a registry is installed, and none of it touches
// the virtual clock — traced and untraced executions are bit-identical.
void NoteFault(const char* name, const char* counter, double at_seconds) {
  obs::TraceInstant(obs::TraceClock::kVirtual, "recover", name, at_seconds);
  obs::IncrementCounter(counter);
}

void NoteBackoff(double start_seconds, double backoff_seconds) {
  obs::TraceComplete(obs::TraceClock::kVirtual, "recover", "backoff",
                     start_seconds, start_seconds + backoff_seconds);
  obs::IncrementCounter("recover.retries");
  obs::ObserveHistogram("recover.backoff_seconds", backoff_seconds);
}

/// Algorithm used when re-planning the remainder mid-batch. READ makes no
/// sense for a partial remainder and OPT blows up past the paper's
/// 12-request ceiling, so both repair with LOSS (the paper's recommended
/// general-purpose scheduler). So do the builders beyond the paper (LTSP
/// and the partitioned LOSS pair). Everything else re-plans with itself.
sched::Algorithm RepairAlgorithm(sched::Algorithm original, size_t remaining) {
  switch (original) {
    case sched::Algorithm::kRead:
    case sched::Algorithm::kLtsp:
    case sched::Algorithm::kLossMt:
    case sched::Algorithm::kLossMtOrOpt:
      return sched::Algorithm::kLoss;
    case sched::Algorithm::kOpt:
      return remaining > 12 ? sched::Algorithm::kLoss : original;
    default:
      return original;
  }
}

/// Virtual-time bookkeeping of one Execute call. Every charge lands in
/// `elapsed` (seconds since execution start, the clock of completion
/// stamps) and `step` (seconds since the last callback) together, so the
/// two sums cannot drift apart; recovery charges also land in the result.
class Ledger {
 public:
  explicit Ledger(RecoveringExecutionResult* r) : r_(r) {}

  double elapsed() const { return elapsed_; }

  void Charge(double seconds) {
    elapsed_ += seconds;
    step_ += seconds;
  }

  void Recover(double seconds) {
    r_->recovery_seconds += seconds;
    Charge(seconds);
  }

  /// Recovery seconds of a fault, noted at the time they end.
  void Fault(const char* name, const char* counter, double seconds) {
    Recover(seconds);
    NoteFault(name, counter, elapsed_);
  }

  /// An op refused by an open breaker (a HealthDrive in the stack). The
  /// refusal charged the remaining cooldown, so re-issuing the op is the
  /// half-open probe. Deliberately no retry-budget charge and no backoff:
  /// waiting out a breaker must not burn the budget reserved for real
  /// faults.
  void Refused(const drive::OpResult& op) {
    ++r_->breaker_fast_fails;
    r_->breaker_wait_seconds += op.retry_after_seconds;
    Fault("circuit-open", "recover.breaker_fast_fails",
          op.times.recovery_seconds);
  }

  /// The idle wait after `failures` failed attempts (>= 1), before the
  /// next one.
  void Backoff(int failures) {
    double backoff = std::ldexp(RecoveringExecutor::kFirstBackoffSeconds,
                                failures - 1);
    NoteBackoff(elapsed_, backoff);
    Recover(backoff);
    ++r_->retries;
  }

  /// Reports one request to `on_step`, which starts the next step.
  void Report(const RecoveringExecutor::StepCallback& on_step,
              const sched::Request& req, double at_seconds, bool ok) {
    if (on_step) on_step(req, at_seconds, step_, ok);
    step_ = 0.0;
  }

 private:
  RecoveringExecutionResult* r_;
  double elapsed_ = 0.0;
  double step_ = 0.0;
};

}  // namespace

RecoveringExecutor::RecoveringExecutor(drive::Drive& drive,
                                       const tape::LocateModel& scheduling_model,
                                       RecoveryOptions options)
    : drive_(&drive),
      scheduling_model_(scheduling_model),
      options_(std::move(options)) {}

RecoveringExecutor::RecoveringExecutor(const tape::LocateModel& drive,
                                       const tape::LocateModel& scheduling_model,
                                       drive::FaultInjector* injector,
                                       RecoveryOptions options)
    : scheduling_model_(scheduling_model),
      options_(std::move(options)),
      owned_base_(std::make_unique<drive::ModelDrive>(drive)),
      owned_fault_(
          std::make_unique<drive::FaultDrive>(owned_base_.get(), injector)) {
  drive_ = owned_fault_.get();
}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule) const {
  return Execute(schedule, StepCallback());
}

RecoveringExecutionResult RecoveringExecutor::ExecuteFullScan(
    const sched::Schedule& schedule, const StepCallback& on_step) const {
  const tape::TapeGeometry& g = drive_->geometry();
  RecoveringExecutionResult r;
  Ledger ledger(&r);

  // An open breaker may refuse an op; one re-issue is the half-open probe
  // and is always admitted.
  auto through_breaker = [&](auto issue) {
    drive::OpResult op = issue();
    if (op.status == drive::OpStatus::kCircuitOpen) {
      ledger.Refused(op);
      op = issue();
    }
    return op;
  };

  tape::SegmentId last = g.total_segments() - 1;
  r.read_seconds =
      through_breaker([&] { return drive_->ScanSegments(0, last); })
          .times.read_seconds;
  ledger.Charge(r.read_seconds);
  r.segments_read = g.total_segments();

  // Faults strike the delivery of individual requested spans; the scan
  // itself (a streaming pass) keeps going. The fault layer (if any) charges
  // a re-read of the span for transient errors and loses the span on
  // permanent ones — see FaultDrive::DeliverSpan.
  double recovery_before = 0.0;  // recovery accrued before each delivery
  for (const sched::Request& req : schedule.order) {
    double recovery_at_entry = r.recovery_seconds;
    drive::OpResult op = through_breaker(
        [&] { return drive_->DeliverSpan(req.segment, req.last()); });
    recovery_before += r.recovery_seconds - recovery_at_entry;
    ledger.Recover(op.times.recovery_seconds);
    recovery_before += op.times.recovery_seconds;
    r.transient_read_errors += op.transient_read_errors;
    r.retries += op.transient_read_errors;
    bool ok = op.ok();
    if (!ok) {
      ++r.permanent_errors;
      r.abandoned_segments.push_back(req.segment);
      r.segments_read -= req.count;
    } else {
      ++r.requests_serviced;
    }
    // The pass has delivered the whole request once it reads req.last().
    double at = drive_->model().ReadSeconds(0, req.last()) + recovery_before;
    ledger.Report(on_step, req, at, ok);
  }

  r.rewind_seconds = drive_->Rewind().times.rewind_seconds;
  r.final_position = drive_->Position();
  r.total_seconds =
      r.read_seconds + r.rewind_seconds + r.recovery_seconds;
  return r;
}

RecoveringExecutionResult RecoveringExecutor::Execute(
    const sched::Schedule& schedule, const StepCallback& on_step) const {
  if (schedule.full_tape_scan) return ExecuteFullScan(schedule, on_step);

  const tape::TapeGeometry& g = drive_->geometry();
  RecoveringExecutionResult r;
  r.final_position = schedule.initial_position;
  if (schedule.order.empty()) {
    drive_->SetPosition(schedule.initial_position);
    return r;
  }

  // The live plan: requests not yet serviced, in service order. Repairs
  // replace it wholesale.
  std::vector<sched::Request> queue = schedule.order;
  size_t idx = 0;
  drive_->SetPosition(schedule.initial_position);
  int reschedules_left = kMaxReschedules;
  // The category sums (locate/read/recovery) are kept apart from the
  // ledger's op-order clock, so the zero-fault totals match
  // ExecuteSchedule's summation order exactly.
  Ledger ledger(&r);

  while (idx < queue.size()) {
    const sched::Request req = queue[idx];
    SERPENTINE_CHECK_GE(req.segment, 0);
    SERPENTINE_CHECK_LE(req.last(), g.total_segments() - 1);

    // -------- locate phase (with retries) --------
    bool located = false;
    bool abandoned = false;
    bool reschedule_now = false;
    for (int attempt = 0;;) {
      drive::OpResult op = drive_->Locate(req.segment);
      if (op.status == drive::OpStatus::kOk) {
        r.locate_seconds += op.times.locate_seconds;
        ledger.Charge(op.times.locate_seconds);
        ++r.locates;
        located = true;
        break;
      }
      if (op.status == drive::OpStatus::kCircuitOpen) {
        ledger.Refused(op);
        if (reschedules_left > 0 && queue.size() - idx > 1) {
          // Use the forced idle time to re-plan around the sick drive: the
          // head has not moved, but the faults that tripped the breaker
          // usually have (resets, overshoots), so the plan is suspect.
          reschedule_now = true;
          break;
        }
        continue;
      }
      if (op.status == drive::OpStatus::kDriveReset) {
        // The transport force-rewound to BOT (the drive charged the reset
        // plus the rewind as recovery).
        ++r.drive_resets;
        ledger.Fault("drive-reset", "recover.drive_resets",
                     op.times.recovery_seconds);
        if (reschedules_left > 0 && queue.size() - idx > 1) {
          // The plan is stale: repair from BOT, current request included.
          // With nothing else left to re-plan, fall through to the retry
          // counter instead (a lone request can only be retried, and the
          // counter bounds that).
          reschedule_now = true;
          break;
        }
      } else {  // kLocateOvershoot
        ++r.locate_overshoots;
        ledger.Fault("locate-overshoot", "recover.locate_overshoots",
                     op.times.recovery_seconds);
      }
      ++attempt;
      if (attempt >= kMaxAttempts) {
        abandoned = true;
        break;
      }
      ledger.Backoff(attempt);
    }

    // -------- read phase (with retries) --------
    bool permanent_failure = false;
    if (located) {
      for (int attempt = 0;;) {
        drive::OpResult op = drive_->ReadSegments(req.segment, req.last());
        if (op.status == drive::OpStatus::kOk) {
          r.read_seconds += op.times.read_seconds;
          ledger.Charge(op.times.read_seconds);
          r.segments_read += req.count;
          ++r.requests_serviced;
          ledger.Report(on_step, req, ledger.elapsed(), true);
          break;
        }
        if (op.status == drive::OpStatus::kCircuitOpen) {
          ledger.Refused(op);
          continue;
        }
        if (op.status == drive::OpStatus::kPermanentMediaError) {
          ++r.permanent_errors;
          ledger.Fault("permanent-media-error", "recover.permanent_errors",
                       op.times.recovery_seconds);
          abandoned = true;
          permanent_failure = true;
          break;
        }
        // Transient: the failed pass streamed the span for nothing and
        // the drive repositioned internally (head back at the span start).
        ++r.transient_read_errors;
        ledger.Fault("transient-read-error",
                     "recover.transient_read_errors",
                     op.times.recovery_seconds);
        ++attempt;
        if (attempt >= kMaxAttempts) {
          abandoned = true;
          break;
        }
        ledger.Backoff(attempt);
      }
    }

    if (abandoned) {
      r.abandoned_segments.push_back(req.segment);
      obs::IncrementCounter("recover.abandoned");
      ledger.Report(on_step, req, ledger.elapsed(), false);
      ++idx;
      // A permanent media error invalidates the plan's assumptions about
      // the neighborhood; re-plan the remainder from where the head is.
      if (permanent_failure && reschedules_left > 0 &&
          queue.size() - idx > 1) {
        reschedule_now = true;
      }
    } else if (located) {
      ++idx;  // serviced
    }
    // else: reset path broke out before locating — idx stays, the current
    // request rejoins the (possibly repaired) plan.

    // -------- mid-batch rescheduling --------
    if (reschedule_now) {
      std::vector<sched::Request> remaining(queue.begin() + idx, queue.end());
      if (remaining.size() > 1) {
        sched::Algorithm algorithm =
            RepairAlgorithm(schedule.algorithm, remaining.size());
        auto repaired = sched::BuildSchedule(scheduling_model_,
                                             drive_->Position(), remaining,
                                             algorithm,
                                             options_.scheduler_options);
        if (!repaired.ok()) {
          repaired = sched::BuildSchedule(scheduling_model_,
                                          drive_->Position(), remaining,
                                          sched::Algorithm::kLoss,
                                          options_.scheduler_options);
        }
        if (repaired.ok() && !repaired->full_tape_scan) {
          queue = std::move(repaired->order);
          idx = 0;
          --reschedules_left;
          ++r.reschedules;
          obs::IncrementCounter("recover.reschedules");
          obs::TraceInstant(obs::TraceClock::kVirtual, "recover",
                            "reschedule", ledger.elapsed());
        }
        // On any failure the stale order keeps being serviced; recovery
        // never aborts the batch.
      }
    }
  }

  if (options_.estimate.rewind_at_end) {
    r.rewind_seconds = drive_->Rewind().times.rewind_seconds;
  }
  r.final_position = drive_->Position();
  r.total_seconds = r.locate_seconds + r.read_seconds + r.rewind_seconds +
                    r.recovery_seconds;
  return r;
}

}  // namespace serpentine::sim
