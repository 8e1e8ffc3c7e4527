/// Seeded chaos sweep: fault profiles x schedulers x breaker settings, each
/// run twice. Every combination must keep the online server's core
/// invariants: conservation (shed + completed + failed == arrivals ==
/// total), a monotone virtual clock (busy time never exceeds makespan),
/// legal breaker transitions, the aging bound, and bit-exact determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serpentine/drive/health_drive.h"
#include "serpentine/sim/online_server.h"

namespace serpentine::sim {

// The fault subsystem lives in drive/ since PR 3; pull the names these
// tests predate the move with into scope.
using drive::FaultInjector;
using drive::FaultProfile;
using drive::FaultType;
using drive::LoadFaultProfile;
using drive::ValidateFaultProfile;
namespace {

struct ChaosCase {
  std::string label;
  OnlineServerConfig config;
};

std::vector<ChaosCase> BuildSweep() {
  std::vector<ChaosCase> cases;
  const struct {
    const char* name;
    FaultProfile profile;
  } faults[] = {
      {"none", FaultProfile::None()},
      {"light", FaultProfile::Light()},
      {"heavy", FaultProfile::Heavy().Scaled(2.0)},
  };
  const struct {
    const char* name;
    sched::Algorithm algorithm;
  } schedulers[] = {
      {"fifo", sched::Algorithm::kFifo},
      {"scan", sched::Algorithm::kScan},
      {"loss", sched::Algorithm::kLoss},
  };
  for (const auto& f : faults) {
    for (const auto& s : schedulers) {
      for (bool breaker : {false, true}) {
        ChaosCase c;
        c.label = std::string(f.name) + "/" + s.name +
                  (breaker ? "/breaker" : "/plain");
        c.config.total_requests = 60;
        c.config.arrival_rate_per_hour = 120.0;
        c.config.algorithm = s.algorithm;
        c.config.faults = f.profile;
        c.config.seed = 1234;
        c.config.priority_classes = 2;
        c.config.deadline_seconds = 5400.0;
        c.config.deadline_spread = 0.25;
        c.config.admission.enabled = true;
        c.config.admission.max_queue_depth = 24;
        c.config.dispatch_max_batch = 10;
        c.config.max_wait_cycles = 6;
        c.config.breaker_enabled = breaker;
        c.config.breaker.window_ops = 8;
        c.config.breaker.failure_threshold = 3;
        c.config.breaker.cooldown_seconds = 180.0;
        c.config.breaker.half_open_successes = 1;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

void CheckInvariants(const ChaosCase& c, const OnlineServerResult& r) {
  SCOPED_TRACE(c.label);
  // Conservation: no request lost, none answered twice.
  EXPECT_EQ(r.arrivals, c.config.total_requests);
  EXPECT_EQ(r.shed + r.completed + r.failed, r.arrivals);
  EXPECT_EQ(static_cast<int64_t>(r.shed_records.size()), r.shed);
  for (const ShedRecord& s : r.shed_records) {
    EXPECT_FALSE(s.status.ok());
    EXPECT_TRUE(s.status.code() == StatusCode::kResourceExhausted ||
                s.status.code() == StatusCode::kDeadlineExceeded)
        << s.status.ToString();
  }
  // The virtual clock only moves forward: the drive can never have been
  // busy for longer than the simulated span, and no stat goes negative.
  EXPECT_GE(r.makespan_seconds, 0.0);
  EXPECT_LE(r.drive_busy_seconds, r.makespan_seconds + 1e-6);
  EXPECT_GE(r.recovery_seconds, 0.0);
  EXPECT_GE(r.breaker_wait_seconds, 0.0);
  EXPECT_GE(r.mean_response_seconds, 0.0);
  EXPECT_GE(r.max_response_seconds, r.p99_response_seconds);
  // Aging bound: nobody waits max_wait_cycles dispatch rounds or more.
  EXPECT_LT(r.max_wait_cycles_observed, c.config.max_wait_cycles);
  // Breaker transitions form a contiguous chain of legal edges.
  if (!c.config.breaker_enabled) {
    EXPECT_TRUE(r.breaker_transitions.empty());
    EXPECT_EQ(r.breaker_fast_fails, 0);
  }
  for (size_t i = 0; i < r.breaker_transitions.size(); ++i) {
    const drive::BreakerTransition& t = r.breaker_transitions[i];
    if (i > 0) {
      EXPECT_EQ(t.from, r.breaker_transitions[i - 1].to);
      EXPECT_GE(t.at_seconds, r.breaker_transitions[i - 1].at_seconds);
    } else {
      EXPECT_EQ(t.from, drive::BreakerState::kClosed);
    }
    bool legal = (t.from == drive::BreakerState::kClosed &&
                  t.to == drive::BreakerState::kOpen) ||
                 (t.from == drive::BreakerState::kOpen &&
                  t.to == drive::BreakerState::kHalfOpen) ||
                 (t.from == drive::BreakerState::kHalfOpen &&
                  t.to == drive::BreakerState::kClosed) ||
                 (t.from == drive::BreakerState::kHalfOpen &&
                  t.to == drive::BreakerState::kOpen);
    EXPECT_TRUE(legal) << "illegal edge at " << i;
  }
}

TEST(OnlineChaosTest, SweepHoldsInvariantsAndIsDeterministic) {
  tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  for (const ChaosCase& c : BuildSweep()) {
    StatusOr<OnlineServerResult> first = RunOnlineServer(model, c.config);
    ASSERT_TRUE(first.ok()) << c.label << ": " << first.status().ToString();
    CheckInvariants(c, *first);

    StatusOr<OnlineServerResult> second = RunOnlineServer(model, c.config);
    ASSERT_TRUE(second.ok()) << c.label;
    SCOPED_TRACE(c.label);
    EXPECT_EQ(first->completed, second->completed);
    EXPECT_EQ(first->failed, second->failed);
    EXPECT_EQ(first->shed, second->shed);
    EXPECT_EQ(first->deadline_missed, second->deadline_missed);
    EXPECT_EQ(first->makespan_seconds, second->makespan_seconds);
    EXPECT_EQ(first->drive_busy_seconds, second->drive_busy_seconds);
    EXPECT_EQ(first->p99_response_seconds, second->p99_response_seconds);
    EXPECT_EQ(first->fault_retries, second->fault_retries);
    EXPECT_EQ(first->breaker_fast_fails, second->breaker_fast_fails);
    EXPECT_EQ(first->breaker_wait_seconds, second->breaker_wait_seconds);
    ASSERT_EQ(first->breaker_transitions.size(),
              second->breaker_transitions.size());
    for (size_t i = 0; i < first->breaker_transitions.size(); ++i) {
      EXPECT_EQ(first->breaker_transitions[i].at_seconds,
                second->breaker_transitions[i].at_seconds);
    }
  }
}

}  // namespace
}  // namespace serpentine::sim
