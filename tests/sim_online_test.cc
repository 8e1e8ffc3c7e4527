#include "serpentine/sim/online_server.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "queue_sim_reference.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/tsp/exact.h"
#include "serpentine/tsp/ltsp.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/replicate.h"

namespace serpentine::sim {

// The fault subsystem lives in drive/ since PR 3; pull the names these
// tests predate the move with into scope.
using drive::FaultInjector;
using drive::FaultProfile;
using drive::FaultType;
using drive::LoadFaultProfile;
using drive::ValidateFaultProfile;
namespace {

class OnlineServerTest : public ::testing::Test {
 protected:
  OnlineServerTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  static reference::QueueSimConfig AsQueueConfig(
      const OnlineServerConfig& config) {
    reference::QueueSimConfig base;
    base.arrival_rate_per_hour = config.arrival_rate_per_hour;
    base.total_requests = config.total_requests;
    base.algorithm = config.algorithm;
    base.scheduler_options = config.scheduler_options;
    base.dispatch_min_batch = config.dispatch_min_batch;
    base.dispatch_max_wait_seconds = config.dispatch_max_wait_seconds;
    base.seed = config.seed;
    base.faults = config.faults;
    return base;
  }

  /// Asserts the pinned bit-identity: with every online extension off, the
  /// server reproduces the reference queue-simulator loop exactly — same
  /// completions, same stats, to the last bit.
  void ExpectBitIdentical(const OnlineServerConfig& config) {
    reference::QueueSimResult qs =
        reference::RunQueueSimulation(model_, AsQueueConfig(config));
    StatusOr<OnlineServerResult> online = RunOnlineServer(model_, config);
    ASSERT_TRUE(online.ok()) << online.status().ToString();
    const OnlineServerResult& r = *online;
    EXPECT_EQ(r.shed, 0);
    // The queue sim counts answered-with-error requests inside completed;
    // the online server splits them out.
    EXPECT_EQ(r.completed + r.failed, qs.completed);
    EXPECT_EQ(r.failed, qs.failed);
    EXPECT_EQ(r.batches, qs.batches);
    EXPECT_EQ(r.mean_batch_size, qs.mean_batch_size);
    EXPECT_EQ(r.makespan_seconds, qs.makespan_seconds);
    EXPECT_EQ(r.drive_busy_seconds, qs.drive_busy_seconds);
    EXPECT_EQ(r.utilization, qs.utilization);
    EXPECT_EQ(r.mean_response_seconds, qs.mean_response_seconds);
    EXPECT_EQ(r.p95_response_seconds, qs.p95_response_seconds);
    EXPECT_EQ(r.max_response_seconds, qs.max_response_seconds);
    EXPECT_EQ(r.throughput_per_hour, qs.throughput_per_hour);
    EXPECT_EQ(r.fault_retries, qs.fault_retries);
    EXPECT_EQ(r.drive_resets, qs.drive_resets);
    EXPECT_EQ(r.reschedules, qs.reschedules);
    EXPECT_EQ(r.permanent_errors, qs.permanent_errors);
    EXPECT_EQ(r.recovery_seconds, qs.recovery_seconds);
    EXPECT_EQ(r.breaker_fast_fails, 0);
    EXPECT_TRUE(r.breaker_transitions.empty());
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(OnlineServerTest, BitIdenticalToQueueSimDefaults) {
  OnlineServerConfig config;
  config.total_requests = 150;
  config.arrival_rate_per_hour = 60.0;
  ExpectBitIdentical(config);
}

TEST_F(OnlineServerTest, BitIdenticalToQueueSimAcrossPoliciesAndSeeds) {
  OnlineServerConfig config;
  config.total_requests = 100;
  config.arrival_rate_per_hour = 90.0;
  config.algorithm = sched::Algorithm::kFifo;
  config.seed = 77;
  ExpectBitIdentical(config);

  config.algorithm = sched::Algorithm::kSltf;
  config.dispatch_min_batch = 6;
  config.dispatch_max_wait_seconds = 400.0;
  config.seed = 9;
  ExpectBitIdentical(config);
}

TEST_F(OnlineServerTest, BitIdenticalToQueueSimUnderFaults) {
  // The fault path must replay draw for draw too (injector seeded from the
  // same (faults.seed, seed) pair, recovering executor identical).
  OnlineServerConfig config;
  config.total_requests = 80;
  config.arrival_rate_per_hour = 70.0;
  config.faults = FaultProfile::Light();
  config.seed = 5;
  ExpectBitIdentical(config);

  config.faults = FaultProfile::Heavy();
  config.seed = 21;
  ExpectBitIdentical(config);
}

TEST_F(OnlineServerTest, ReplicatedIsThreadCountInvariant) {
  OnlineServerConfig config;
  config.total_requests = 50;
  config.arrival_rate_per_hour = 100.0;
  config.faults = FaultProfile::Light();
  config.deadline_seconds = 900.0;
  config.admission.enabled = true;
  config.admission.max_queue_depth = 16;
  config.breaker_enabled = true;
  config.breaker.window_ops = 8;
  config.breaker.failure_threshold = 3;

  auto replicated = [&](int threads) {
    auto run = [&](int32_t seed) {
      OnlineServerConfig replica = config;
      replica.seed = seed;
      return RunOnlineServer(model_, replica).value();
    };
    return Replicate("RunOnlineServer", config.seed, 6, threads,
                     model_.SupportsConcurrentUse(), run);
  };
  auto serial = replicated(/*threads=*/1);
  auto threaded = replicated(/*threads=*/4);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial->size(), threaded->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ((*serial)[i].completed, (*threaded)[i].completed);
    EXPECT_EQ((*serial)[i].shed, (*threaded)[i].shed);
    EXPECT_EQ((*serial)[i].p99_response_seconds,
              (*threaded)[i].p99_response_seconds);
    EXPECT_EQ((*serial)[i].breaker_fast_fails,
              (*threaded)[i].breaker_fast_fails);
  }
}

TEST_F(OnlineServerTest, AdmissionBoundsOverloadResponseTimes) {
  // FIFO saturates near 44 requests/hour; 100/hour is > 2x saturation.
  // Unbounded, the queue (and p99) grows without limit; with a depth cap
  // the admitted p99 stays bounded and every rejection is explicit.
  OnlineServerConfig overload;
  overload.total_requests = 300;
  overload.arrival_rate_per_hour = 100.0;
  overload.algorithm = sched::Algorithm::kFifo;

  StatusOr<OnlineServerResult> unbounded = RunOnlineServer(model_, overload);
  ASSERT_TRUE(unbounded.ok());

  OnlineServerConfig capped = overload;
  capped.admission.enabled = true;
  capped.admission.max_queue_depth = 12;
  StatusOr<OnlineServerResult> bounded = RunOnlineServer(model_, capped);
  ASSERT_TRUE(bounded.ok());

  EXPECT_EQ(bounded->shed + bounded->completed + bounded->failed,
            bounded->arrivals);
  EXPECT_GT(bounded->shed, 0);
  ASSERT_EQ(bounded->shed_records.size(),
            static_cast<size_t>(bounded->shed));
  for (const ShedRecord& s : bounded->shed_records) {
    EXPECT_FALSE(s.status.ok());
    EXPECT_EQ(s.status.code(), StatusCode::kResourceExhausted);
    EXPECT_FALSE(s.status.message().empty());
  }
  // Bounded: with at most 12 queued plus one batch in flight, a response
  // can never exceed ~25 mean service times (~85 s each). The unbounded
  // queue blows far past it.
  EXPECT_LT(bounded->p99_response_seconds, 3600.0);
  EXPECT_LT(bounded->p99_response_seconds,
            unbounded->p99_response_seconds / 2.0);
  EXPECT_GT(unbounded->p99_response_seconds, 3600.0);
}

TEST_F(OnlineServerTest, DeadlineSheddingIsExplicit) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 100.0;
  config.algorithm = sched::Algorithm::kFifo;
  config.deadline_seconds = 400.0;
  config.deadline_spread = 0.5;
  config.admission.enabled = true;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->shed + r->completed + r->failed, r->arrivals);
  EXPECT_GT(r->shed, 0);  // 2x saturation: deadlines must become infeasible
  for (const ShedRecord& s : r->shed_records) {
    EXPECT_EQ(s.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(s.status.message().empty());
  }
  // Feasibility checking keeps admitted misses rare compared to admitting
  // everything blindly.
  OnlineServerConfig blind = config;
  blind.admission.enabled = false;
  StatusOr<OnlineServerResult> b = RunOnlineServer(model_, blind);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->shed, 0);
  EXPECT_LT(r->deadline_missed, b->deadline_missed);
}

TEST_F(OnlineServerTest, AgingBoundHolds) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 300.0;
  config.dispatch_max_batch = 6;
  config.priority_classes = 3;
  config.max_wait_cycles = 4;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->completed + r->failed, config.total_requests);
  EXPECT_LT(r->max_wait_cycles_observed, config.max_wait_cycles);

  // Without the bound, the same capped overload starves someone for
  // longer (priorities keep pushing class-2 requests to the back).
  OnlineServerConfig unbound = config;
  unbound.max_wait_cycles = 0;
  StatusOr<OnlineServerResult> u = RunOnlineServer(model_, unbound);
  ASSERT_TRUE(u.ok());
  EXPECT_GE(u->max_wait_cycles_observed, config.max_wait_cycles);
}

TEST_F(OnlineServerTest, DegradationLadderStepsDownUnderBacklog) {
  OnlineServerConfig config;
  config.total_requests = 200;
  config.arrival_rate_per_hour = 400.0;
  config.degradation.enabled = true;
  config.degradation.queue_depth_step = 12;
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->completed + r->failed, config.total_requests);
  EXPECT_GT(r->degraded_batches, 0);
  EXPECT_GE(r->degradation_max_rung, 1);
  EXPECT_LE(r->degradation_max_rung,
            static_cast<int>(kDegradationRungs.size()) - 1);
}

TEST_F(OnlineServerTest, BreakerCycleExercisedDeterministically) {
  OnlineServerConfig config;
  config.total_requests = 120;
  config.arrival_rate_per_hour = 60.0;
  config.faults = FaultProfile::Heavy().Scaled(4.0);
  config.breaker_enabled = true;
  config.breaker.window_ops = 8;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown_seconds = 120.0;
  config.breaker.half_open_successes = 1;

  StatusOr<OnlineServerResult> a = RunOnlineServer(model_, config);
  StatusOr<OnlineServerResult> b = RunOnlineServer(model_, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // The breaker must actually cycle: open at least once, and return from
  // half-open at least once (either verdict).
  ASSERT_GE(a->breaker_transitions.size(), 2u);
  bool opened = false;
  bool probed = false;
  for (size_t i = 0; i < a->breaker_transitions.size(); ++i) {
    const drive::BreakerTransition& t = a->breaker_transitions[i];
    if (i > 0) {
      EXPECT_EQ(t.from, a->breaker_transitions[i - 1].to)
          << "transition chain must be contiguous";
    }
    bool legal =
        (t.from == drive::BreakerState::kClosed &&
         t.to == drive::BreakerState::kOpen) ||
        (t.from == drive::BreakerState::kOpen &&
         t.to == drive::BreakerState::kHalfOpen) ||
        (t.from == drive::BreakerState::kHalfOpen &&
         t.to == drive::BreakerState::kClosed) ||
        (t.from == drive::BreakerState::kHalfOpen &&
         t.to == drive::BreakerState::kOpen);
    EXPECT_TRUE(legal) << "illegal transition at index " << i;
    if (t.to == drive::BreakerState::kOpen) opened = true;
    if (t.from == drive::BreakerState::kHalfOpen) probed = true;
  }
  EXPECT_TRUE(opened);
  EXPECT_TRUE(probed);
  EXPECT_GT(a->breaker_fast_fails, 0);
  EXPECT_GT(a->breaker_wait_seconds, 0.0);

  // Deterministic: the full trajectory replays bit for bit.
  ASSERT_EQ(a->breaker_transitions.size(), b->breaker_transitions.size());
  for (size_t i = 0; i < a->breaker_transitions.size(); ++i) {
    EXPECT_EQ(a->breaker_transitions[i].at_seconds,
              b->breaker_transitions[i].at_seconds);
    EXPECT_EQ(a->breaker_transitions[i].to, b->breaker_transitions[i].to);
  }
  EXPECT_EQ(a->completed, b->completed);
  EXPECT_EQ(a->breaker_wait_seconds, b->breaker_wait_seconds);
}

TEST_F(OnlineServerTest, DepthCounterKeepsTheLeftoverOfACappedDispatch) {
  OnlineServerConfig config;
  config.total_requests = 60;
  config.arrival_rate_per_hour = 300.0;  // ~3x saturation: a queue builds
  config.dispatch_max_batch = 4;
  obs::TraceRecorder recorder;
  obs::TraceRecorder::SetActive(&recorder);
  StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
  obs::TraceRecorder::SetActive(nullptr);
  ASSERT_TRUE(r.ok());

  // The counter samples and batch spans, in export order. A dispatch
  // records the depth it leaves, then its "batch" span, both at the
  // dispatch instant; each admission records the depth it leaves.
  struct Event {
    char ph;
    std::string name;
    long long ts;
    double value;  // the counter value, or the batch size
  };
  std::vector<Event> events;
  const std::string json = recorder.ToJson();
  auto field = [&](size_t from, size_t to, const std::string& key) {
    size_t at = json.find(key, from);
    return at < to ? at + key.size() : std::string::npos;
  };
  const std::string kOpen = "{\"ph\":\"";
  for (size_t at = json.find(kOpen); at != std::string::npos;) {
    size_t next = json.find(kOpen, at + 1);
    size_t end = next == std::string::npos ? json.size() : next;
    size_t name = field(at, end, "\"name\":\"");
    size_t ts = field(at, end, "\"ts\":");
    size_t value = field(at, end, "\"value\":");
    if (value == std::string::npos) value = field(at, end, "\"size\":");
    if (name != std::string::npos && ts != std::string::npos &&
        value != std::string::npos) {
      events.push_back(Event{json[at + kOpen.size()],
                             json.substr(name, json.find('"', name) - name),
                             std::atoll(json.c_str() + ts),
                             std::atof(json.c_str() + value)});
    }
    at = next;
  }

  int64_t batches = 0;
  int64_t capped_with_leftover = 0;
  double depth = 0.0;
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].ph != 'C' || events[i].name != "online.depth") continue;
    bool dispatch = i + 1 < events.size() && events[i + 1].ph == 'X' &&
                    events[i + 1].name == "batch" &&
                    events[i + 1].ts == events[i].ts;
    if (dispatch) {
      ++batches;
      EXPECT_EQ(events[i].value, depth - events[i + 1].value)
          << "dispatch " << batches << " at " << events[i].ts << " us";
      if (events[i].value > 0.0) ++capped_with_leftover;
    }
    depth = events[i].value;
  }
  EXPECT_EQ(batches, r->batches);
  EXPECT_GT(capped_with_leftover, 0);
}

TEST_F(OnlineServerTest, DuplicateSegmentsAnswerOldestFirst) {
  // Three requests for one segment and one elsewhere, dispatched as one
  // batch: the segment is read three times, and each read answers the
  // oldest of its requests still waiting, whatever the order in between.
  OnlineServerConfig config;
  config.dispatch_min_batch = 4;
  ASSERT_TRUE(ValidateOnlineServerConfig(config).ok());
  const tape::SegmentId segment = 123456;
  ServingCore core({&model_}, config, config.seed);
  std::vector<int64_t> answered;
  std::vector<double> at_times;
  core.set_completion_callback(
      [&](const ServingRequest& r, double at, bool ok) {
        EXPECT_TRUE(ok);
        if (r.segment != segment) return;
        answered.push_back(r.id);
        at_times.push_back(at);
      });
  for (int i = 0; i < 4; ++i) {
    ServingRequest r;
    r.time = 10.0 * i;
    r.segment = i == 2 ? 400000 : segment;
    r.id = i;
    core.Push(r);
  }
  core.FinishInput();
  for (int guard = 0; core.Step() != ServingStep::kDone; ++guard) {
    ASSERT_LT(guard, 1000) << "serving loop failed to converge";
  }
  EXPECT_EQ(core.result().batches, 1);
  EXPECT_EQ(answered, (std::vector<int64_t>{0, 1, 3}));
  ASSERT_EQ(at_times.size(), 3u);
  EXPECT_LT(at_times[0], at_times[1]);
  EXPECT_LT(at_times[1], at_times[2]);
}

TEST_F(OnlineServerTest, ReadBatchAnswersEachRequestWhenThePassReachesIt) {
  // One READ batch through the serving loop: a locate to BOT, one pass
  // over the whole tape, then a rewind. Each request is answered when the
  // pass reaches its segment, and the drive ends the batch back at BOT.
  constexpr int kN = 24;
  const tape::SegmentId last = model_.geometry().total_segments() - 1;
  OnlineServerConfig config;
  config.algorithm = sched::Algorithm::kRead;
  config.dispatch_min_batch = kN;
  ASSERT_TRUE(ValidateOnlineServerConfig(config).ok());
  std::vector<ServingRequest> requests;
  Lrand48 rng(31);
  for (int i = 0; i < kN; ++i) {
    ServingRequest r;
    r.time = 10.0 * (i + 1);
    r.segment = rng.NextBounded(last + 1);
    r.id = i;
    requests.push_back(r);
  }
  // The batch dispatches when the N-th request arrives, with the head at
  // BOT; a request's fault-free stamp is where the pass reaches it.
  const double pass_start = requests.back().time + model_.LocateSeconds(0, 0);
  auto fault_free_stamp = [&](tape::SegmentId segment) {
    return pass_start + model_.ReadSeconds(0, segment);
  };

  struct Answer {
    tape::SegmentId segment;
    double at;
    bool ok;
  };
  auto serve = [&](const OnlineServerConfig& c, std::vector<Answer>* answers) {
    ServingCore core({&model_}, c, c.seed);
    core.set_completion_callback(
        [&](const ServingRequest& r, double at, bool ok) {
          answers->push_back(Answer{r.segment, at, ok});
        });
    for (const ServingRequest& r : requests) core.Push(r);
    core.FinishInput();
    for (int guard = 0; core.Step() != ServingStep::kDone; ++guard) {
      EXPECT_LT(guard, 1000) << "serving loop failed to converge";
      if (guard >= 1000) break;
    }
    core.FinishResult();
    EXPECT_EQ(core.result().batches, 1);
    return std::make_pair(core.clock(), core.result());
  };

  std::vector<Answer> answers;
  auto [end_clock, result] = serve(config, &answers);
  ASSERT_EQ(answers.size(), static_cast<size_t>(kN));
  EXPECT_EQ(result.completed, kN);
  for (const Answer& a : answers) {
    EXPECT_TRUE(a.ok);
    EXPECT_EQ(a.at, fault_free_stamp(a.segment)) << "segment " << a.segment;
  }
  EXPECT_DOUBLE_EQ(end_clock, pass_start + (model_.ReadSeconds(0, last) +
                                            model_.RewindSeconds(last)));

  // Under light faults with the breaker armed, every request is still
  // answered exactly once, and recovery can only delay an answer.
  config.faults = FaultProfile::Light();
  config.breaker_enabled = true;
  double recovery_seconds = 0.0;
  for (int32_t fault_seed = 1; fault_seed <= 20; ++fault_seed) {
    config.faults.seed = fault_seed;
    std::vector<Answer> faulty;
    auto [faulty_clock, faulty_result] = serve(config, &faulty);
    EXPECT_EQ(faulty_result.completed + faulty_result.failed, kN);
    EXPECT_EQ(faulty.size(), static_cast<size_t>(kN));
    for (const Answer& a : faulty) {
      if (a.ok) {
        EXPECT_GE(a.at, fault_free_stamp(a.segment))
            << "fault seed " << fault_seed << ", segment " << a.segment;
      }
    }
    EXPECT_GE(faulty_clock, end_clock) << "fault seed " << fault_seed;
    recovery_seconds += faulty_result.recovery_seconds;
  }
  EXPECT_GT(recovery_seconds, 0.0) << "no fault struck any of the passes";
}

TEST_F(OnlineServerTest, ValidateRejectsGarbageConfigs) {
  OnlineServerConfig ok;
  EXPECT_TRUE(ValidateOnlineServerConfig(ok).ok());

  OnlineServerConfig c = ok;
  c.arrival_rate_per_hour = std::nan("");
  EXPECT_EQ(RunOnlineServer(model_, c).status().code(),
            StatusCode::kInvalidArgument);

  c = ok;
  c.arrival_rate_per_hour = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ValidateOnlineServerConfig(c).code(),
            StatusCode::kInvalidArgument);

  c = ok;
  c.total_requests = 0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  // Async-span ids pack the arrival index into 32 bits.
  c = ok;
  c.total_requests = (int64_t{1} << 32) - 1;
  EXPECT_TRUE(ValidateOnlineServerConfig(c).ok());
  c.total_requests = int64_t{1} << 32;
  Status wrap = ValidateOnlineServerConfig(c);
  EXPECT_EQ(wrap.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(wrap.message().find("2^32"), std::string::npos);

  c = ok;
  c.dispatch_min_batch = 0;
  EXPECT_EQ(ValidateOnlineServerConfig(c).code(),
            StatusCode::kInvalidArgument);

  for (double wait : {std::nan(""), 0.0, -1.0}) {
    c = ok;
    c.dispatch_max_wait_seconds = wait;
    EXPECT_EQ(ValidateOnlineServerConfig(c).code(),
              StatusCode::kInvalidArgument)
        << "dispatch_max_wait_seconds = " << wait;
  }

  c = ok;
  c.deadline_seconds = -5.0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.priority_classes = 0;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.faults.transient_read_rate = 1.5;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());

  c = ok;
  c.breaker_enabled = true;
  c.breaker.window_ops = -1;
  EXPECT_FALSE(ValidateOnlineServerConfig(c).ok());
}

TEST_F(OnlineServerTest, OptBatchesStayWithinTheHeldKarpLimit) {
  // OPT refuses a batch of more than tsp::kMaxHeldKarpCities requests and
  // the serving loop cannot recover from a refused build, so the validator
  // refuses every config that can hand OPT such a batch. Rejected configs
  // are only validated: one that slipped through would abort mid-run.
  OnlineServerConfig opt;
  opt.algorithm = sched::Algorithm::kOpt;
  opt.arrival_rate_per_hour = 400.0;
  opt.total_requests = 200;
  Status s = ValidateOnlineServerConfig(opt);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  for (const std::string& named :
       {std::to_string(tsp::kMaxHeldKarpCities), std::string("total_requests"),
        std::string("dispatch_max_batch"), std::string("max_wait_cycles")}) {
    EXPECT_NE(s.message().find(named), std::string::npos)
        << named << " missing from: " << s.message();
  }

  // The degradation ladder replaces the algorithm and has no OPT rung.
  OnlineServerConfig ladder = opt;
  ladder.degradation.enabled = true;
  EXPECT_TRUE(ValidateOnlineServerConfig(ladder).ok());

  // Under an aging bound, forced boarding can exceed the dispatch cap.
  OnlineServerConfig aged = opt;
  aged.dispatch_max_batch = 12;
  aged.max_wait_cycles = 2;
  EXPECT_EQ(ValidateOnlineServerConfig(aged).code(),
            StatusCode::kInvalidArgument);

  // A cap alone bounds every batch, and so does a stream no longer than
  // the limit; both run to completion.
  OnlineServerConfig capped = opt;
  capped.dispatch_max_batch = 12;
  OnlineServerConfig short_stream = opt;
  short_stream.total_requests = tsp::kMaxHeldKarpCities;
  for (const OnlineServerConfig* config : {&capped, &short_stream}) {
    StatusOr<OnlineServerResult> r = RunOnlineServer(model_, *config);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->arrivals, config->total_requests);
    EXPECT_EQ(r->shed + r->completed + r->failed, r->arrivals);
  }
}

TEST_F(OnlineServerTest, LtspBatchesStayWithinTheIntervalDpLimit) {
  // LTSP's interval DP refuses a batch of more than tsp::kMaxLtspCities
  // groups, so the validator holds it to that bound by OPT's rule.
  OnlineServerConfig ltsp;
  ltsp.algorithm = sched::Algorithm::kLtsp;
  ltsp.total_requests = tsp::kMaxLtspCities + 1;
  Status s = ValidateOnlineServerConfig(ltsp);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  for (const std::string& named :
       {std::to_string(tsp::kMaxLtspCities), std::string("ltsp-exact")}) {
    EXPECT_NE(s.message().find(named), std::string::npos)
        << named << " missing from: " << s.message();
  }

  // A cap at the limit bounds every batch.
  OnlineServerConfig capped = ltsp;
  capped.dispatch_max_batch = tsp::kMaxLtspCities;
  capped.max_wait_cycles = 0;
  EXPECT_TRUE(ValidateOnlineServerConfig(capped).ok());

  // The degradation ladder replaces the algorithm and has no LTSP rung.
  for (OnlineServerConfig config : {capped, ltsp}) {
    config.degradation.enabled = true;
    EXPECT_TRUE(ValidateOnlineServerConfig(config).ok());
  }
}

TEST_F(OnlineServerTest, ServesWhatEachRegistryNameBuilds) {
  // Every registry name serves the scheduler it builds. With all N
  // arrivals boarding one batch, the drive is busy exactly as long as the
  // entry's own schedule of those arrivals, from BOT, is estimated to
  // take. The variants that refine LOSS must show it: on this seed their
  // schedules estimate differently from plain LOSS.
  std::map<std::string, double> estimates;
  for (const sched::RegistryEntry& entry :
       sched::Registry::Default().entries()) {
    OnlineServerConfig config;
    config.algorithm = entry.algorithm;
    config.scheduler_options = entry.options;
    config.total_requests = entry.algorithm == sched::Algorithm::kOpt ? 12 : 64;
    config.dispatch_min_batch = static_cast<int>(config.total_requests);
    config.seed = 5;
    ASSERT_TRUE(ValidateOnlineServerConfig(config).ok()) << entry.name;

    std::vector<sched::Request> batch;
    for (const ServingRequest& a :
         GenerateOnlineArrivals(config, model_.geometry().total_segments())) {
      batch.push_back(sched::Request{a.segment, 1});
    }
    StatusOr<sched::Schedule> schedule = entry.Build(model_, 0, batch);
    ASSERT_TRUE(schedule.ok()) << entry.name;
    const double estimate = sched::EstimateScheduleSeconds(model_, *schedule);

    StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
    ASSERT_TRUE(r.ok()) << entry.name << ": " << r.status().ToString();
    EXPECT_EQ(r->batches, 1) << entry.name;
    EXPECT_NEAR(r->drive_busy_seconds, estimate, 1e-9 * estimate)
        << entry.name;
    estimates[entry.name] = estimate;
  }
  EXPECT_NE(estimates.at("loss-mt-oropt"), estimates.at("loss"));
  EXPECT_NE(estimates.at("ltsp-exact"), estimates.at("loss"));
}

TEST_F(OnlineServerTest, SaturatedFifoServesAtTheMeanServiceRate) {
  // A saturated FIFO drive never idles, and each service is a locate from
  // where the previous read left the head to an independent uniform
  // segment, then a one-segment read. So its throughput is 3600 / E[that],
  // a property of the locate model alone (about 82.5 s, or 43.6/h, on
  // this tape). Estimate it by Monte Carlo on a stream unrelated to the
  // arrivals, and hold the serving loop to it: unlike the bit-identity
  // pins above, this catches a wrong answer the loop and the reference
  // share.
  const tape::TapeGeometry& g = model_.geometry();
  Lrand48 rng(424242);
  constexpr int kPairs = 200000;
  double service_seconds = 0.0;
  for (int i = 0; i < kPairs; ++i) {
    tape::SegmentId read = rng.NextBounded(g.total_segments());
    tape::SegmentId next = rng.NextBounded(g.total_segments());
    service_seconds += model_.LocateSeconds(
        sched::OutPosition(g, sched::Request{read, 1}), next);
    service_seconds += model_.ReadSeconds(next, next);
  }
  const double law_per_hour = 3600.0 / (service_seconds / kPairs);

  OnlineServerConfig uncapped;
  uncapped.algorithm = sched::Algorithm::kFifo;
  uncapped.arrival_rate_per_hour = 130.0;  // 3x saturation
  uncapped.total_requests = 8000;
  OnlineServerConfig capped = uncapped;  // overload-fifo's caps
  capped.admission.enabled = true;
  capped.admission.max_queue_depth = 256;
  capped.dispatch_max_batch = 64;
  for (const OnlineServerConfig* base : {&uncapped, &capped}) {
    for (int32_t seed = 1; seed <= 5; ++seed) {
      OnlineServerConfig config = *base;
      config.seed = seed;
      StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_NEAR(r->throughput_per_hour / law_per_hour, 1.0, 0.04)
          << (base == &capped ? "capped" : "uncapped") << ", seed " << seed
          << ": " << r->throughput_per_hour << "/h against the law's "
          << law_per_hour << "/h";
    }
  }
}

}  // namespace
}  // namespace serpentine::sim
