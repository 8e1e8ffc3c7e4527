#include "serpentine/drive/fault_injector.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/sim/physical_drive.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sim {

// The fault subsystem lives in drive/ since PR 3; pull the names these
// tests predate the move with into scope.
using drive::FaultInjector;
using drive::FaultProfile;
using drive::FaultType;
using drive::LoadFaultProfile;
using drive::ValidateFaultProfile;
namespace {

using sched::Algorithm;
using sched::BuildSchedule;
using sched::Request;
using tape::Dlt4000LocateModel;
using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;
using tape::TapeGeometry;

class FaultTest : public ::testing::Test {
 protected:
  FaultTest()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> UniformBatch(int n, int32_t seed) {
    Lrand48 rng(seed);
    return GenerateUniformRequests(rng, n,
                                   model_.geometry().total_segments());
  }

  Dlt4000LocateModel model_;
};

// ---------------------------------------------------------------------------
// FaultProfile.
// ---------------------------------------------------------------------------

TEST(FaultProfileTest, DefaultAndNoneInjectNothing) {
  EXPECT_FALSE(FaultProfile().any());
  EXPECT_FALSE(FaultProfile::None().any());
  EXPECT_TRUE(FaultProfile::Light().any());
  EXPECT_TRUE(FaultProfile::Heavy().any());
}

TEST(FaultProfileTest, ScaledClampsRatesToProbabilities) {
  FaultProfile p = FaultProfile::Heavy().Scaled(1000.0);
  EXPECT_LE(p.transient_read_rate, 1.0);
  EXPECT_LE(p.locate_overshoot_rate, 1.0);
  EXPECT_LE(p.drive_reset_rate, 1.0);
  EXPECT_LE(p.permanent_error_rate, 1.0);
  EXPECT_FALSE(FaultProfile::Heavy().Scaled(0.0).any());
  // Timings and seed are untouched by scaling.
  EXPECT_DOUBLE_EQ(p.reset_seconds, FaultProfile::Heavy().reset_seconds);
  EXPECT_EQ(p.seed, FaultProfile::Heavy().seed);
}

TEST(FaultProfileTest, LoadsNamedProfiles) {
  auto none = LoadFaultProfile("none");
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->any());
  auto light = LoadFaultProfile("light");
  ASSERT_TRUE(light.ok());
  EXPECT_DOUBLE_EQ(light->transient_read_rate,
                   FaultProfile::Light().transient_read_rate);
  auto heavy = LoadFaultProfile("heavy");
  ASSERT_TRUE(heavy.ok());
  EXPECT_DOUBLE_EQ(heavy->drive_reset_rate,
                   FaultProfile::Heavy().drive_reset_rate);
}

TEST(FaultProfileTest, LoadsKeyValueFile) {
  std::string path = testing::TempDir() + "/fault_profile.conf";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("# a drive having a very specific day\n"
             "transient_read_rate = 0.25\n"
             "reset_seconds = 99.5\n"
             "seed = 777\n\n",
             f);
  std::fclose(f);
  auto profile = LoadFaultProfile(path);
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_DOUBLE_EQ(profile->transient_read_rate, 0.25);
  EXPECT_DOUBLE_EQ(profile->reset_seconds, 99.5);
  EXPECT_EQ(profile->seed, 777);
  // Unlisted keys keep their defaults.
  EXPECT_DOUBLE_EQ(profile->drive_reset_rate, 0.0);
}

TEST(FaultProfileTest, RejectsUnknownKeysAndMissingFiles) {
  // The robot keys are not profile fields (robot faults are not modelled),
  // so a profile naming them is refused like any other unknown key.
  for (const char* line : {"blorp_rate = 0.5\n", "mount_failure_rate = 0.1\n",
                           "mount_retry_seconds = 20\n"}) {
    std::string path = testing::TempDir() + "/bad_profile.conf";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(line, f);
    std::fclose(f);
    auto profile = LoadFaultProfile(path);
    ASSERT_FALSE(profile.ok()) << line;
    EXPECT_NE(profile.status().message().find("unknown fault profile key"),
              std::string::npos)
        << profile.status().ToString();
  }
  EXPECT_FALSE(LoadFaultProfile("/no/such/file").ok());
}

TEST(FaultProfileTest, RejectsNumbersWithTrailingText) {
  // strtod-style parsing would read "0.01abc" as 0.01 and "7.5" as seed 7.
  for (const char* line : {"transient_read_rate = 0.01abc\n",
                           "reset_seconds = abc\n", "seed = 7.5\n",
                           "seed = 99999999999\n"}) {
    std::string path = testing::TempDir() + "/trailing_profile.conf";
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(line, f);
    std::fclose(f);
    auto profile = LoadFaultProfile(path);
    ASSERT_FALSE(profile.ok()) << line;
    EXPECT_EQ(profile.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(profile.status().message().find(":1:"), std::string::npos)
        << profile.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// FaultInjector determinism.
// ---------------------------------------------------------------------------

TEST(FaultInjectorTest, SameSeedSameStream) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector a(profile);
  FaultInjector b(profile);
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.DrawLocateFault(), b.DrawLocateFault());
    EXPECT_EQ(a.DrawReadFault(i), b.DrawReadFault(i));
    EXPECT_EQ(a.OvershootTarget(g, 1000 + i), b.OvershootTarget(g, 1000 + i));
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_EQ(a.bad_segments(), b.bad_segments());
}

TEST(FaultInjectorTest, ReseedRestartsTheStream) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector a(profile);
  std::vector<FaultType> first;
  for (int i = 0; i < 50; ++i) first.push_back(a.DrawLocateFault());
  a.Reseed(profile.seed);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.DrawLocateFault(), first[i]);
}

TEST(FaultInjectorTest, StickyBadSegmentsConsumeNoDraw) {
  FaultProfile profile;
  profile.permanent_error_rate = 1.0;
  FaultInjector a(profile);
  FaultInjector b(profile);
  EXPECT_EQ(a.DrawReadFault(42), FaultType::kPermanentMediaError);
  EXPECT_TRUE(a.IsBadSegment(42));
  // Re-reading the bad segment must not advance the stream: after one extra
  // sticky hit, `a` still agrees with `b` (which never re-read) on the
  // subsequent overshoot draws.
  EXPECT_EQ(a.DrawReadFault(42), FaultType::kPermanentMediaError);
  EXPECT_EQ(b.DrawReadFault(42), FaultType::kPermanentMediaError);
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.OvershootTarget(g, 1000 + i), b.OvershootTarget(g, 1000 + i));
  }
}

TEST(FaultInjectorTest, OvershootTargetNearButNeverAtDestination) {
  FaultProfile profile = FaultProfile::Heavy();
  FaultInjector injector(profile);
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 1);
  Lrand48 rng(7);
  for (int i = 0; i < 500; ++i) {
    SegmentId dst = rng.NextBounded(g.total_segments());
    SegmentId settled = injector.OvershootTarget(g, dst);
    EXPECT_NE(settled, dst);
    EXPECT_GE(settled, 0);
    EXPECT_LT(settled, g.total_segments());
  }
}

TEST(FaultInjectorTest, ZeroProfileNeverInjects) {
  FaultInjector injector(FaultProfile{});
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(injector.DrawLocateFault(), FaultType::kNone);
    EXPECT_EQ(injector.DrawReadFault(i), FaultType::kNone);
  }
  EXPECT_EQ(injector.faults_injected(), 0);
}

// ---------------------------------------------------------------------------
// RecoveringExecutor: golden equality with ExecuteSchedule.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, ZeroFaultsReproduceExecuteScheduleExactly) {
  for (Algorithm algorithm :
       {Algorithm::kLoss, Algorithm::kSltf, Algorithm::kFifo}) {
    auto schedule = BuildSchedule(model_, 5000, UniformBatch(48, 11),
                                  algorithm);
    ASSERT_TRUE(schedule.ok());
    ExecutionResult plain = ExecuteSchedule(model_, *schedule);

    FaultInjector zero{FaultProfile{}};
    for (FaultInjector* injector : {static_cast<FaultInjector*>(nullptr),
                                    &zero}) {
      RecoveringExecutor executor(model_, injector);
      RecoveringExecutionResult r = executor.Execute(*schedule);
      // Bitwise, not approximate: the fault-aware path must not perturb the
      // paper's figures at all.
      EXPECT_EQ(r.total_seconds, plain.total_seconds);
      EXPECT_EQ(r.locate_seconds, plain.locate_seconds);
      EXPECT_EQ(r.read_seconds, plain.read_seconds);
      EXPECT_EQ(r.rewind_seconds, plain.rewind_seconds);
      EXPECT_EQ(r.final_position, plain.final_position);
      EXPECT_EQ(r.locates, plain.locates);
      EXPECT_EQ(r.segments_read, plain.segments_read);
      EXPECT_EQ(r.recovery_seconds, 0.0);
      EXPECT_EQ(r.requests_serviced, 48);
      EXPECT_TRUE(r.abandoned_segments.empty());
    }
  }
}

TEST_F(FaultTest, ZeroFaultsReproduceExecuteScheduleWithRewind) {
  auto schedule = BuildSchedule(model_, 0, UniformBatch(16, 3),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  sched::EstimateOptions estimate;
  estimate.rewind_at_end = true;
  ExecutionResult plain = ExecuteSchedule(model_, *schedule, estimate);
  RecoveryOptions options;
  options.estimate = estimate;
  RecoveringExecutor executor(model_, nullptr, options);
  RecoveringExecutionResult r = executor.Execute(*schedule);
  EXPECT_EQ(r.total_seconds, plain.total_seconds);
  EXPECT_EQ(r.rewind_seconds, plain.rewind_seconds);
  EXPECT_EQ(r.final_position, 0);
}

TEST_F(FaultTest, ZeroFaultsReproduceFullTapeScan) {
  std::vector<Request> batch = UniformBatch(8, 5);
  batch.push_back(Request{100, 50});  // one multi-segment request
  auto schedule = BuildSchedule(model_, 1234, batch, Algorithm::kRead);
  ASSERT_TRUE(schedule.ok());
  ASSERT_TRUE(schedule->full_tape_scan);
  ExecutionResult plain = ExecuteSchedule(model_, *schedule);
  RecoveringExecutor executor(model_, nullptr);
  // The pass has read a request once it reads its last segment, so that
  // is the completion stamp, as TertiaryStore::FlushTape reports it.
  int steps = 0;
  bool saw_multi_segment = false;
  RecoveringExecutionResult r = executor.Execute(
      *schedule, [&](const Request& req, double at_seconds, double, bool ok) {
        ++steps;
        EXPECT_TRUE(ok);
        EXPECT_EQ(at_seconds, model_.ReadSeconds(0, req.last()))
            << "request at " << req.segment << " x " << req.count;
        if (req.count == 50) saw_multi_segment = true;
      });
  EXPECT_EQ(steps, 9);
  EXPECT_TRUE(saw_multi_segment);
  EXPECT_EQ(r.total_seconds, plain.total_seconds);
  EXPECT_EQ(r.read_seconds, plain.read_seconds);
  EXPECT_EQ(r.rewind_seconds, plain.rewind_seconds);
  EXPECT_EQ(r.final_position, plain.final_position);
  EXPECT_EQ(r.segments_read, plain.segments_read);
  EXPECT_EQ(r.requests_serviced, 9);
}

TEST_F(FaultTest, StepsAreLocatePlusReadAndTileTheElapsedTime) {
  auto schedule = BuildSchedule(model_, 5000, UniformBatch(48, 17),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  // No fault: each request's step is exactly its locate plus its read, as
  // a twin drive replaying the order charges them.
  drive::ModelDrive twin(model_, schedule->initial_position);
  int steps = 0;
  RecoveringExecutor(model_, nullptr)
      .Execute(*schedule,
               [&](const Request& req, double, double step, bool ok) {
                 ++steps;
                 EXPECT_TRUE(ok);
                 double expected =
                     twin.Locate(req.segment).times.locate_seconds;
                 expected +=
                     twin.ReadSegments(req.segment, req.last())
                         .times.read_seconds;
                 EXPECT_EQ(step, expected) << "request " << steps;
               });
  EXPECT_EQ(steps, 48);

  // Under faults the steps still add up to the completion stamps (up to
  // summation order), so every charge lands in both.
  for (bool scan : {false, true}) {
    auto faulty_schedule =
        scan ? BuildSchedule(model_, 0, UniformBatch(48, 17), Algorithm::kRead)
             : schedule;
    ASSERT_TRUE(faulty_schedule.ok());
    FaultInjector injector(FaultProfile::Heavy().Scaled(3.0));
    double stepped = 0.0;
    RecoveringExecutionResult r =
        RecoveringExecutor(model_, &injector)
            .Execute(*faulty_schedule,
                     [&](const Request&, double at, double step, bool) {
                       EXPECT_GE(step, 0.0);
                       stepped += step;
                       if (!scan) {
                         EXPECT_NEAR(stepped, at, 1e-9 * at);
                       }
                     });
    EXPECT_GT(r.recovery_seconds, 0.0) << "scan " << scan;
    // A walk charges everything before its last callback; a scan also
    // rewinds after it.
    EXPECT_NEAR(stepped, r.total_seconds - r.rewind_seconds,
                1e-9 * r.total_seconds)
        << "scan " << scan;
  }
}

TEST_F(FaultTest, EmptyScheduleIsZeroWork) {
  sched::Schedule empty;
  empty.initial_position = 777;
  RecoveringExecutor executor(model_, nullptr);
  RecoveringExecutionResult r = executor.Execute(empty);
  EXPECT_EQ(r.total_seconds, 0.0);
  EXPECT_EQ(r.final_position, 777);
  EXPECT_EQ(r.requests_serviced, 0);
}

// ---------------------------------------------------------------------------
// RecoveringExecutor: recovery behavior.
// ---------------------------------------------------------------------------

TEST_F(FaultTest, DeterministicUnderFaults) {
  FaultProfile profile = FaultProfile::Heavy();
  auto schedule = BuildSchedule(model_, 0, UniformBatch(32, 9),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  FaultInjector a(profile);
  FaultInjector b(profile);
  RecoveringExecutionResult ra =
      RecoveringExecutor(model_, &a).Execute(*schedule);
  RecoveringExecutionResult rb =
      RecoveringExecutor(model_, &b).Execute(*schedule);
  EXPECT_EQ(ra.total_seconds, rb.total_seconds);
  EXPECT_EQ(ra.recovery_seconds, rb.recovery_seconds);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_EQ(ra.reschedules, rb.reschedules);
  EXPECT_EQ(ra.abandoned_segments, rb.abandoned_segments);
  EXPECT_EQ(ra.final_position, rb.final_position);
}

TEST_F(FaultTest, EveryRequestServicedOrAbandoned) {
  for (double intensity : {0.5, 1.0, 3.0}) {
    FaultProfile profile = FaultProfile::Heavy().Scaled(intensity);
    FaultInjector injector(profile);
    auto schedule = BuildSchedule(model_, 0, UniformBatch(40, 13),
                                  Algorithm::kLoss);
    ASSERT_TRUE(schedule.ok());
    int callbacks = 0, failures = 0;
    double last_at = 0.0;
    RecoveringExecutionResult r =
        RecoveringExecutor(model_, &injector)
            .Execute(*schedule,
                     [&](const Request&, double at, double, bool ok) {
                       ++callbacks;
                       if (!ok) ++failures;
                       // Completion stamps are monotone.
                       EXPECT_GE(at, last_at);
                       last_at = at;
                     });
    EXPECT_EQ(callbacks, 40);
    EXPECT_EQ(failures,
              static_cast<int>(r.abandoned_segments.size()));
    EXPECT_EQ(r.requests_serviced +
                  static_cast<int64_t>(r.abandoned_segments.size()),
              40);
    EXPECT_NEAR(r.total_seconds,
                r.locate_seconds + r.read_seconds + r.rewind_seconds +
                    r.recovery_seconds,
                1e-9);
    EXPECT_GE(r.recovery_seconds, 0.0);
    EXPECT_LE(last_at, r.total_seconds + 1e-9);
  }
}

TEST_F(FaultTest, PermanentMediaErrorsAreSkippedAndReported) {
  FaultProfile profile;
  profile.permanent_error_rate = 1.0;  // every span is unreadable
  FaultInjector injector(profile);
  auto schedule = BuildSchedule(model_, 0, UniformBatch(12, 17),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  RecoveringExecutionResult r =
      RecoveringExecutor(model_, &injector).Execute(*schedule);
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 12u);
  EXPECT_EQ(r.permanent_errors, 12);
  EXPECT_EQ(r.segments_read, 0);
  EXPECT_GT(r.reschedules, 0);  // each loss re-plans the remainder
}

TEST_F(FaultTest, RetryExhaustionAbandonsUnderPureTransients) {
  ASSERT_EQ(RecoveringExecutor::kMaxAttempts, 4);
  ASSERT_EQ(RecoveringExecutor::kFirstBackoffSeconds, 0.5);
  FaultProfile profile;
  profile.transient_read_rate = 1.0;  // every read attempt fails
  FaultInjector injector(profile);
  auto schedule = BuildSchedule(model_, 0, UniformBatch(6, 19),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  // Each request locates once, then fails 4 read passes with a wait of
  // 0.5, 1 and 2 s between them, all charged in that order. A twin drive
  // replays the locates: a failed pass leaves the head at the span start.
  drive::ModelDrive twin(model_, schedule->initial_position);
  double fault_sum = 0.0;
  int steps = 0;
  RecoveringExecutionResult r =
      RecoveringExecutor(model_, &injector)
          .Execute(*schedule,
                   [&](const Request& req, double, double step, bool ok) {
                     ++steps;
                     EXPECT_FALSE(ok);
                     double pass = profile.reread_overhead_seconds +
                                   model_.ReadSeconds(req.segment, req.last());
                     double expected =
                         twin.Locate(req.segment).times.locate_seconds;
                     for (double backoff : {0.5, 1.0, 2.0}) {
                       expected += pass;
                       expected += backoff;
                     }
                     expected += pass;
                     EXPECT_EQ(step, expected) << "request " << steps;
                     fault_sum += 4 * pass;
                   });
  EXPECT_EQ(steps, 6);
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 6u);
  // Each request burned 4 passes and 3 backoffs.
  EXPECT_EQ(r.transient_read_errors, 6 * 4);
  EXPECT_EQ(r.retries, 6 * 3);
  EXPECT_NEAR(r.recovery_seconds - fault_sum, 6 * (0.5 + 1.0 + 2.0), 1e-9);
}

TEST_F(FaultTest, DriveResetStormTerminates) {
  FaultProfile profile;
  profile.drive_reset_rate = 1.0;  // every locate resets the drive
  FaultInjector injector(profile);
  auto schedule = BuildSchedule(model_, 0, UniformBatch(8, 23),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  RecoveringExecutionResult r =
      RecoveringExecutor(model_, &injector).Execute(*schedule);
  // The plan can never progress; the executor must still come back with
  // every request accounted for. Each reset re-plans until the budget of
  // 8 is spent; from then on resets burn the retry budget.
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 8u);
  EXPECT_EQ(r.reschedules, RecoveringExecutor::kMaxReschedules);
  EXPECT_EQ(RecoveringExecutor::kMaxReschedules, 8);
  EXPECT_GT(r.drive_resets, 0);
  EXPECT_EQ(r.final_position, 0);  // the last reset left the head at BOT
}

TEST_F(FaultTest, TransientFaultsOnlyAddTime) {
  auto schedule = BuildSchedule(model_, 0, UniformBatch(32, 31),
                                Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  ExecutionResult plain = ExecuteSchedule(model_, *schedule);
  FaultProfile profile;
  profile.transient_read_rate = 0.2;
  FaultInjector injector(profile);
  RecoveringExecutionResult r =
      RecoveringExecutor(model_, &injector).Execute(*schedule);
  // Transient read errors retry in place: the service order and head
  // motion are untouched, so the useful work is identical and the faults
  // only add recovery time on top. A request is abandoned only after 4
  // failed passes in a row (0.2^4 per request); this stream has none.
  EXPECT_GT(r.transient_read_errors, 0);
  EXPECT_TRUE(r.abandoned_segments.empty());
  EXPECT_EQ(r.locate_seconds, plain.locate_seconds);
  EXPECT_EQ(r.read_seconds, plain.read_seconds);
  EXPECT_EQ(r.requests_serviced, 32);
  EXPECT_GT(r.recovery_seconds, 0.0);
  EXPECT_GT(r.total_seconds, plain.total_seconds);
}

TEST_F(FaultTest, SingleRequestResetStormTerminates) {
  FaultProfile profile;
  profile.drive_reset_rate = 1.0;
  FaultInjector injector(profile);
  sched::Schedule schedule;
  schedule.order = {Request{100000, 1}};
  RecoveringExecutionResult r =
      RecoveringExecutor(model_, &injector).Execute(schedule);
  // With nothing to re-plan, resets burn the retry budget and the lone
  // request is abandoned — never an infinite reschedule loop.
  EXPECT_EQ(r.requests_serviced, 0);
  EXPECT_EQ(r.abandoned_segments.size(), 1u);
  EXPECT_EQ(r.reschedules, 0);
}

// ---------------------------------------------------------------------------
// PhysicalDrive under faults.
// ---------------------------------------------------------------------------

TEST(PhysicalDriveFaultTest, ResetNoiseMakesMeasurementsReproducible) {
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 3);
  PhysicalDrive drive(truth, Dlt4000Timings());
  std::vector<double> first;
  Lrand48 rng(41);
  std::vector<std::pair<SegmentId, SegmentId>> pairs;
  for (int i = 0; i < 100; ++i) {
    pairs.emplace_back(rng.NextBounded(truth.total_segments()),
                       rng.NextBounded(truth.total_segments()));
  }
  for (auto [src, dst] : pairs)
    first.push_back(drive.LocateSeconds(src, dst));
  drive.ResetNoise(8191);  // the params' default noise seed
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(drive.LocateSeconds(pairs[i].first, pairs[i].second), first[i])
        << "measurement " << i;
  }
}

TEST(PhysicalDriveFaultTest, RecoveringExecutorDeterministicOnPhysicalDrive) {
  // A PhysicalDrive is stateful (SupportsConcurrentUse() == false); two
  // identically-seeded drives plus identically-seeded injectors must yield
  // bit-identical executions — the property the serial fallback in the
  // parallel harnesses relies on.
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 3);
  Dlt4000LocateModel believed(truth, Dlt4000Timings());
  auto batch = [&] {
    Lrand48 rng(7);
    return GenerateUniformRequests(rng, 24, truth.total_segments());
  }();
  auto schedule = BuildSchedule(believed, 0, batch, Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  FaultProfile profile = FaultProfile::Light().Scaled(5.0);
  auto run = [&] {
    PhysicalDrive drive(truth, Dlt4000Timings());
    FaultInjector injector(profile);
    return RecoveringExecutor(drive, believed, &injector).Execute(*schedule);
  };
  RecoveringExecutionResult a = run();
  RecoveringExecutionResult b = run();
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.abandoned_segments, b.abandoned_segments);
}

}  // namespace
}  // namespace serpentine::sim
