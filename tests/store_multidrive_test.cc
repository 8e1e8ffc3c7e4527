// Multi-drive TapeLibrary: N drives share one robot arm. Each drive keeps
// its own virtual clock and busy time; cartridge exchanges serialize on
// the robot (waiting stalls the clock but is not busy time), a cartridge
// can live in only one bay at a time, every op through a bay's mounted
// drive charges that bay alone, and a 1-drive library behaves exactly as
// the historical single-drive API.
#include "serpentine/store/tape_library.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::store {
namespace {

using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;

TapeLibrary MakeLibrary(int drives, int cartridges = 4) {
  return TapeLibrary(Dlt4000TapeParams(), cartridges, Dlt4000Timings(),
                     /*first_seed=*/1, drives);
}

/// Reads `count` segments from drive `d`'s head position.
void ReadForward(TapeLibrary& library, int d, int64_t count) {
  drive::Drive* head = library.mounted_drive(d);
  ASSERT_NE(head, nullptr);
  head->ReadSegments(head->Position(), head->Position() + count - 1);
}

TEST(MultiDriveTest, SingleDriveNeverWaitsForTheRobot) {
  TapeLibrary library = MakeLibrary(1);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(library.Mount(0, i % library.num_cartridges()).ok());
    ReadForward(library, 0, 2);
  }
  EXPECT_GT(library.robot_exchanges(), 0);
  EXPECT_EQ(library.robot_wait_seconds(), 0.0);
}

TEST(MultiDriveTest, ConcurrentMountsSerializeOnTheRobot) {
  TapeLibrary library = MakeLibrary(2);
  // Drive 0's exchange occupies the arm; drive 1 asks at clock 0 and must
  // stall until the arm is free.
  ASSERT_TRUE(library.Mount(0, 0).ok());
  double arm_free = library.now(0);
  ASSERT_TRUE(library.Mount(1, 1).ok());
  EXPECT_GT(library.robot_wait_seconds(), 0.0);
  EXPECT_GE(library.now(1), arm_free);
  EXPECT_EQ(library.robot_exchanges(), 2);
  // Stalling is not busy time: neither drive has done any work yet beyond
  // the exchange spend itself.
  EXPECT_EQ(library.busy_seconds(0), library.busy_seconds(1));
}

TEST(MultiDriveTest, DriveClocksAreIndependent) {
  TapeLibrary library = MakeLibrary(2);
  ASSERT_TRUE(library.Mount(0, 0).ok());
  ASSERT_TRUE(library.Mount(1, 1).ok());
  double before = library.now(1);
  library.mounted_drive(0)->Locate(20000);
  ReadForward(library, 0, 16);
  // Only drive 0 moved; drive 1's clock and head are untouched.
  EXPECT_EQ(library.now(1), before);
  EXPECT_EQ(library.head_position(1), 0);
  EXPECT_GT(library.busy_seconds(0), 0.0);
  // The library-wide clock is the furthest drive.
  EXPECT_EQ(library.now(), std::max(library.now(0), library.now(1)));
}

TEST(MultiDriveTest, CartridgeCanOnlyLiveInOneBay) {
  TapeLibrary library = MakeLibrary(2);
  ASSERT_TRUE(library.Mount(0, 2).ok());
  Status held = library.Mount(1, 2);
  EXPECT_EQ(held.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(held.message().find("already mounted in drive 0"),
            std::string::npos)
      << held.ToString();
  EXPECT_EQ(library.mounted(1), -1);
  // Releasing the cartridge makes it mountable elsewhere.
  ASSERT_TRUE(library.Unmount(0).ok());
  EXPECT_TRUE(library.Mount(1, 2).ok());
  EXPECT_EQ(library.mounted(1), 2);
}

TEST(MultiDriveTest, RemountInPlaceIsFreeAcrossBays) {
  TapeLibrary library = MakeLibrary(2);
  ASSERT_TRUE(library.Mount(1, 3).ok());
  double clock = library.now(1);
  int64_t exchanges = library.robot_exchanges();
  ASSERT_TRUE(library.Mount(1, 3).ok());  // same bay, same tape: no-op
  EXPECT_EQ(library.now(1), clock);
  EXPECT_EQ(library.robot_exchanges(), exchanges);
}

TEST(MultiDriveTest, PerDriveOperationsValidateTheDriveIndex) {
  TapeLibrary library = MakeLibrary(2);
  // Reads need a mounted cartridge in *that* bay, not just any bay.
  ASSERT_TRUE(library.Mount(0, 0).ok());
  EXPECT_EQ(library.mounted_drive(1), nullptr);
  ASSERT_NE(library.mounted_drive(0), nullptr);
  double idle_bay = library.now(1);
  ReadForward(library, 0, 1);
  EXPECT_EQ(library.now(1), idle_bay);
}

TEST(MultiDriveTest, MixedFamilyModelsDriveSeparateBays) {
  // Caller-supplied models: two distinct geometries behind two drives.
  std::vector<std::unique_ptr<tape::LocateModel>> models;
  models.push_back(std::make_unique<tape::Dlt4000LocateModel>(
      tape::TapeGeometry::Generate(Dlt4000TapeParams(), 1),
      Dlt4000Timings()));
  models.push_back(std::make_unique<tape::Dlt4000LocateModel>(
      tape::TapeGeometry::Generate(Dlt4000TapeParams(), 2),
      Dlt4000Timings()));
  TapeLibrary library(std::move(models), /*drives=*/2);
  ASSERT_TRUE(library.Mount(0, 0).ok());
  ASSERT_TRUE(library.Mount(1, 1).ok());
  library.mounted_drive(0)->Locate(5000);
  library.mounted_drive(1)->Locate(5000);
  // Distinct seeds, distinct geometry: the same target lands at different
  // virtual times once the robot stall is accounted for.
  EXPECT_EQ(library.head_position(0), 5000);
  EXPECT_EQ(library.head_position(1), 5000);
  EXPECT_GT(library.busy_seconds(0), 0.0);
  EXPECT_GT(library.busy_seconds(1), 0.0);
}

TEST(MultiDriveTest, ExecutingOnAMountedDriveChargesOnlyItsBay) {
  TapeLibrary library = MakeLibrary(2);
  ASSERT_TRUE(library.Mount(0, 0).ok());
  ASSERT_TRUE(library.Mount(1, 1).ok());
  const tape::LocateModel& model = library.model(1);
  Lrand48 rng(5);
  std::vector<sched::Request> batch;
  for (int i = 0; i < 24; ++i) {
    batch.push_back({rng.NextBounded(model.geometry().total_segments() - 8),
                     1 + static_cast<int64_t>(rng.NextBounded(8))});
  }
  auto schedule = sched::BuildSchedule(model, library.head_position(1),
                                       batch, sched::Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());
  double now0 = library.now(0), busy0 = library.busy_seconds(0);
  double now1 = library.now(1), busy1 = library.busy_seconds(1);
  sched::EstimateOptions rewind;
  rewind.rewind_at_end = true;
  sim::ExecutionResult r =
      sim::ExecuteSchedule(*library.mounted_drive(1), *schedule, rewind);
  ASSERT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.rewind_seconds, 0.0);
  EXPECT_NEAR(library.now(1) - now1, r.total_seconds,
              1e-9 * r.total_seconds);
  EXPECT_NEAR(library.busy_seconds(1) - busy1, r.total_seconds,
              1e-9 * r.total_seconds);
  EXPECT_EQ(library.now(0), now0);
  EXPECT_EQ(library.busy_seconds(0), busy0);
}

TEST(MultiDriveTest, RobotWaitGrowsWithContention) {
  // The fleet bench's invariant in miniature: the same mount-heavy load
  // through more drives accumulates more robot waiting, never less.
  double wait_two = 0.0, wait_four = 0.0;
  for (int drives : {2, 4}) {
    TapeLibrary library = MakeLibrary(drives, /*cartridges=*/8);
    for (int i = 0; i < 32; ++i) {
      int d = i % drives;
      int tape = i % library.num_cartridges();
      if (library.mounted(d) == tape || !library.Mount(d, tape).ok()) {
        continue;  // held in another bay this round
      }
      ReadForward(library, d, 2);
    }
    (drives == 2 ? wait_two : wait_four) = library.robot_wait_seconds();
  }
  EXPECT_GT(wait_two, 0.0);
  EXPECT_GE(wait_four, wait_two);
}

}  // namespace
}  // namespace serpentine::store
