#include "serpentine/sim/wear.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sim {
namespace {

class WearTest : public ::testing::Test {
 protected:
  WearTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}
  tape::Dlt4000LocateModel model_;
};

TEST_F(WearTest, MotionCoversExpectedBins) {
  WearTracker w(&model_.geometry(), 14);  // one bin per section unit
  w.RecordMotion(0.5, 3.5);               // bins 0..3
  EXPECT_EQ(w.bin_passes(0), 1);
  EXPECT_EQ(w.bin_passes(3), 1);
  EXPECT_EQ(w.bin_passes(4), 0);
  w.RecordMotion(3.2, 1.1);  // direction-agnostic: bins 1..3 again
  EXPECT_EQ(w.bin_passes(2), 2);
  EXPECT_EQ(w.max_passes(), 2);
  EXPECT_NEAR(w.full_length_equivalents(), (3.0 + 2.1) / 14.0, 1e-9);
}

TEST_F(WearTest, FullScanWearsEveryRegionOncePerTrack) {
  WearTracker w(&model_.geometry(), 140);
  sched::Schedule read;
  read.full_tape_scan = true;
  w.RecordSchedule(model_, read);
  EXPECT_EQ(w.max_passes(), 64);
  EXPECT_NEAR(w.mean_passes(), 64.0, 1e-9);
  EXPECT_NEAR(w.full_length_equivalents(), 64.0, 1e-9);
}

TEST_F(WearTest, ScheduledBatchMovesLessTapeThanFifo) {
  Lrand48 rng(3);
  auto requests = GenerateUniformRequests(
      rng, 96, model_.geometry().total_segments());
  auto fifo =
      sched::BuildSchedule(model_, 0, requests, sched::Algorithm::kFifo);
  auto loss =
      sched::BuildSchedule(model_, 0, requests, sched::Algorithm::kLoss);
  ASSERT_TRUE(fifo.ok());
  ASSERT_TRUE(loss.ok());
  WearTracker w_fifo(&model_.geometry());
  WearTracker w_loss(&model_.geometry());
  w_fifo.RecordSchedule(model_, *fifo);
  w_loss.RecordSchedule(model_, *loss);
  // Scheduling reduces tape motion (and therefore wear) along with time.
  EXPECT_LT(w_loss.full_length_equivalents(),
            w_fifo.full_length_equivalents() * 0.75);
  EXPECT_LE(w_loss.max_passes(), w_fifo.max_passes());
}

TEST_F(WearTest, RewindAddsOnePassDownTheTape) {
  sched::Schedule s;
  s.initial_position = 0;
  s.order = {sched::Request{300000, 1}};
  WearTracker without(&model_.geometry(), 14);
  WearTracker with(&model_.geometry(), 14);
  without.RecordSchedule(model_, s, /*rewind_at_end=*/false);
  with.RecordSchedule(model_, s, /*rewind_at_end=*/true);
  EXPECT_GT(with.full_length_equivalents(),
            without.full_length_equivalents());
  EXPECT_GE(with.bin_passes(0), without.bin_passes(0) + 1);
}

TEST_F(WearTest, LifeConsumedUsesDltRating) {
  WearTracker w(&model_.geometry(), 14);
  for (int i = 0; i < 500; ++i) w.RecordMotion(0.0, 14.0);
  EXPECT_NEAR(w.life_consumed(), 500.0 / 500000.0, 1e-9);
  // The paper's Exabyte figure: the same motion consumes 1/3 of a helical
  // tape's 1,500-pass rating.
  EXPECT_NEAR(w.life_consumed(1500), 1.0 / 3.0, 1e-9);
}

TEST_F(WearTest, LocateMotionMatchesModelDecomposition) {
  // One locate: motion = head -> scan target -> destination.
  tape::SegmentId src = 0;
  tape::SegmentId dst = model_.geometry().ToSegment(tape::Coord{8, 6, 100});
  WearTracker w(&model_.geometry(), 14);
  sched::Schedule s;
  s.initial_position = src;
  s.order = {sched::Request{dst, 1}};
  w.RecordSchedule(model_, s);
  double target = model_.ScanTargetPhysical(src, dst);
  double p_dst = model_.geometry().PhysicalPosition(dst);
  EXPECT_NEAR(w.full_length_equivalents(),
              (std::abs(target - 0.0) + std::abs(p_dst - target) +
               w.full_length_equivalents() * 0.0 +
               /*transfer*/ (1.0 / 704.0)) /
                  14.0,
              0.01);
}

// ------------------------------------------- multi-drive / fleet wear

TEST_F(WearTest, MergeSumsBinsAndDistance) {
  WearTracker a(&model_.geometry(), 14);
  WearTracker b(&model_.geometry(), 14);
  a.RecordMotion(0.0, 3.0);   // bins 0..3
  b.RecordMotion(2.0, 14.0);  // bins 2..13
  double a_lengths = a.full_length_equivalents();
  double b_lengths = b.full_length_equivalents();
  a.Merge(b);
  EXPECT_EQ(a.bin_passes(0), 1);
  EXPECT_EQ(a.bin_passes(2), 2);
  EXPECT_EQ(a.bin_passes(13), 1);
  EXPECT_EQ(a.max_passes(), 2);
  EXPECT_NEAR(a.full_length_equivalents(), a_lengths + b_lengths, 1e-9);
  EXPECT_EQ(b.bin_passes(2), 1);  // the source tracker is untouched
}

TEST_F(WearTest, MergeMatchesRecordingBothSchedulesOnOneTracker) {
  Lrand48 rng(7);
  auto batch_a = GenerateUniformRequests(
      rng, 48, model_.geometry().total_segments());
  auto batch_b = GenerateUniformRequests(
      rng, 48, model_.geometry().total_segments());
  auto sched_a =
      sched::BuildSchedule(model_, 0, batch_a, sched::Algorithm::kLoss);
  auto sched_b =
      sched::BuildSchedule(model_, 0, batch_b, sched::Algorithm::kLoss);
  ASSERT_TRUE(sched_a.ok());
  ASSERT_TRUE(sched_b.ok());
  WearTracker bay0(&model_.geometry());
  WearTracker bay1(&model_.geometry());
  WearTracker reference(&model_.geometry());
  bay0.RecordSchedule(model_, *sched_a);
  bay1.RecordSchedule(model_, *sched_b);
  reference.RecordSchedule(model_, *sched_a);
  reference.RecordSchedule(model_, *sched_b);
  bay0.Merge(bay1);
  for (int i = 0; i < reference.bins(); ++i) {
    EXPECT_EQ(bay0.bin_passes(i), reference.bin_passes(i)) << "bin " << i;
  }
  EXPECT_NEAR(bay0.full_length_equivalents(),
              reference.full_length_equivalents(), 1e-9);
  EXPECT_EQ(bay0.max_passes(), reference.max_passes());
}

class MultiDriveWearTest : public ::testing::Test {
 protected:
  MultiDriveWearTest()
      : library_(tape::Dlt4000TapeParams(), /*cartridges=*/2,
                 tape::Dlt4000Timings(), /*first_seed=*/1, /*drives=*/2),
        // Cartridge c is generated from seed first_seed + c; these twins
        // give RecordSchedule the Dlt4000-typed view of each bay's tape.
        model0_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
                tape::Dlt4000Timings()),
        model1_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 2),
                tape::Dlt4000Timings()) {}

  store::TapeLibrary library_;
  tape::Dlt4000LocateModel model0_;
  tape::Dlt4000LocateModel model1_;
};

TEST_F(MultiDriveWearTest, BaysAccumulateWearIndependently) {
  ASSERT_TRUE(library_.Mount(0, 0).ok());
  ASSERT_TRUE(library_.Mount(1, 1).ok());
  Lrand48 rng(11);
  auto batch = GenerateUniformRequests(
      rng, 32, model0_.geometry().total_segments());
  auto schedule =
      sched::BuildSchedule(model0_, 0, batch, sched::Algorithm::kLoss);
  ASSERT_TRUE(schedule.ok());

  WearTracker bay0(&model0_.geometry());
  WearTracker bay1(&model1_.geometry());
  ExecuteSchedule(*library_.mounted_drive(0), *schedule);
  bay0.RecordSchedule(model0_, *schedule);

  // Only bay 0 moved: its head advanced, bay 1's head and wear are
  // untouched by bay 0's motion (per-bay accounting).
  EXPECT_NE(library_.head_position(0), 0);
  EXPECT_EQ(library_.head_position(1), 0);
  EXPECT_GT(bay0.max_passes(), 0);
  EXPECT_EQ(bay1.max_passes(), 0);
  EXPECT_EQ(bay1.full_length_equivalents(), 0.0);
}

TEST_F(MultiDriveWearTest, FleetAggregationBoundsPerBayWear) {
  ASSERT_TRUE(library_.Mount(0, 0).ok());
  ASSERT_TRUE(library_.Mount(1, 1).ok());
  Lrand48 rng(13);
  WearTracker bay0(&model0_.geometry());
  WearTracker bay1(&model1_.geometry());
  for (int round = 0; round < 3; ++round) {
    auto batch0 = GenerateUniformRequests(
        rng, 24, model0_.geometry().total_segments());
    auto batch1 = GenerateUniformRequests(
        rng, 24, model1_.geometry().total_segments());
    auto s0 = sched::BuildSchedule(model0_, library_.head_position(0),
                                   batch0, sched::Algorithm::kLoss);
    auto s1 = sched::BuildSchedule(model1_, library_.head_position(1),
                                   batch1, sched::Algorithm::kLoss);
    ASSERT_TRUE(s0.ok());
    ASSERT_TRUE(s1.ok());
    ExecuteSchedule(*library_.mounted_drive(0), *s0);
    ExecuteSchedule(*library_.mounted_drive(1), *s1);
    bay0.RecordSchedule(model0_, *s0);
    bay1.RecordSchedule(model1_, *s1);
  }
  // The fleet view (region i across all cartridges) is the per-bay merge;
  // its hottest region is at least each bay's and at most their sum.
  WearTracker fleet(&model0_.geometry());
  fleet.Merge(bay0);
  fleet.Merge(bay1);
  EXPECT_GE(fleet.max_passes(),
            std::max(bay0.max_passes(), bay1.max_passes()));
  EXPECT_LE(fleet.max_passes(), bay0.max_passes() + bay1.max_passes());
  EXPECT_NEAR(fleet.full_length_equivalents(),
              bay0.full_length_equivalents() + bay1.full_length_equivalents(),
              1e-9);
  EXPECT_GE(fleet.life_consumed(), bay0.life_consumed());
}

}  // namespace
}  // namespace serpentine::sim
