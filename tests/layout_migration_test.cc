#include "serpentine/layout/migration.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/drive/model_drive.h"
#include "serpentine/layout/heat_map.h"
#include "serpentine/layout/placement.h"
#include "serpentine/sched/registry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/workload/generators.h"

namespace serpentine::layout {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// An optimized placement trained on a skewed workload, at a coarse
  /// group size so plans stay small.
  Placement OptimizedPlacement() {
    HeatMap heat(model_.geometry().total_segments(), 8192);
    workload::ZipfGenerator gen(model_.geometry().total_segments(), 128,
                                0.95, 5);
    for (int b = 0; b < 6; ++b) heat.RecordBatch(gen.Batch(96));
    return PlacementOptimizer(model_).Optimize(heat);
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(MigrationTest, IdentityPlacementPlansNothing) {
  Placement identity =
      Placement::Identity(model_.geometry().total_segments(), 8192);
  StatusOr<MigrationPlan> plan = PlanMigration(
      model_, identity, sched::Registry::Default());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->moved_groups, 0);
  EXPECT_TRUE(plan->batches.empty());
  EXPECT_EQ(plan->estimated_seconds, 0.0);
}

TEST_F(MigrationTest, PlanCoversEveryMovedGroupExactlyOnce) {
  Placement target = OptimizedPlacement();
  ASSERT_GT(target.moved_groups(), 0);
  MigrationOptions options;
  options.batch_groups = 8;
  StatusOr<MigrationPlan> plan = PlanMigration(
      model_, target, sched::Registry::Default(), options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->moved_groups, target.moved_groups());
  std::set<int64_t> seen;
  int64_t segments = 0;
  for (const MigrationBatch& batch : plan->batches) {
    EXPECT_LE(static_cast<int64_t>(batch.groups.size()),
              options.batch_groups);
    EXPECT_GT(batch.read_seconds, 0.0);
    EXPECT_GT(batch.write_seconds, 0.0);
    for (int64_t g : batch.groups) {
      EXPECT_TRUE(seen.insert(g).second) << "group " << g << " moved twice";
      // Only groups that actually change homes are migrated.
      EXPECT_NE(target.slot_of(g), g);
    }
    segments += batch.segments;
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), plan->moved_groups);
  EXPECT_EQ(segments, plan->segments);
  EXPECT_GT(plan->estimated_seconds, 0.0);
}

TEST_F(MigrationTest, ExecutionOnTheModelDriveMatchesTheEstimate) {
  Placement target = OptimizedPlacement();
  StatusOr<MigrationPlan> plan = PlanMigration(
      model_, target, sched::Registry::Default());
  ASSERT_TRUE(plan.ok());
  drive::ModelDrive drive(model_);
  MigrationExecution exec = ExecuteMigration(drive, *plan, target);
  EXPECT_EQ(exec.batches, static_cast<int64_t>(plan->batches.size()));
  EXPECT_EQ(exec.segments, plan->segments);
  // The planner costed the same model arithmetic the drive charges.
  EXPECT_NEAR(exec.total_seconds, plan->estimated_seconds,
              1e-6 * plan->estimated_seconds);
}

TEST_F(MigrationTest, InterleavedRunServesAllForegroundAndFinishes) {
  Placement target = OptimizedPlacement();
  StatusOr<MigrationPlan> plan = PlanMigration(
      model_, target, sched::Registry::Default());
  ASSERT_TRUE(plan.ok());
  InterleavedOptions options;
  options.foreground_requests = 60;
  options.arrival_rate_per_hour = 80.0;
  StatusOr<InterleavedResult> result = RunInterleavedMigration(
      model_, *plan, target, sched::Registry::Default(), options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->migration_complete);
  EXPECT_EQ(result->foreground_completed, options.foreground_requests);
  EXPECT_GT(result->migration_seconds, 0.0);
  EXPECT_GT(result->foreground_seconds, 0.0);
  EXPECT_GE(result->makespan_seconds,
            result->migration_seconds + result->foreground_seconds - 1e-6);
  EXPECT_GT(result->full_slices + result->half_slices +
                result->quarter_slices,
            0);
  EXPECT_GE(result->p99_response_seconds, result->mean_response_seconds);
  EXPECT_GE(result->max_response_seconds, result->p99_response_seconds);
}

TEST_F(MigrationTest, EmptyPlanInterleavedIsPlainServing) {
  MigrationPlan empty;
  Placement identity =
      Placement::Identity(model_.geometry().total_segments(), 8192);
  InterleavedOptions options;
  options.foreground_requests = 20;
  StatusOr<InterleavedResult> result = RunInterleavedMigration(
      model_, empty, identity, sched::Registry::Default(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->migration_complete);
  EXPECT_EQ(result->migration_seconds, 0.0);
  EXPECT_EQ(result->foreground_completed, options.foreground_requests);
}

TEST_F(MigrationTest, HigherArrivalRatesShrinkSlices) {
  Placement target = OptimizedPlacement();
  StatusOr<MigrationPlan> plan = PlanMigration(
      model_, target, sched::Registry::Default());
  ASSERT_TRUE(plan.ok());
  InterleavedOptions quiet;
  quiet.foreground_requests = 10;
  quiet.arrival_rate_per_hour = 1e-3;  // effectively idle
  InterleavedOptions busy = quiet;
  busy.arrival_rate_per_hour = 3000.0;
  StatusOr<InterleavedResult> quiet_run = RunInterleavedMigration(
      model_, *plan, target, sched::Registry::Default(), quiet);
  StatusOr<InterleavedResult> busy_run = RunInterleavedMigration(
      model_, *plan, target, sched::Registry::Default(), busy);
  ASSERT_TRUE(quiet_run.ok());
  ASSERT_TRUE(busy_run.ok());
  // Idle system: every slice runs at full size. Saturated system: the
  // ladder drops to fractional slices.
  EXPECT_EQ(quiet_run->half_slices + quiet_run->quarter_slices, 0);
  EXPECT_GT(quiet_run->full_slices, 0);
  EXPECT_EQ(busy_run->full_slices, 0);
  EXPECT_GT(busy_run->half_slices + busy_run->quarter_slices, 0);
}

TEST_F(MigrationTest, InterleavedRejectsAnInvalidForegroundStream) {
  MigrationPlan empty;
  Placement identity =
      Placement::Identity(model_.geometry().total_segments(), 8192);
  auto run = [&](double rate, int64_t requests) {
    InterleavedOptions options;
    options.arrival_rate_per_hour = rate;
    options.foreground_requests = requests;
    return RunInterleavedMigration(model_, empty, identity,
                                   sched::Registry::Default(), options);
  };
  const double inf = std::numeric_limits<double>::infinity();
  for (auto [rate, requests] :
       {std::pair{60.0, int64_t{-1}}, std::pair{60.0, int64_t{0}},
        std::pair{inf, int64_t{20}}, std::pair{0.0, int64_t{20}},
        std::pair{std::nan(""), int64_t{20}}}) {
    StatusOr<InterleavedResult> result = run(rate, requests);
    ASSERT_FALSE(result.ok()) << rate << " /h x " << requests;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("RunInterleavedMigration"),
              std::string::npos)
        << result.status().ToString();
  }
  EXPECT_TRUE(run(60.0, 1).ok());
}

}  // namespace
}  // namespace serpentine::layout
