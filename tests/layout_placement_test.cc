#include "serpentine/layout/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "serpentine/layout/heat_map.h"
#include "serpentine/sched/registry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/workload/generators.h"

namespace serpentine::layout {
namespace {

tape::Dlt4000LocateModel TapeA() {
  return tape::Dlt4000LocateModel(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
}

TEST(PlacementTest, IdentityMapsEverySegmentToItself) {
  Placement p = Placement::Identity(10000, 704);
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.moved_groups(), 0);
  for (tape::SegmentId s : {0, 703, 704, 5000, 9999}) {
    EXPECT_EQ(p.ToPhysical(s), s);
    EXPECT_EQ(p.ToLogical(s), s);
  }
}

TEST(PlacementTest, FromOrderRejectsNonPermutations) {
  EXPECT_FALSE(Placement::FromOrder(10000, 704, {0, 1, 2}).ok());
  std::vector<int64_t> repeated(15, 0);
  EXPECT_FALSE(Placement::FromOrder(10000, 704, repeated).ok());
  std::vector<int64_t> out_of_range(15);
  std::iota(out_of_range.begin(), out_of_range.end(), 1);
  EXPECT_FALSE(Placement::FromOrder(10000, 704, out_of_range).ok());
}

TEST(PlacementTest, ArbitraryPermutationIsBijective) {
  // Reversed order puts the short tail group first — the prefix-sum
  // indexing must stay exact even when slot starts shift.
  std::vector<int64_t> order(15);
  std::iota(order.begin(), order.end(), 0);
  std::reverse(order.begin(), order.end());
  StatusOr<Placement> p = Placement::FromOrder(10000, 704, order);
  ASSERT_TRUE(p.ok());
  EXPECT_FALSE(p->is_identity());
  EXPECT_EQ(p->moved_groups(), 14);  // group 7 maps to its own slot
  std::vector<char> hit(10000, 0);
  for (tape::SegmentId logical = 0; logical < 10000; ++logical) {
    tape::SegmentId physical = p->ToPhysical(logical);
    ASSERT_GE(physical, 0);
    ASSERT_LT(physical, 10000);
    ASSERT_FALSE(hit[physical]) << "physical " << physical << " hit twice";
    hit[physical] = 1;
    ASSERT_EQ(p->ToLogical(physical), logical);
  }
}

TEST(PlacementTest, RemapSplitsRequestsAtGroupBoundaries) {
  std::vector<int64_t> order = {1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                13, 14};
  StatusOr<Placement> p = Placement::FromOrder(10000, 704, order);
  ASSERT_TRUE(p.ok());
  std::vector<sched::Request> physical =
      p->RemapBatch({sched::Request{700, 10}});
  ASSERT_EQ(physical.size(), 2u);
  // 700..703 stay in group 0 (now at slot 1), 704..709 in group 1 (slot 0).
  EXPECT_EQ(physical[0].segment, 704 + 700);
  EXPECT_EQ(physical[0].count, 4);
  EXPECT_EQ(physical[1].segment, 0);
  EXPECT_EQ(physical[1].count, 6);
}

TEST(OptimizerTest, ColdHeatMapYieldsIdentity) {
  tape::Dlt4000LocateModel model = TapeA();
  HeatMap heat(model.geometry().total_segments());
  PlacementOptimizer optimizer(model);
  Placement p = optimizer.Optimize(heat);
  EXPECT_TRUE(p.is_identity());
}

TEST(OptimizerTest, DeterministicForAGivenHeatMap) {
  tape::Dlt4000LocateModel model = TapeA();
  HeatMap heat(model.geometry().total_segments(), 4096);
  workload::ZipfGenerator gen(model.geometry().total_segments(), 256, 0.95,
                              21);
  for (int b = 0; b < 6; ++b) heat.RecordBatch(gen.Batch(96));
  PlacementOptimizer optimizer(model);
  OptimizerStats stats1, stats2;
  Placement p1 = optimizer.Optimize(heat, &stats1);
  Placement p2 = optimizer.Optimize(heat, &stats2);
  EXPECT_EQ(p1.order(), p2.order());
  EXPECT_EQ(stats1.moved_groups, stats2.moved_groups);
  EXPECT_GT(stats1.moved_groups, 0);
  EXPECT_GT(stats1.hot_groups, 0);
}

TEST(OptimizerTest, HotSetLandsInFasterSlots) {
  tape::Dlt4000LocateModel model = TapeA();
  HeatMap heat(model.geometry().total_segments(), 4096);
  workload::ZipfGenerator gen(model.geometry().total_segments(), 256, 0.95,
                              22);
  for (int b = 0; b < 6; ++b) heat.RecordBatch(gen.Batch(96));
  PlacementOptimizer optimizer(model);
  OptimizerStats stats;
  (void)optimizer.Optimize(heat, &stats);
  // Goodness does not drive placement: tail anchoring does, and on
  // placement_sweep's heat the hot set's goodness rises (82.7 s to
  // 83.5 s). On this heat map the tail-packed hot set still scores no
  // worse than at home.
  EXPECT_LE(stats.hot_goodness_after, stats.hot_goodness_before + 1e-9);
}

TEST(OptimizerTest, TightWearCapCountsRelaxationsOrSpreads) {
  tape::Dlt4000LocateModel model = TapeA();
  // All heat on a handful of groups, with a cap too tight to honor.
  HeatMap heat(model.geometry().total_segments(), 4096);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 100; ++i) {
      heat.RecordRequest(sched::Request{g * 4096, 1});
    }
  }
  OptimizerOptions options;
  options.wear_cap_factor = 0.01;
  PlacementOptimizer optimizer(model, options);
  OptimizerStats stats;
  Placement p = optimizer.Optimize(heat, &stats);
  EXPECT_GT(stats.moved_groups, 0);
  // No slot honors a cap of 1% of the identity peak, so every hot group
  // is a counted relaxation, and a valid permutation is still returned.
  EXPECT_EQ(stats.hot_groups, 4);
  EXPECT_EQ(stats.wear_relaxations, stats.hot_groups);
  EXPECT_EQ(p.num_groups(), heat.num_groups());
}

TEST(OptimizerTest, SkewedWorkloadImprovesMakespanAndWear) {
  tape::Dlt4000LocateModel model = TapeA();
  const tape::SegmentId total = model.geometry().total_segments();
  HeatMap heat(total, 256);

  workload::ZipfGenerator train(total, 512, 0.95, 31);
  for (int b = 0; b < 12; ++b) heat.RecordBatch(train.Batch(192));

  PlacementOptimizer optimizer(model);
  OptimizerStats stats;
  Placement optimized = optimizer.Optimize(heat, &stats);
  Placement seed = Placement::Identity(total, 256);
  EXPECT_GT(stats.hot_groups, 0);
  EXPECT_GT(stats.moved_groups, 0);

  const sched::RegistryEntry* loss = sched::Registry::Default().Find("loss");
  ASSERT_NE(loss, nullptr);
  EvaluateOptions eval_options;
  eval_options.batches = 8;
  eval_options.batch_size = 192;
  // Identical evaluation workload for both layouts (same seed, fresh
  // streams), disjoint from the training seed.
  workload::ZipfGenerator eval_seed(total, 512, 0.95, 77);
  workload::ZipfGenerator eval_opt(total, 512, 0.95, 77);
  StatusOr<PlacementEvaluation> before =
      EvaluatePlacement(model, seed, eval_seed, *loss, eval_options);
  StatusOr<PlacementEvaluation> after =
      EvaluatePlacement(model, optimized, eval_opt, *loss, eval_options);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(before->requests, after->requests);
  EXPECT_LT(after->makespan_seconds, before->makespan_seconds)
      << "optimized layout must beat the seed on makespan";
  EXPECT_LT(after->life_consumed, before->life_consumed)
      << "optimized layout must beat the seed on media life";
}

TEST(EvaluatePlacementTest, RejectsNonPositiveSizes) {
  tape::Dlt4000LocateModel model = TapeA();
  const tape::SegmentId total = model.geometry().total_segments();
  Placement seed = Placement::Identity(total, 256);
  const sched::RegistryEntry* loss = sched::Registry::Default().Find("loss");
  ASSERT_NE(loss, nullptr);
  for (auto [batches, batch_size] :
       {std::pair{1, -5}, std::pair{1, 0}, std::pair{0, 8},
        std::pair{-3, 8}}) {
    workload::UniformGenerator gen(total, 5);
    EvaluateOptions options;
    options.batches = batches;
    options.batch_size = batch_size;
    StatusOr<PlacementEvaluation> eval =
        EvaluatePlacement(model, seed, gen, *loss, options);
    ASSERT_FALSE(eval.ok()) << batches << " x " << batch_size;
    EXPECT_EQ(eval.status().code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace serpentine::layout
