#include "serpentine/layout/heat_map.h"

#include <gtest/gtest.h>

#include "serpentine/sim/online_server.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/sim/wear.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"

namespace serpentine::layout {
namespace {

TEST(HeatMapTest, GroupGeometry) {
  HeatMap heat(10000, 704);
  EXPECT_EQ(heat.num_groups(), 15);  // 14 full groups + a 144-segment tail
  EXPECT_EQ(heat.group_of(0), 0);
  EXPECT_EQ(heat.group_of(703), 0);
  EXPECT_EQ(heat.group_of(704), 1);
  EXPECT_EQ(heat.group_start(14), 9856);
  EXPECT_EQ(heat.group_size(0), 704);
  EXPECT_EQ(heat.group_size(14), 144);
}

TEST(HeatMapTest, RequestSpansTouchEveryGroupTheyCross) {
  HeatMap heat(10000, 704);
  heat.RecordRequest(sched::Request{700, 10});  // 700..709: groups 0 and 1
  EXPECT_EQ(heat.group_heat(0), 1);
  EXPECT_EQ(heat.group_heat(1), 1);
  EXPECT_EQ(heat.group_heat(2), 0);
  EXPECT_EQ(heat.total_heat(), 2);
}

TEST(HeatMapTest, RecordBatchCountsRequestsAndNonEmptyBatches) {
  HeatMap heat(10000, 704);
  heat.RecordBatch({sched::Request{0, 1}, sched::Request{3 * 704, 1},
                    sched::Request{3 * 704 + 5, 1}, sched::Request{10, 1}});
  EXPECT_EQ(heat.group_heat(0), 2);
  EXPECT_EQ(heat.group_heat(3), 2);
  EXPECT_EQ(heat.total_heat(), 4);
  EXPECT_EQ(heat.batches_recorded(), 1);
  // The optimizer divides group heat by batches_recorded() to get
  // per-batch visit rates, so an empty batch must not count.
  heat.RecordBatch({});
  EXPECT_EQ(heat.batches_recorded(), 1);
  EXPECT_EQ(heat.total_heat(), 4);
  heat.RecordBatch({sched::Request{704, 1}});
  EXPECT_EQ(heat.batches_recorded(), 2);
  EXPECT_EQ(heat.group_heat(1), 1);
}

TEST(HeatMapTest, ObserverCountsOnlyOkCompletions) {
  HeatMap heat(10000, 704);
  sim::ServingRequest request;
  request.segment = 42;
  heat.ObserveCompletion(request, 1.0, /*ok=*/true);
  heat.ObserveCompletion(request, 2.0, /*ok=*/false);
  EXPECT_EQ(heat.observed_completions(), 1);
  EXPECT_EQ(heat.group_heat(0), 1);
}

TEST(HeatMapTest, MergeWearAccumulatesBaseline) {
  tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  HeatMap heat(model.geometry().total_segments());
  sim::WearTracker wear(&model.geometry(), 14);
  wear.RecordMotion(0.0, 14.0);
  heat.MergeWear(wear);
  heat.MergeWear(wear);
  ASSERT_EQ(heat.wear_baseline().size(), 14u);
  for (int64_t passes : heat.wear_baseline()) EXPECT_EQ(passes, 2);
}

// The PR-8 hook end to end: a ServingCore with a HeatMap observer feeds
// the layout loop, and observation never perturbs the serving trajectory.
TEST(HeatMapTest, ServingCoreCompletionCallbackFeedsHeatMap) {
  tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  sim::OnlineServerConfig config;
  config.total_requests = 60;
  config.arrival_rate_per_hour = 120.0;
  ASSERT_TRUE(sim::ValidateOnlineServerConfig(config).ok());
  std::vector<sim::ServingRequest> arrivals = sim::GenerateOnlineArrivals(
      config, model.geometry().total_segments());

  auto run = [&](HeatMap* heat) {
    sim::ServingCore core({&model}, config, config.seed);
    if (heat != nullptr) {
      core.set_completion_callback(heat->CompletionObserver());
    }
    for (const sim::ServingRequest& r : arrivals) core.Push(r);
    core.FinishInput();
    int64_t guard = 0;
    while (core.Step() != sim::ServingStep::kDone) {
      if (++guard >= 1000000) {
        ADD_FAILURE() << "serving loop failed to converge";
        break;
      }
    }
    core.FinishResult();
    return core.result().completed;
  };

  HeatMap heat(model.geometry().total_segments());
  int64_t completed_observed = run(&heat);
  int64_t completed_plain = run(nullptr);

  EXPECT_EQ(heat.observed_completions(), completed_observed);
  EXPECT_EQ(heat.total_heat(), completed_observed);
  EXPECT_GT(heat.total_heat(), 0);
  // Observation never perturbs: the observed run completes exactly what
  // the plain run does.
  EXPECT_EQ(completed_observed, completed_plain);
}

}  // namespace
}  // namespace serpentine::layout
