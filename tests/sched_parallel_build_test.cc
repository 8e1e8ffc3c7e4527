// Determinism and quality contracts of the scalable construction paths:
// partitioned LOSS ("loss-mt") must produce bit-identical schedules for
// every worker count (and degenerate to plain dense LOSS on small
// batches), and the LTSP interval DP must act as an optimality oracle
// under linear locate costs.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/sched/estimator.h"
#include "serpentine/sched/internal.h"
#include "serpentine/sched/local_search.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tsp/ltsp.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

class ParallelBuildTest : public ::testing::Test {
 protected:
  ParallelBuildTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  std::vector<Request> RandomRequests(int n, int32_t seed) const {
    Lrand48 rng(seed);
    std::vector<Request> out;
    for (int i = 0; i < n; ++i)
      out.push_back(
          Request{rng.NextBounded(model_.geometry().total_segments()), 1});
    return out;
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(ParallelBuildTest, PartitionedLossIsWorkerCountInvariant) {
  // The parallel path must be a pure scheduling function: fragments are
  // fixed by the group count alone, so 1, 2, 3, and 8 workers all produce
  // the same bytes. partition_size 64 forces many fragments at n=400.
  std::vector<Request> requests = RandomRequests(400, 91);
  std::vector<Request> baseline = internal::ScheduleLossPartitioned(
      model_, 0, requests, /*coalesce_threshold=*/0, /*partition_size=*/64,
      /*workers=*/1);
  ASSERT_EQ(baseline.size(), requests.size());
  for (int workers : {2, 3, 8, 0}) {  // 0 = auto-resolve
    std::vector<Request> order = internal::ScheduleLossPartitioned(
        model_, 0, requests, 0, 64, workers);
    EXPECT_EQ(order, baseline) << "workers=" << workers;
  }
}

TEST_F(ParallelBuildTest, PartitionedLossDegeneratesToDenseLoss) {
  // Batches of at most partition_size groups take the plain dense path, so
  // loss-mt and loss must agree exactly there.
  std::vector<Request> requests = RandomRequests(96, 93);
  auto dense = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
  ASSERT_TRUE(dense.ok());
  std::vector<Request> partitioned = internal::ScheduleLossPartitioned(
      model_, 0, requests, 0, /*partition_size=*/1024, /*workers=*/4);
  EXPECT_EQ(partitioned, dense->order);
}

TEST_F(ParallelBuildTest, PartitionSizeIsAQualityKnobNotACorrectnessKnob) {
  // Different partition sizes legitimately change the schedule (the
  // contraction seam moves), but every variant must remain a permutation
  // and stay in the same cost ballpark as dense LOSS.
  std::vector<Request> requests = RandomRequests(300, 97);
  auto dense = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
  ASSERT_TRUE(dense.ok());
  double dense_cost = EstimateScheduleSeconds(model_, *dense);
  for (int partition : {32, 64, 128}) {
    std::vector<Request> order = internal::ScheduleLossPartitioned(
        model_, 0, requests, 0, partition, 2);
    Schedule s;
    s.initial_position = 0;
    s.order = order;
    s.algorithm = Algorithm::kLoss;
    EXPECT_TRUE(IsPermutationOfRequests(s, requests))
        << "partition=" << partition;
    EXPECT_LT(EstimateScheduleSeconds(model_, s), dense_cost * 1.35)
        << "partition=" << partition;
  }
}

TEST_F(ParallelBuildTest, RegistryLossMtRespectsSchedulerOptions) {
  const RegistryEntry* entry = Registry::Default().Find("loss-mt");
  ASSERT_NE(entry, nullptr);
  std::vector<Request> requests = RandomRequests(200, 99);
  auto a = entry->Build(model_, 0, requests);
  ASSERT_TRUE(a.ok());
  // Same entry, explicit single worker: identical output.
  SchedulerOptions serial = entry->options;
  serial.construction_workers = 1;
  auto b = BuildSchedule(model_, 0, requests, entry->algorithm, serial);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->order, b->order);
}

TEST_F(ParallelBuildTest, LtspMatchesHeldKarpUnderLinearCosts) {
  // Under the helical model (cost linear in distance) the interval DP is
  // exact, so it must tie OPT on every instance Held-Karp can reach.
  tape::HelicalLocateModel helical(200000);
  for (int32_t seed = 1; seed <= 6; ++seed) {
    Lrand48 rng(700 + seed);
    std::vector<Request> requests;
    for (int i = 0; i < 8; ++i)
      requests.push_back(Request{rng.NextBounded(200000), 1});
    auto ltsp = internal::ScheduleLtsp(helical, 1000, requests, 0);
    ASSERT_TRUE(ltsp.ok());
    auto opt = BuildSchedule(helical, 1000, requests, Algorithm::kOpt);
    ASSERT_TRUE(opt.ok());
    Schedule s;
    s.initial_position = 1000;
    s.order = ltsp.value();
    EXPECT_TRUE(IsPermutationOfRequests(s, requests));
    EXPECT_NEAR(EstimateScheduleSeconds(helical, s),
                EstimateScheduleSeconds(helical, *opt), 1e-9)
        << "seed=" << seed;
  }
}

TEST_F(ParallelBuildTest, LtspIsCompetitiveWithLossOnTheSerpentineModel) {
  // On the serpentine Dlt4000 model LTSP is only a heuristic, but it
  // should remain a usable baseline: valid permutation, cost within a
  // modest factor of LOSS.
  std::vector<Request> requests = RandomRequests(150, 101);
  auto ltsp = internal::ScheduleLtsp(model_, 0, requests, 0);
  ASSERT_TRUE(ltsp.ok());
  auto loss = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
  ASSERT_TRUE(loss.ok());
  Schedule s;
  s.initial_position = 0;
  s.order = ltsp.value();
  EXPECT_TRUE(IsPermutationOfRequests(s, requests));
  EXPECT_LT(EstimateScheduleSeconds(model_, s),
            EstimateScheduleSeconds(model_, *loss) * 2.0);
}

TEST_F(ParallelBuildTest, LtspRejectsOversizedBatches) {
  std::vector<Request> requests;
  for (int i = 0; i < tsp::kMaxLtspCities + 5; ++i)
    requests.push_back(Request{static_cast<tape::SegmentId>(i * 40), 1});
  auto result = internal::ScheduleLtsp(model_, 0, requests, 0);
  EXPECT_FALSE(result.ok());
}

TEST_F(ParallelBuildTest, RegistryCarriesTheNewBuilders) {
  const Registry& registry = Registry::Default();
  for (const char* name : {"ltsp-exact", "loss-mt", "loss-mt-oropt"}) {
    const RegistryEntry* entry = registry.Find(name);
    ASSERT_NE(entry, nullptr) << name;
    std::vector<Request> requests = RandomRequests(64, 103);
    auto s = entry->Build(model_, 0, requests);
    ASSERT_TRUE(s.ok()) << name;
    EXPECT_TRUE(IsPermutationOfRequests(*s, requests)) << name;
    EXPECT_EQ(s->algorithm, entry->algorithm) << name;
  }
}

TEST_F(ParallelBuildTest, LossMtOroptNeverWorsensLossMt) {
  const Registry& registry = Registry::Default();
  const RegistryEntry* base = registry.Find("loss-mt");
  const RegistryEntry* improved = registry.Find("loss-mt-oropt");
  ASSERT_NE(base, nullptr);
  ASSERT_NE(improved, nullptr);
  std::vector<Request> requests = RandomRequests(250, 107);
  auto a = base->Build(model_, 0, requests);
  auto b = improved->Build(model_, 0, requests);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(EstimateScheduleSeconds(model_, *b),
            EstimateScheduleSeconds(model_, *a) + 1e-6);
}

}  // namespace
}  // namespace serpentine::sched
