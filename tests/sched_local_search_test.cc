#include "serpentine/sched/local_search.h"

#include <numeric>

#include <gtest/gtest.h>

#include "counting_locate_model.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

/// Proves the per-batch memo inside ImproveSchedule plans each distinct
/// pair at most once no matter how many passes and block sizes revisit it.
using tape::CountingLocateModel;

class LocalSearchTest : public ::testing::Test {
 protected:
  LocalSearchTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  std::vector<Request> RandomRequests(int n, Lrand48& rng) const {
    std::vector<Request> out;
    for (int i = 0; i < n; ++i)
      out.push_back(
          Request{rng.NextBounded(model_.geometry().total_segments()), 1});
    return out;
  }

  double Cost(const Schedule& s) const {
    return EstimateScheduleSeconds(model_, s);
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(LocalSearchTest, NeverWorsensAndPreservesPermutation) {
  Lrand48 rng(3);
  for (Algorithm a : {Algorithm::kFifo, Algorithm::kSort, Algorithm::kScan,
                      Algorithm::kWeave, Algorithm::kSltf, Algorithm::kLoss}) {
    std::vector<Request> requests = RandomRequests(48, rng);
    auto s = BuildSchedule(model_, 0, requests, a);
    ASSERT_TRUE(s.ok());
    double before = Cost(*s);
    LocalSearchStats stats = ImproveSchedule(model_, &s.value());
    double after = Cost(*s);
    EXPECT_LE(after, before + 1e-6) << AlgorithmName(a);
    EXPECT_NEAR(before - after, stats.seconds_saved, 1e-6);
    EXPECT_TRUE(IsPermutationOfRequests(*s, requests)) << AlgorithmName(a);
    EXPECT_GE(stats.passes, 1);
  }
}

TEST_F(LocalSearchTest, SubstantiallyImprovesFifo) {
  Lrand48 rng(5);
  std::vector<Request> requests = RandomRequests(64, rng);
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kFifo);
  ASSERT_TRUE(s.ok());
  double before = Cost(*s);
  ImproveSchedule(model_, &s.value());
  EXPECT_LT(Cost(*s), before * 0.7);
}

TEST_F(LocalSearchTest, ReachesOptimumOnTinyInstancesFromFifo) {
  Lrand48 rng(7);
  int reached = 0;
  constexpr int kTrials = 10;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<Request> requests = RandomRequests(5, rng);
    auto fifo = BuildSchedule(model_, 0, requests, Algorithm::kFifo);
    auto opt = BuildSchedule(model_, 0, requests, Algorithm::kOpt);
    ASSERT_TRUE(fifo.ok());
    ASSERT_TRUE(opt.ok());
    ImproveSchedule(model_, &fifo.value());
    EXPECT_GE(Cost(*fifo), Cost(*opt) - 1e-6);
    if (Cost(*fifo) <= Cost(*opt) + 1e-6) ++reached;
  }
  // Or-opt is a heuristic, but on 5-request instances it should usually
  // find the optimum.
  EXPECT_GE(reached, kTrials / 2);
}

TEST_F(LocalSearchTest, TightensLoss) {
  Lrand48 rng(9);
  double total_gain = 0.0;
  for (int t = 0; t < 5; ++t) {
    std::vector<Request> requests = RandomRequests(96, rng);
    auto s = BuildSchedule(model_, 0, requests, Algorithm::kLoss);
    ASSERT_TRUE(s.ok());
    double before = Cost(*s);
    ImproveSchedule(model_, &s.value());
    total_gain += (before - Cost(*s)) / before;
  }
  // LOSS is already good; Or-opt should still shave a few percent.
  EXPECT_GT(total_gain / 5, 0.005);
  EXPECT_LT(total_gain / 5, 0.25);
}

TEST_F(LocalSearchTest, NoOpOnDegenerateSchedules) {
  Schedule empty;
  empty.initial_position = 0;
  EXPECT_EQ(ImproveSchedule(model_, &empty).moves, 0);

  Schedule single;
  single.initial_position = 0;
  single.order = {Request{100, 1}};
  EXPECT_EQ(ImproveSchedule(model_, &single).moves, 0);

  Schedule read;
  read.full_tape_scan = true;
  read.order = {Request{100, 1}, Request{200, 1}};
  EXPECT_EQ(ImproveSchedule(model_, &read).moves, 0);
}

TEST_F(LocalSearchTest, PlansEachDistinctPairAtMostOncePerBatch) {
  Lrand48 rng(17);
  std::vector<Request> requests = RandomRequests(48, rng);
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kFifo);
  ASSERT_TRUE(s.ok());
  CountingLocateModel counting(model_);
  LocalSearchStats stats = ImproveSchedule(counting, &s.value());
  // A FIFO schedule of 48 random requests leaves plenty to improve, so
  // the sweeps revisit edges across several passes and block sizes...
  EXPECT_GT(stats.moves, 0);
  EXPECT_GT(stats.passes, 1);
  ASSERT_FALSE(counting.calls().empty());
  // ...yet every distinct (from, to) pair reaches the model exactly once.
  for (const auto& [pair, count] : counting.calls()) {
    EXPECT_EQ(count, 1) << pair.first << " -> " << pair.second;
  }
}

TEST_F(LocalSearchTest, RespectsPassLimit) {
  Lrand48 rng(11);
  std::vector<Request> requests = RandomRequests(64, rng);
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kFifo);
  ASSERT_TRUE(s.ok());
  LocalSearchOptions options;
  options.max_passes = 1;
  LocalSearchStats stats = ImproveSchedule(model_, &s.value(), options);
  EXPECT_EQ(stats.passes, 1);
}

TEST_F(LocalSearchTest, LargerBlocksHelp) {
  Lrand48 rng(13);
  std::vector<Request> requests = RandomRequests(64, rng);
  auto s1 = BuildSchedule(model_, 0, requests, Algorithm::kSort);
  auto s3 = BuildSchedule(model_, 0, requests, Algorithm::kSort);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s3.ok());
  LocalSearchOptions one;
  one.max_block = 1;
  LocalSearchOptions three;
  three.max_block = 3;
  ImproveSchedule(model_, &s1.value(), one);
  ImproveSchedule(model_, &s3.value(), three);
  EXPECT_LE(Cost(*s3), Cost(*s1) * 1.02);
}

}  // namespace
}  // namespace serpentine::sched
