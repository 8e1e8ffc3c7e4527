#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/sched/estimator.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sched {
namespace {

using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;
using tape::TapeGeometry;

/// The paper's nine algorithms, then the builders beyond it.
std::vector<Algorithm> EveryAlgorithm() {
  std::vector<Algorithm> out(std::begin(kAllAlgorithms),
                             std::end(kAllAlgorithms));
  out.insert(out.end(), {Algorithm::kLtsp, Algorithm::kLossMt,
                         Algorithm::kLossMtOrOpt});
  return out;
}

class AlgorithmsTestBase : public ::testing::Test {
 protected:
  AlgorithmsTestBase()
      : model_(TapeGeometry::Generate(Dlt4000TapeParams(), 1),
               Dlt4000Timings()) {}

  std::vector<Request> RandomRequests(int n, Lrand48& rng) const {
    std::vector<Request> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
      out.push_back(Request{rng.NextBounded(total()), 1});
    return out;
  }

  SegmentId total() const { return model_.geometry().total_segments(); }

  double Cost(const Schedule& s) const {
    return EstimateScheduleSeconds(model_, s);
  }

  double MeanCost(Algorithm a, int n, int trials, int32_t seed,
                  const SchedulerOptions& options = {}) const {
    Lrand48 rng(seed);
    double sum = 0.0;
    for (int t = 0; t < trials; ++t) {
      SegmentId initial = rng.NextBounded(total());
      auto s = BuildSchedule(model_, initial, RandomRequests(n, rng), a,
                             options);
      sum += Cost(s.value());
    }
    return sum / trials;
  }

  tape::Dlt4000LocateModel model_;
};

// ---------------------------------------------------------------------------
// Parameterized validity sweep: every algorithm must return a permutation of
// the requests with a finite positive cost, at several batch sizes.
// ---------------------------------------------------------------------------

using AlgoSize = std::tuple<Algorithm, int>;

class ScheduleValidityTest
    : public AlgorithmsTestBase,
      public ::testing::WithParamInterface<AlgoSize> {};

TEST_P(ScheduleValidityTest, ProducesValidPermutation) {
  auto [algorithm, n] = GetParam();
  if (algorithm == Algorithm::kOpt && n > 10) GTEST_SKIP();
  Lrand48 rng(1000 + n);
  for (int32_t trial = 0; trial < 3; ++trial) {
    SegmentId initial = rng.NextBounded(total());
    std::vector<Request> requests = RandomRequests(n, rng);
    auto s = BuildSchedule(model_, initial, requests, algorithm);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    EXPECT_EQ(s->algorithm, algorithm);
    EXPECT_EQ(s->initial_position, initial);
    EXPECT_TRUE(IsPermutationOfRequests(*s, requests));
    double cost = Cost(*s);
    EXPECT_GT(cost, 0.0);
    EXPECT_LT(cost, 40000.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ScheduleValidityTest,
    ::testing::Combine(::testing::ValuesIn(EveryAlgorithm()),
                       ::testing::Values(1, 2, 5, 10, 64, 192)),
    [](const ::testing::TestParamInfo<AlgoSize>& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Determinism.
// ---------------------------------------------------------------------------

class ScheduleDeterminismTest
    : public AlgorithmsTestBase,
      public ::testing::WithParamInterface<Algorithm> {};

TEST_P(ScheduleDeterminismTest, SameInputSameSchedule) {
  Algorithm algorithm = GetParam();
  int n = algorithm == Algorithm::kOpt ? 8 : 48;
  Lrand48 rng(7);
  SegmentId initial = rng.NextBounded(total());
  std::vector<Request> requests = RandomRequests(n, rng);
  auto a = BuildSchedule(model_, initial, requests, algorithm);
  auto b = BuildSchedule(model_, initial, requests, algorithm);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->order, b->order);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ScheduleDeterminismTest,
                         ::testing::ValuesIn(EveryAlgorithm()),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// Duplicates and multi-segment requests.
// ---------------------------------------------------------------------------

class ScheduleRobustnessTest
    : public AlgorithmsTestBase,
      public ::testing::WithParamInterface<Algorithm> {};

TEST_P(ScheduleRobustnessTest, HandlesDuplicateSegments) {
  Algorithm algorithm = GetParam();
  std::vector<Request> requests = {Request{5000, 1}, Request{5000, 1},
                                   Request{5000, 1}, Request{70000, 1},
                                   Request{70000, 1}};
  auto s = BuildSchedule(model_, 0, requests, algorithm);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(IsPermutationOfRequests(*s, requests));
}

TEST_P(ScheduleRobustnessTest, HandlesMultiSegmentRequests) {
  Algorithm algorithm = GetParam();
  std::vector<Request> requests = {Request{5000, 1000}, Request{300000, 64},
                                   Request{100000, 1}, Request{600000, 256}};
  auto s = BuildSchedule(model_, 1000, requests, algorithm);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE(IsPermutationOfRequests(*s, requests));
  EXPECT_GT(Cost(*s), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ScheduleRobustnessTest,
                         ::testing::ValuesIn(EveryAlgorithm()),
                         [](const auto& info) {
                           std::string name = AlgorithmName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// ---------------------------------------------------------------------------
// FIFO / SORT / READ semantics.
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, FifoPreservesArrivalOrder) {
  std::vector<Request> requests = {Request{900}, Request{100}, Request{500}};
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kFifo);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->order, requests);
}

TEST_F(AlgorithmsTestBase, SortOrdersBySegment) {
  std::vector<Request> requests = {Request{900}, Request{100}, Request{500}};
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kSort);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->order[0].segment, 100);
  EXPECT_EQ(s->order[1].segment, 500);
  EXPECT_EQ(s->order[2].segment, 900);
}

TEST_F(AlgorithmsTestBase, ReadIsConstantTimeFullScan) {
  Lrand48 rng(3);
  auto small = BuildSchedule(model_, 0, RandomRequests(5, rng),
                             Algorithm::kRead);
  auto large = BuildSchedule(model_, 0, RandomRequests(500, rng),
                             Algorithm::kRead);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  EXPECT_TRUE(small->full_tape_scan);
  double t_small = Cost(*small);
  double t_large = Cost(*large);
  EXPECT_DOUBLE_EQ(t_small, t_large);
  // Paper: "a typical time to read an entire tape and rewind is 14,000 s".
  EXPECT_NEAR(t_small, 14000.0, 700.0);
  // Delivery order is ascending.
  EXPECT_TRUE(std::is_sorted(large->order.begin(), large->order.end(),
                             [](const Request& a, const Request& b) {
                               return a.segment < b.segment;
                             }));
}

// ---------------------------------------------------------------------------
// OPT.
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, OptMatchesExhaustiveEstimatorSearch) {
  // Independent check of the TSP reduction: for tiny n, OPT's schedule must
  // match the best cost found by brute-force search over the *estimator*.
  Lrand48 rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    int n = 2 + static_cast<int>(rng.NextBounded(4));  // 2..5
    SegmentId initial = rng.NextBounded(total());
    std::vector<Request> requests = RandomRequests(n, rng);
    auto opt = BuildSchedule(model_, initial, requests, Algorithm::kOpt);
    ASSERT_TRUE(opt.ok());

    std::vector<int> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    double best = 1e18;
    do {
      Schedule s;
      s.initial_position = initial;
      for (int i : perm) s.order.push_back(requests[i]);
      best = std::min(best, Cost(s));
    } while (std::next_permutation(perm.begin(), perm.end()));

    EXPECT_NEAR(Cost(*opt), best, 1e-6) << "trial " << trial;
  }
}

TEST_F(AlgorithmsTestBase, OptNeverWorseThanAnyHeuristic) {
  // OPT is exact, so no registered scheduler beats it on any batch it can
  // take.
  Lrand48 rng(13);
  for (int n : {4, 8, 12}) {
    for (int trial = 0; trial < 30; ++trial) {
      SegmentId initial = rng.NextBounded(total());
      std::vector<Request> requests = RandomRequests(n, rng);
      auto opt = BuildSchedule(model_, initial, requests, Algorithm::kOpt);
      ASSERT_TRUE(opt.ok());
      double opt_cost = Cost(*opt);
      for (const RegistryEntry& entry : Registry::Default().entries()) {
        auto s = entry.Build(model_, initial, requests);
        ASSERT_TRUE(s.ok()) << entry.name;
        EXPECT_LE(opt_cost, Cost(*s) + 1e-6)
            << entry.name << " n=" << n << " trial " << trial;
      }
    }
  }
}

TEST_F(AlgorithmsTestBase, OptRejectsLargeBatches) {
  Lrand48 rng(17);
  auto s = BuildSchedule(model_, 0, RandomRequests(32, rng), Algorithm::kOpt);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// SLTF: the sectioned O(n log n + k²) version is equivalent to the naive
// O(n²) greedy.
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, SltfSectionedMatchesNaiveGreedy) {
  Lrand48 rng(19);
  SchedulerOptions naive;
  naive.sltf_naive = true;
  for (int trial = 0; trial < 12; ++trial) {
    // Start away from the first two reading sections: inside them, the
    // greedy's choice between a behind-request and a far-ahead request can
    // legitimately differ (the paper's footnote-2 corner).
    SegmentId initial = model_.geometry().ToSegment(
        tape::Coord{static_cast<int>(rng.NextBounded(64)),
                    3 + static_cast<int>(rng.NextBounded(8)), 50});
    std::vector<Request> requests = RandomRequests(40, rng);
    auto fast =
        BuildSchedule(model_, initial, requests, Algorithm::kSltf);
    auto slow =
        BuildSchedule(model_, initial, requests, Algorithm::kSltf, naive);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    EXPECT_NEAR(Cost(*fast), Cost(*slow), 1e-6) << "trial " << trial;
  }
}

TEST_F(AlgorithmsTestBase, SltfConsumesSectionsInOrder) {
  // Fact 1 consequence: once SLTF enters a section, it reads all requests
  // there in ascending order before leaving.
  Lrand48 rng(23);
  SegmentId initial =
      model_.geometry().ToSegment(tape::Coord{20, 6, 100});
  std::vector<Request> requests = RandomRequests(60, rng);
  auto s = BuildSchedule(model_, initial, requests, Algorithm::kSltf);
  ASSERT_TRUE(s.ok());
  const auto& g = model_.geometry();
  // Build the visit sequence of (track, reading section) and check each
  // section appears as one contiguous ascending run (the start section may
  // be revisited once for requests behind the initial position).
  std::map<std::pair<int, int>, int> runs;
  std::pair<int, int> prev{-1, -1};
  SegmentId prev_seg = -1;
  int start_track = g.TrackOf(initial);
  int start_sec = g.ReadingSectionOf(initial);
  for (const Request& r : s->order) {
    std::pair<int, int> key{g.TrackOf(r.segment),
                            g.ReadingSectionOf(r.segment)};
    if (key != prev) {
      ++runs[key];
      prev = key;
      prev_seg = -1;
    } else {
      EXPECT_GT(r.segment, prev_seg);
    }
    prev_seg = r.segment;
  }
  for (const auto& [key, count] : runs) {
    int allowed = (key == std::make_pair(start_track, start_sec)) ? 2 : 1;
    EXPECT_LE(count, allowed)
        << "track " << key.first << " section " << key.second;
  }
}

// ---------------------------------------------------------------------------
// SCAN: the paper's worked example (§4).
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, ScanReordersPaperExample) {
  // Requests at (track, section) = (16,2), (17,12), (18,3). SORT visits
  // them in segment order — two long passes. SCAN visits (16,2), (18,3) on
  // the up pass and (17,12) on the way back down.
  const auto& g = model_.geometry();
  Request a{g.ToSegment(tape::Coord{16, 2, 10})};
  Request b{g.ToSegment(tape::Coord{17, 12, 10})};
  Request c{g.ToSegment(tape::Coord{18, 3, 10})};
  std::vector<Request> requests = {a, b, c};

  auto sort = BuildSchedule(model_, 0, requests, Algorithm::kSort);
  ASSERT_TRUE(sort.ok());
  EXPECT_EQ(sort->order, (std::vector<Request>{a, b, c}));

  auto scan = BuildSchedule(model_, 0, requests, Algorithm::kScan);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->order, (std::vector<Request>{a, c, b}));

  // And the point of the example: SCAN's order executes faster.
  EXPECT_LT(Cost(*scan), Cost(*sort));
}

TEST_F(AlgorithmsTestBase, ScanUpPassUsesForwardTracksDownPassReverse) {
  Lrand48 rng(31);
  std::vector<Request> requests = RandomRequests(100, rng);
  auto s = BuildSchedule(model_, 0, requests, Algorithm::kScan);
  ASSERT_TRUE(s.ok());
  const auto& g = model_.geometry();
  // Within one shuttle, forward-track requests have ascending physical
  // sections and reverse-track requests descending.
  int prev_fwd_section = -1;
  bool in_down_pass = false;
  int shuttles = 1;
  int prev_rev_section = 14;
  for (const Request& r : s->order) {
    tape::Coord c = g.ToCoord(r.segment);
    if (g.IsForwardTrack(c.track)) {
      if (in_down_pass) {  // new shuttle begins
        in_down_pass = false;
        prev_fwd_section = -1;
        prev_rev_section = 14;
        ++shuttles;
      }
      EXPECT_GE(c.physical_section, prev_fwd_section);
      prev_fwd_section = c.physical_section;
    } else {
      if (in_down_pass && c.physical_section > prev_rev_section) {
        // A shuttle whose up pass found no forward-track work left: the
        // down pass restarts from the top.
        prev_fwd_section = -1;
        prev_rev_section = 14;
        ++shuttles;
      }
      in_down_pass = true;
      EXPECT_LE(c.physical_section, prev_rev_section);
      prev_rev_section = c.physical_section;
    }
  }
  EXPECT_LT(shuttles, 10);  // 100 requests shouldn't need many passes
}

// ---------------------------------------------------------------------------
// Relative quality at moderate batch sizes (the paper's Fig 4 ordering).
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, QualityOrderingAtModerateBatchSize) {
  constexpr int kN = 96;
  constexpr int kTrials = 12;
  double fifo = MeanCost(Algorithm::kFifo, kN, kTrials, 101);
  double sort = MeanCost(Algorithm::kSort, kN, kTrials, 101);
  double scan = MeanCost(Algorithm::kScan, kN, kTrials, 101);
  double sltf = MeanCost(Algorithm::kSltf, kN, kTrials, 101);
  double weave = MeanCost(Algorithm::kWeave, kN, kTrials, 101);
  double loss = MeanCost(Algorithm::kLoss, kN, kTrials, 101);

  // Paper Fig 4: every scheduler beats FIFO at N=96 — SORT only modestly
  // ("poor for small n"), the others by a wide margin — and LOSS is the
  // best of the heuristics.
  EXPECT_LT(sort, fifo * 0.9);
  EXPECT_LT(scan, fifo * 0.6);
  EXPECT_LT(sltf, fifo * 0.6);
  EXPECT_LT(weave, fifo * 0.7);
  EXPECT_LT(loss, fifo * 0.6);
  EXPECT_LE(loss, sltf * 1.02);
  EXPECT_LE(loss, scan * 1.02);
  EXPECT_LE(loss, weave * 1.02);
}

TEST_F(AlgorithmsTestBase, SparseLossTracksDenseLoss) {
  constexpr int kN = 128;
  double dense = MeanCost(Algorithm::kLoss, kN, 8, 103);
  double sparse = MeanCost(Algorithm::kSparseLoss, kN, 8, 103);
  EXPECT_LT(sparse, dense * 1.25);
}

TEST_F(AlgorithmsTestBase, LossCoalescingPreservesQuality) {
  constexpr int kN = 256;
  SchedulerOptions coalesced;
  coalesced.loss_coalesce_threshold = kDefaultCoalesceThreshold;
  double plain = MeanCost(Algorithm::kLoss, kN, 5, 107);
  double merged = MeanCost(Algorithm::kLoss, kN, 5, 107, coalesced);
  EXPECT_LT(merged, plain * 1.15);
}

// ---------------------------------------------------------------------------
// Facade validation.
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, RejectsRequestOffTape) {
  auto s = BuildSchedule(model_, 0, {Request{total() + 5, 1}},
                         Algorithm::kSort);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AlgorithmsTestBase, RejectsRequestOverhangingTapeEnd) {
  auto s = BuildSchedule(model_, 0, {Request{total() - 2, 10}},
                         Algorithm::kSort);
  EXPECT_FALSE(s.ok());
}

TEST_F(AlgorithmsTestBase, RejectsNonPositiveCount) {
  auto s =
      BuildSchedule(model_, 0, {Request{100, 0}}, Algorithm::kSort);
  EXPECT_FALSE(s.ok());
}

TEST_F(AlgorithmsTestBase, RejectsInitialPositionOffTape) {
  auto s = BuildSchedule(model_, total(), {Request{100, 1}},
                         Algorithm::kSort);
  EXPECT_FALSE(s.ok());
}

TEST_F(AlgorithmsTestBase, EmptyBatchYieldsEmptySchedule) {
  for (Algorithm a : EveryAlgorithm()) {
    auto s = BuildSchedule(model_, 0, {}, a);
    ASSERT_TRUE(s.ok()) << AlgorithmName(a);
    EXPECT_TRUE(s->order.empty());
  }
}

// ---------------------------------------------------------------------------
// Estimator semantics.
// ---------------------------------------------------------------------------

TEST_F(AlgorithmsTestBase, EstimatorRewindOptionAddsRewind) {
  Schedule s;
  s.initial_position = 0;
  s.order = {Request{300000, 1}};
  EstimateOptions with_rewind;
  with_rewind.rewind_at_end = true;
  double base = EstimateScheduleSeconds(model_, s);
  double rewound = EstimateScheduleSeconds(model_, s, with_rewind);
  EXPECT_NEAR(rewound - base, model_.RewindSeconds(300001), 0.1);
}

TEST_F(AlgorithmsTestBase, OutPositionClampsAtTapeEnd) {
  Request last{total() - 1, 1};
  EXPECT_EQ(OutPosition(model_.geometry(), last), total() - 1);
  Request mid{1000, 5};
  EXPECT_EQ(OutPosition(model_.geometry(), mid), 1005);
}

// ---------------------------------------------------------------------------
// Helical comparison: SORT is optimal there (paper §2).
// ---------------------------------------------------------------------------

TEST(HelicalSchedulingTest, SortIsOptimalOnHelicalTapeFromBot) {
  // Paper §2: with the head at or below the smallest requested block,
  // "sort by logical block number and retrieve in order" is the optimal
  // schedule for helical scan.
  tape::HelicalLocateModel helical(200000);
  Lrand48 rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Request> requests;
    for (int i = 0; i < 7; ++i)
      requests.push_back(
          Request{rng.NextBounded(helical.geometry().total_segments()), 1});
    auto sort = BuildSchedule(helical, 0, requests, Algorithm::kSort);
    auto opt = BuildSchedule(helical, 0, requests, Algorithm::kOpt);
    ASSERT_TRUE(sort.ok());
    ASSERT_TRUE(opt.ok());
    EXPECT_NEAR(EstimateScheduleSeconds(helical, *sort),
                EstimateScheduleSeconds(helical, *opt), 1e-6);
  }
}

TEST(HelicalSchedulingTest, OptNeverLosesToSortFromAnyStart) {
  tape::HelicalLocateModel helical(200000);
  Lrand48 rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    SegmentId initial =
        rng.NextBounded(helical.geometry().total_segments());
    std::vector<Request> requests;
    for (int i = 0; i < 7; ++i)
      requests.push_back(
          Request{rng.NextBounded(helical.geometry().total_segments()), 1});
    auto sort = BuildSchedule(helical, initial, requests, Algorithm::kSort);
    auto opt = BuildSchedule(helical, initial, requests, Algorithm::kOpt);
    ASSERT_TRUE(sort.ok());
    ASSERT_TRUE(opt.ok());
    EXPECT_LE(EstimateScheduleSeconds(helical, *opt),
              EstimateScheduleSeconds(helical, *sort) + 1e-9);
  }
}

}  // namespace
}  // namespace serpentine::sched
