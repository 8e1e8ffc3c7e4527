// The event-driven LOSS solver (serpentine/tsp/loss_solver.h) against the
// scan solver it replaced (loss_scan_reference.h): both must build the same
// path with the same iteration and rescan counts. The instances lean on the
// tie-breaks, which is where an event-driven solver can drift from a scan:
// dense matrices with 1, 2, 5 and 990 distinct costs, rows forced onto a
// single finite edge, and DLT4000 locate costs over uniform, clustered and
// duplicate-segment draws, with a random, beginning-of-tape or pinned start.
// Each instance runs at both reserve depths, the lazy path's
// kLossReserveDepth and the dense path's kDenseLossReserveDepth, and
// several are built so that reserves run dry: more equal edges than a
// reserve holds, and rows with about a reserve's worth of cheap edges.
// SolveLossPath(LocateCostSoA), which prices batches of up to
// kDenseLossMaxCities cities into a dense matrix before solving, is held to
// the same oracle on both sides of that threshold.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "loss_scan_reference.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/locate_cost.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/loss_solver.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tsp {
namespace {

using tape::SegmentId;

void ExpectSameStats(const LossStats& got, const LossStats& want,
                     const std::string& label) {
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_EQ(got.row_rescans, want.row_rescans) << label;
}

/// A full scan only ever answers a refill, and the refills are at most the
/// rescans a scan solver makes after its first iteration.
void ExpectScansWithinRefills(const LossStats& got, int cities,
                              const std::string& label) {
  if (cities < 2) return;
  EXPECT_GE(got.full_scans, 0) << label;
  EXPECT_LE(got.full_scans, got.row_rescans - (2 * cities - 1)) << label;
}

template <int kDepth, typename Costs>
void ExpectSameAtDepth(const Costs& costs, const std::vector<int>& want,
                       const LossStats& want_stats, const std::string& label) {
  LossStats got_stats;
  std::vector<int> got = SolveLossPathOver<kDepth>(costs, &got_stats);
  const std::string at = label + " depth=" + std::to_string(kDepth);
  EXPECT_EQ(got, want) << at;
  ExpectSameStats(got_stats, want_stats, at);
  ExpectScansWithinRefills(got_stats, costs.size(), at);
}

/// The solver at both reserve depths, the lazy path's and the dense
/// path's, against one run of the scan solver.
template <typename Costs>
void ExpectSameAsScan(const Costs& costs, const std::string& label) {
  LossStats want_stats;
  const std::vector<int> want =
      reference::SolveLossPathOver(costs, &want_stats);
  ExpectSameAtDepth<kLossReserveDepth>(costs, want, want_stats, label);
  ExpectSameAtDepth<kDenseLossReserveDepth>(costs, want, want_stats, label);
}

/// As ExpectSameAsScan, through the entry point the schedulers call, which
/// prices small batches into a dense matrix first.
void ExpectDispatchSameAsScan(const LocateCostSoA& costs,
                              const std::string& label) {
  LossStats got_stats;
  LossStats want_stats;
  std::vector<int> got = SolveLossPath(costs, &got_stats);
  std::vector<int> want = reference::SolveLossPathOver(costs, &want_stats);
  EXPECT_EQ(got, want) << label;
  ExpectSameStats(got_stats, want_stats, label);
  ExpectScansWithinRefills(got_stats, costs.size(), label);
}

/// Random costs drawn from `distinct` values 1..distinct: few values mean
/// many equal losses and equal best edges.
CostMatrix TiedInstance(int n, int distinct, int32_t seed) {
  Lrand48 rng(seed);
  return CostMatrix::Build(n, [&](int, int) {
    return 1.0 + static_cast<double>(rng.NextBounded(distinct));
  });
}

TEST(LossEquivalenceTest, TieHeavyDenseMatrices) {
  // One distinct cost makes every row and column a run of equal edges far
  // longer than a reserve, so only the city order breaks ties. Every
  // commit then refills every row, O(n³) for the scan solver, so those
  // matrices stop at 64 cities.
  for (int distinct : {1, 2, 5, 990}) {
    for (int n : {1, 2, 3, 5, 17, 64, 200, 333}) {
      if (distinct == 1 && n > 64) continue;
      const int seeds = n <= 64 ? 6 : 2;
      for (int32_t seed = 1; seed <= seeds; ++seed) {
        ExpectSameAsScan(TiedInstance(n, distinct, 100 * n + seed),
                         "distinct=" + std::to_string(distinct) +
                             " n=" + std::to_string(n) +
                             " seed=" + std::to_string(seed));
      }
    }
  }
}

TEST(LossEquivalenceTest, RowsWithMoreCheapTiesThanTheReserveHolds) {
  // Every row's cheapest cost, 1, sits on kLossReserveDepth + 1 to + 3
  // columns drawn at random, and every other edge costs 2 to 6. A reserve
  // fills with cost-1 edges in city order and runs dry while cost-1 edges
  // it never kept are still available: the scan that follows must find
  // them, again in city order.
  for (int n : {12, 17, 40, 129, 200}) {
    for (int32_t seed = 1; seed <= 4; ++seed) {
      Lrand48 rng(11 * n + seed);
      CostMatrix m = CostMatrix::Build(n, [&](int, int) {
        return 2.0 + static_cast<double>(rng.NextBounded(5));
      });
      for (int x = 0; x < n; ++x) {
        const int ties = kLossReserveDepth + 1 + x % 3;
        for (int t = 0; t < ties; ++t) {
          const int y = 1 + static_cast<int>(rng.NextBounded(n - 1));
          if (y != x) m.set(x, y, 1.0);
        }
      }
      ExpectSameAsScan(
          m, "n=" + std::to_string(n) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(LossEquivalenceTest, RowsWithAboutAReservesWorthOfCheapEdges) {
  // Row x keeps only about kLossReserveDepth - 2 + x % 5 cheap edges (1 to
  // 5); every other edge costs 1000. A reserve holds its row's cheap edges
  // and then a run of equal 1000s, or is all cheap edges with more behind
  // it, so refills walk past taken ties and scans land in long tie runs.
  for (int n : {8, 12, 30, 100}) {
    for (int32_t seed = 1; seed <= 4; ++seed) {
      CostMatrix m = TiedInstance(n, 5, 13 * n + seed);
      Lrand48 rng(seed);
      for (int x = 0; x < n; ++x) {
        const int keep = kLossReserveDepth - 2 + x % 5;
        for (int y = 1; y < n; ++y) {
          if (y != x && static_cast<int>(rng.NextBounded(n)) >= keep) {
            m.set(x, y, 1000.0);
          }
        }
      }
      ExpectSameAsScan(
          m, "n=" + std::to_string(n) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(LossEquivalenceTest, RowsForcedOntoOneFiniteEdge) {
  // About a third of the rows, drawn at random, keep only their edge to the
  // next city: their loss is +inf from the start, so they tie on loss.
  for (int n : {3, 5, 17, 64, 200}) {
    for (int32_t seed = 1; seed <= 3; ++seed) {
      CostMatrix m = TiedInstance(n, 5, 7 * n + seed);
      Lrand48 rng(seed);
      for (int x = 0; x + 1 < n; ++x) {
        if (rng.NextBounded(3) != 0) continue;
        for (int y = 1; y < n; ++y) {
          if (y != x + 1) m.set(x, y, kInfiniteCost);
        }
      }
      ExpectSameAsScan(m, "n=" + std::to_string(n) +
                              " seed=" + std::to_string(seed));
    }
  }
}

class LossEquivalenceDltTest : public ::testing::Test {
 protected:
  LossEquivalenceDltTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()),
        total_(model_.geometry().total_segments()) {}

  /// The scheduler's city layout: city 0 at `start`, then one city per
  /// request in segment order, entered at its segment and left one past it.
  LocateCostSoA Cities(SegmentId start,
                       std::vector<SegmentId> segments) const {
    std::sort(segments.begin(), segments.end());
    std::vector<SegmentId> out = {start};
    std::vector<SegmentId> in = {start};
    for (SegmentId s : segments) {
      in.push_back(s);
      out.push_back(std::min<SegmentId>(s + 1, total_ - 1));
    }
    return LocateCostSoA(model_, std::move(out), std::move(in));
  }

  std::vector<SegmentId> Uniform(Lrand48& rng, int count) const {
    std::vector<SegmentId> segments;
    for (int i = 0; i < count; ++i) {
      segments.push_back(rng.NextBounded(total_));
    }
    return segments;
  }

  tape::Dlt4000LocateModel model_;
  SegmentId total_;
};

TEST_F(LossEquivalenceDltTest, UniformDrawsFromARandomStartAndFromBot) {
  for (int requests : {1, 2, 16, 63, 332, 1024, 2048}) {
    Lrand48 rng(requests);
    const SegmentId start = rng.NextBounded(total_);
    std::vector<SegmentId> segments = Uniform(rng, requests);
    ExpectSameAsScan(Cities(start, segments),
                     "random start, requests=" + std::to_string(requests));
    if (requests <= 1024) {
      ExpectSameAsScan(Cities(0, segments),
                       "BOT start, requests=" + std::to_string(requests));
    }
  }
}

TEST_F(LossEquivalenceDltTest, ClusteredDraws) {
  // A few narrow bands of tape: most edges stay in one track's read-speed
  // window, so many locate times coincide.
  for (int requests : {16, 200, 1024, 2048}) {
    Lrand48 rng(31 * requests);
    std::vector<SegmentId> centres = Uniform(rng, 4);
    std::vector<SegmentId> segments;
    for (int i = 0; i < requests; ++i) {
      const SegmentId centre = centres[rng.NextBounded(4)];
      segments.push_back(
          std::min<SegmentId>(centre + rng.NextBounded(400), total_ - 1));
    }
    ExpectSameAsScan(Cities(rng.NextBounded(total_), segments),
                     "requests=" + std::to_string(requests));
  }
}

TEST_F(LossEquivalenceDltTest, DuplicateSegments) {
  // Requests drawn from a pool of 12 segments: zero-cost edges between
  // duplicates and whole rows of equal costs.
  for (int requests : {5, 64, 500}) {
    Lrand48 rng(requests + 9);
    std::vector<SegmentId> pool = Uniform(rng, 12);
    std::vector<SegmentId> segments;
    for (int i = 0; i < requests; ++i) {
      segments.push_back(pool[rng.NextBounded(12)]);
    }
    ExpectSameAsScan(Cities(pool[0], segments),
                     "requests=" + std::to_string(requests));
  }
}

TEST_F(LossEquivalenceDltTest, DuplicatePoolsAtThePapersSizes) {
  // Fig 4/6 sizes drawn from pools of about half as many segments: most
  // cities have twins, so rows hold runs of equal edges (zero-cost ones
  // among them) longer than a reserve, and a commit takes a twin that
  // other rows' reserves still list. (Smaller pools drain reserves harder
  // but make the scan solver take seconds.)
  const std::pair<int, int> draws[] = {{1024, 300}, {2048, 1000}};
  for (const auto& [requests, pool_size] : draws) {
    Lrand48 rng(requests + pool_size);
    std::vector<SegmentId> pool = Uniform(rng, pool_size);
    std::vector<SegmentId> segments;
    for (int i = 0; i < requests; ++i) {
      segments.push_back(pool[rng.NextBounded(pool_size)]);
    }
    ExpectSameAsScan(Cities(rng.NextBounded(total_), segments),
                     "requests=" + std::to_string(requests) +
                         " pool=" + std::to_string(pool_size));
  }
}

TEST_F(LossEquivalenceDltTest, PinnedStartFragments) {
  // loss-mt solves each fragment with city 0 pinned to the fragment's first
  // request, which has real in/out endpoints of its own.
  for (int cities : {2, 9, 257, 1024}) {
    Lrand48 rng(5 * cities);
    std::vector<SegmentId> segments = Uniform(rng, cities);
    std::sort(segments.begin(), segments.end());
    std::vector<SegmentId> out;
    std::vector<SegmentId> in;
    for (SegmentId s : segments) {
      in.push_back(s);
      out.push_back(std::min<SegmentId>(s + 1, total_ - 1));
    }
    ExpectSameAsScan(LocateCostSoA(model_, std::move(out), std::move(in)),
                     "cities=" + std::to_string(cities));
  }
}

TEST_F(LossEquivalenceDltTest, BatchesAroundTheDenseThreshold) {
  // Knee-sized batches, then city counts just below, at and just above
  // kDenseLossMaxCities: the last one takes the lazy path.
  for (int cities : {2, 3, 29, 65, kDenseLossMaxCities - 1,
                     kDenseLossMaxCities, kDenseLossMaxCities + 1}) {
    for (int32_t seed = 1; seed <= 3; ++seed) {
      Lrand48 rng(1000 * cities + seed);
      const SegmentId start = seed == 3 ? 0 : rng.NextBounded(total_);
      const std::string label = "cities=" + std::to_string(cities) +
                                " seed=" + std::to_string(seed);
      ExpectDispatchSameAsScan(Cities(start, Uniform(rng, cities - 1)),
                               label);
      // Duplicates: zero-cost edges and equal rows on the dense path too.
      std::vector<SegmentId> pool = Uniform(rng, 6);
      std::vector<SegmentId> segments;
      for (int i = 1; i < cities; ++i) {
        segments.push_back(pool[rng.NextBounded(6)]);
      }
      ExpectDispatchSameAsScan(Cities(pool[0], segments),
                               label + " duplicates");
    }
  }
}

TEST_F(LossEquivalenceDltTest, LossMtMergeAroundTheDenseThreshold) {
  // loss-mt's merge orders fragment chains: each city enters at its
  // chain's head and leaves from its tail, far from where it entered.
  // 40 fragments is a 41-city merge; the others straddle the threshold.
  for (int fragments : {40, kDenseLossMaxCities - 2, kDenseLossMaxCities - 1,
                        kDenseLossMaxCities}) {
    Lrand48 rng(77 * fragments);
    const SegmentId initial = rng.NextBounded(total_);
    std::vector<SegmentId> heads = Uniform(rng, fragments);
    std::sort(heads.begin(), heads.end());
    std::vector<SegmentId> out = {initial};
    std::vector<SegmentId> in = {initial};
    for (SegmentId head : heads) {
      in.push_back(head);
      out.push_back(rng.NextBounded(total_));
    }
    ExpectDispatchSameAsScan(
        LocateCostSoA(model_, std::move(out), std::move(in)),
        "merge cities=" + std::to_string(fragments + 1));
  }
}

TEST_F(LossEquivalenceDltTest, PinnedStartFragmentsAroundTheDenseThreshold) {
  for (int cities : {kDenseLossMaxCities - 1, kDenseLossMaxCities,
                     kDenseLossMaxCities + 1}) {
    Lrand48 rng(3 * cities);
    std::vector<SegmentId> segments = Uniform(rng, cities);
    std::sort(segments.begin(), segments.end());
    std::vector<SegmentId> out;
    std::vector<SegmentId> in;
    for (SegmentId s : segments) {
      in.push_back(s);
      out.push_back(std::min<SegmentId>(s + 1, total_ - 1));
    }
    ExpectDispatchSameAsScan(
        LocateCostSoA(model_, std::move(out), std::move(in)),
        "fragment cities=" + std::to_string(cities));
  }
}

TEST_F(LossEquivalenceDltTest, ThePapersOperatingPointRarelyScans) {
  // batch-loss-1024's first draw (serpbench seed 1, trial 0): 1,025 cities
  // on the lazy path. Its 2,989 refills (row_rescans less the first
  // iteration's 2n-1; no slot runs empty here) answer all but 410 from a
  // reserve. A solver without one scans on every refill.
  Lrand48 rng(0);
  rng.SeedState(DeriveRand48State(1, 0));
  const SegmentId start = rng.NextBounded(total_);
  std::vector<SegmentId> segments;
  for (const sched::Request& r :
       sim::GenerateUniformRequests(rng, 1024, total_)) {
    segments.push_back(r.segment);
  }
  const LocateCostSoA costs = Cities(start, segments);
  ASSERT_GT(costs.size(), kDenseLossMaxCities);
  LossStats stats;
  SolveLossPath(costs, &stats);
  EXPECT_EQ(stats.iterations, 1024);
  EXPECT_EQ(stats.row_rescans, 5038);
  EXPECT_EQ(stats.full_scans, 410);
  EXPECT_LT(7 * stats.full_scans, stats.row_rescans - (2 * 1025 - 1));
}

}  // namespace
}  // namespace serpentine::tsp
