#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "loss_scan_reference.h"
#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/exact.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/sparse_loss.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tsp {
namespace {

/// Random asymmetric instance with costs in [1, 100).
CostMatrix RandomInstance(int n, int32_t seed) {
  Lrand48 rng(seed);
  return CostMatrix::Build(n, [&](int, int) {
    return 1.0 + static_cast<double>(rng.NextBounded(990)) / 10.0;
  });
}

TEST(CostMatrixTest, SelfLoopsAndStartInEdgesForbidden) {
  CostMatrix m = CostMatrix::Build(4, [](int, int) { return 1.0; });
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(m.cost(i, i), kInfiniteCost);
    if (i != 0) {
      EXPECT_EQ(m.cost(i, 0), kInfiniteCost);
    }
  }
  EXPECT_EQ(m.cost(0, 1), 1.0);
}

TEST(CostMatrixTest, RowAndColumnCostsReadStoredValues) {
  CostMatrix m = RandomInstance(9, 4);
  const std::vector<int> open = {0, 2, 3, 7, 8};
  std::vector<double> got(open.size());
  for (int x = 0; x < 9; ++x) {
    m.RowCosts(x, open.data(), 5, got.data());
    for (int k = 0; k < 5; ++k) EXPECT_EQ(got[k], m.cost(x, open[k]));
    m.ColumnCosts(open.data(), 5, x, got.data());
    for (int k = 0; k < 5; ++k) EXPECT_EQ(got[k], m.cost(open[k], x));
  }
}

TEST(CostMatrixTest, PathCostSumsEdges) {
  CostMatrix m(3);
  m.set(0, 1, 5.0);
  m.set(1, 2, 7.0);
  EXPECT_DOUBLE_EQ(PathCost(m, {0, 1, 2}), 12.0);
}

TEST(CostMatrixTest, IsValidPathChecksPermutation) {
  CostMatrix m(3);
  EXPECT_TRUE(IsValidPath(m, {0, 2, 1}));
  EXPECT_FALSE(IsValidPath(m, {1, 0, 2}));  // must start at 0
  EXPECT_FALSE(IsValidPath(m, {0, 1, 1}));  // repeat
  EXPECT_FALSE(IsValidPath(m, {0, 1}));     // short
  EXPECT_FALSE(IsValidPath(m, {0, 1, 3}));  // out of range
}

TEST(ExactTest, TrivialSizes) {
  CostMatrix one(1);
  EXPECT_EQ(SolveExactHeldKarp(one).value(), std::vector<int>({0}));
  CostMatrix two(2);
  two.set(0, 1, 3.0);
  EXPECT_EQ(SolveExactHeldKarp(two).value(), std::vector<int>({0, 1}));
  EXPECT_EQ(SolveExactBruteForce(two).value(), std::vector<int>({0, 1}));
}

TEST(ExactTest, KnownOptimum) {
  // 0 -> 2 -> 1 is the cheap chain.
  CostMatrix m(3);
  m.set(0, 1, 10.0);
  m.set(0, 2, 1.0);
  m.set(1, 2, 10.0);
  m.set(2, 1, 1.0);
  EXPECT_EQ(SolveExactHeldKarp(m).value(), std::vector<int>({0, 2, 1}));
  EXPECT_EQ(SolveExactBruteForce(m).value(), std::vector<int>({0, 2, 1}));
}

TEST(ExactTest, HeldKarpMatchesBruteForceOnRandomInstances) {
  for (int n = 2; n <= 8; ++n) {
    for (int32_t seed = 1; seed <= 10; ++seed) {
      CostMatrix m = RandomInstance(n, seed * 100 + n);
      auto hk = SolveExactHeldKarp(m);
      auto bf = SolveExactBruteForce(m);
      ASSERT_TRUE(hk.ok());
      ASSERT_TRUE(bf.ok());
      EXPECT_TRUE(IsValidPath(m, hk.value()));
      EXPECT_NEAR(PathCost(m, hk.value()), PathCost(m, bf.value()), 1e-9)
          << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(ExactTest, SizeGuards) {
  CostMatrix big(kMaxHeldKarpCities + 2);
  EXPECT_FALSE(SolveExactHeldKarp(big).ok());
  CostMatrix medium(kMaxBruteForceCities + 2);
  EXPECT_FALSE(SolveExactBruteForce(medium).ok());
}

TEST(LossTest, ProducesValidPath) {
  for (int n : {1, 2, 3, 5, 17, 64, 200}) {
    CostMatrix m = RandomInstance(n, 7 + n);
    std::vector<int> path = SolveLossPath(m);
    EXPECT_TRUE(IsValidPath(m, path)) << "n=" << n;
  }
}

TEST(LossTest, OptimalWhenGreedyIsSafe) {
  // A chain 0 -> 1 -> 2 -> 3 with strictly increasing detour costs.
  CostMatrix m(4);
  for (int i = 0; i < 4; ++i)
    for (int j = 1; j < 4; ++j)
      if (i != j) m.set(i, j, j == i + 1 ? 1.0 : 50.0 + i + j);
  EXPECT_EQ(SolveLossPath(m), (std::vector<int>{0, 1, 2, 3}));
}

TEST(LossTest, NearOptimalOnSmallRandomInstances) {
  // The loss rule is a strong greedy: on small instances it should land
  // within a modest factor of OPT on average.
  double ratio_sum = 0.0;
  int cases = 0;
  for (int32_t seed = 1; seed <= 30; ++seed) {
    CostMatrix m = RandomInstance(8, 1000 + seed);
    double loss = PathCost(m, SolveLossPath(m));
    double opt = PathCost(m, SolveExactHeldKarp(m).value());
    ASSERT_GE(loss, opt - 1e-9);
    ratio_sum += loss / opt;
    ++cases;
  }
  EXPECT_LT(ratio_sum / cases, 1.6);
}

TEST(LossTest, AvoidsTheGreedyTrap) {
  // SLTF-style nearest-next takes 0->1 (cost 1) and then pays 100 for
  // 1->2; LOSS sees that city 2's in-edges differ hugely and commits
  // 0->2 first. Path 0->2->1 costs 12; path 0->1->2 costs 101.
  CostMatrix m(3);
  m.set(0, 1, 1.0);
  m.set(0, 2, 10.0);
  m.set(1, 2, 100.0);
  m.set(2, 1, 2.0);
  std::vector<int> path = SolveLossPath(m);
  EXPECT_EQ(path, (std::vector<int>{0, 2, 1}));
}

TEST(LossTest, StatsCountIterations) {
  CostMatrix m = RandomInstance(20, 5);
  LossStats stats;
  SolveLossPathWithStats(m, &stats);
  EXPECT_EQ(stats.iterations, 19);
  LossStats scan;
  reference::SolveLossPathOver(m, &scan);
  EXPECT_EQ(stats.row_rescans, scan.row_rescans);
}

TEST(SparseLossTest, DegeneratesToSingleCity) {
  std::vector<std::vector<SparseEdge>> edges(1);
  auto cost = [](int, int) { return 1.0; };
  EXPECT_EQ(SolveSparseLossPath(1, edges, cost), std::vector<int>({0}));
}

TEST(SparseLossTest, CompletesViaContractionWhenGraphIsEmpty) {
  // No candidate edges at all: everything is linked in the contraction
  // phase using the full cost function.
  int n = 12;
  CostMatrix m = RandomInstance(n, 3);
  std::vector<std::vector<SparseEdge>> edges(n);
  SparseLossStats stats;
  std::vector<int> path = SolveSparseLossPath(
      n, edges, [&](int i, int j) { return m.cost(i, j); }, &stats);
  EXPECT_TRUE(IsValidPath(m, path));
  EXPECT_EQ(stats.sparse_commits, 0);
  EXPECT_EQ(stats.fragments_after_sparse, n);
  EXPECT_EQ(stats.contraction_cities, n);
}

TEST(SparseLossTest, UsesSparseEdgesWhenAvailable) {
  int n = 30;
  CostMatrix m = RandomInstance(n, 11);
  // Offer each city its 5 cheapest out-edges.
  std::vector<std::vector<SparseEdge>> edges(n);
  for (int i = 0; i < n; ++i) {
    std::vector<SparseEdge> all;
    for (int j = 1; j < n; ++j)
      if (j != i) all.push_back({j, m.cost(i, j)});
    std::sort(all.begin(), all.end(),
              [](const SparseEdge& a, const SparseEdge& b) {
                return a.cost < b.cost;
              });
    all.resize(5);
    edges[i] = all;
  }
  SparseLossStats stats;
  std::vector<int> path = SolveSparseLossPath(
      n, edges, [&](int i, int j) { return m.cost(i, j); }, &stats);
  EXPECT_TRUE(IsValidPath(m, path));
  EXPECT_GT(stats.sparse_commits, 0);
  EXPECT_LT(stats.fragments_after_sparse, n);
}

TEST(SparseLossTest, QualityCloseToDenseLoss) {
  double worst_ratio = 0.0;
  for (int32_t seed = 1; seed <= 10; ++seed) {
    int n = 60;
    CostMatrix m = RandomInstance(n, 2000 + seed);
    std::vector<std::vector<SparseEdge>> edges(n);
    for (int i = 0; i < n; ++i) {
      std::vector<SparseEdge> all;
      for (int j = 1; j < n; ++j)
        if (j != i) all.push_back({j, m.cost(i, j)});
      std::sort(all.begin(), all.end(),
                [](const SparseEdge& a, const SparseEdge& b) {
                  return a.cost < b.cost;
                });
      all.resize(12);  // ~2 log2(60)
      edges[i] = all;
    }
    double dense = PathCost(m, SolveLossPath(m));
    double sparse = PathCost(
        m, SolveSparseLossPath(n, edges,
                               [&](int i, int j) { return m.cost(i, j); }));
    worst_ratio = std::max(worst_ratio, sparse / dense);
  }
  // Sparse LOSS trades quality for speed; it should stay in the same
  // ballpark on random instances.
  EXPECT_LT(worst_ratio, 1.8);
}

}  // namespace
}  // namespace serpentine::tsp
