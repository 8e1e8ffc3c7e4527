// The LOSS greedy heuristic for the asymmetric traveling-salesman path
// (paper §4, after [LLKS85]): repeatedly commit the cheapest edge incident
// on the city whose "loss" — the gap between its best and second-best
// remaining edge — is largest, so that committing the short edge avoids
// being forced onto a much longer one later.
#ifndef SERPENTINE_TSP_LOSS_H_
#define SERPENTINE_TSP_LOSS_H_

#include <vector>

#include "serpentine/tsp/cost_matrix.h"

namespace serpentine::tsp {

/// Builds a Hamiltonian path over all cities starting at city 0 using the
/// LOSS rule. Every edge is priced once to seed each row's and column's
/// two cheapest edges. After that, a commit rescans, in O(n) each, only the
/// caches that held an edge the commit made unavailable (typically a
/// handful), and picks the next edge in O(log n). O(n²) time in all, with
/// O(n) extra memory.
std::vector<int> SolveLossPath(const CostMatrix& m);

/// Statistics from a SolveLossPathWithStats run, for the ablation benches.
struct LossStats {
  int iterations = 0;  ///< committed edges: n-1
  /// Stale caches met, summed over iterations: each open row or column
  /// whose two cached edges no longer both hold at the start of an
  /// iteration, because an endpoint was consumed or it has no edge left.
  /// The first iteration counts all 2n-1. This is the number of O(n)
  /// rescans a solver that revalidates every cache on every iteration
  /// makes. The event-driven solver rescans the same caches, except that
  /// a cache with no edge left is rescanned once rather than on every
  /// iteration.
  int row_rescans = 0;
};

/// As SolveLossPath, also reporting work counters.
std::vector<int> SolveLossPathWithStats(const CostMatrix& m,
                                        LossStats* stats);

class LocateCostSoA;

/// Largest city count SolveLossPath(LocateCostSoA) prices into a dense
/// matrix. Serving batches (at most 64 requests) always fit.
inline constexpr int kDenseLossMaxCities = 128;

/// LOSS over a batch's locate costs. Up to kDenseLossMaxCities cities,
/// every edge is priced once into a per-thread matrix that grows to at most
/// kDenseLossMaxCities² entries, so rescans read instead of re-pricing.
/// Above that, the Dlt4000 kernel prices edges on demand, and any other
/// model still fills an n×n matrix once, in CostMatrix::Build's order. The
/// same solver runs either way, so paths and stats are identical.
std::vector<int> SolveLossPath(const LocateCostSoA& costs,
                               LossStats* stats = nullptr);

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_H_
