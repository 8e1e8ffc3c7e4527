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
/// LOSS rule. Every edge is priced once, a row at a time, to seed each
/// row's and column's reserve of its cheapest edges (loss_solver.h). After
/// that, a commit refills only the slots that watched an edge the commit
/// made unavailable (typically a handful), each from its reserve in O(1)
/// or, when the reserve runs short, by an O(n) scan of its row or column,
/// and picks the next edge in O(log n). At the paper's 1,025 cities about
/// one refill in seven scans. O(n²) time in all, with O(n) extra memory.
std::vector<int> SolveLossPath(const CostMatrix& m);

/// Statistics from a SolveLossPathWithStats run, for the ablation benches.
struct LossStats {
  int iterations = 0;  ///< committed edges: n-1
  /// Stale caches met, summed over iterations: each open row or column
  /// whose two cached edges no longer both hold at the start of an
  /// iteration, because an endpoint was consumed or it has no edge left.
  /// The first iteration counts all 2n-1. This is the number of O(n)
  /// rescans a solver that revalidates every cache on every iteration
  /// makes. The event-driven solver refills the same caches, except that
  /// a cache with no edge left is refilled once rather than on every
  /// iteration.
  int row_rescans = 0;
  /// O(n) scans of one row or column the event-driven solver actually ran:
  /// the refills its reserve could not answer. The seed, which prices
  /// every edge once, is not counted.
  int full_scans = 0;
};

/// As SolveLossPath, also reporting work counters.
std::vector<int> SolveLossPathWithStats(const CostMatrix& m,
                                        LossStats* stats);

class LocateCostSoA;

/// Largest city count SolveLossPath(LocateCostSoA) prices into a dense
/// matrix. Serving batches (at most 64 requests) always fit.
inline constexpr int kDenseLossMaxCities = 128;

/// Reserve depth (see loss_solver.h) for batches of at most
/// kDenseLossMaxCities cities: 2 keeps only the two watched edges, so every
/// refill rereads its row or column from the dense matrix. A row of at
/// most 128 stored costs is cheaper to reread than a deeper reserve is to
/// keep: depth 8 ran 10-15 % slower at 30 and 64 requests
/// (docs/performance.md).
inline constexpr int kDenseLossReserveDepth = 2;

/// LOSS over a batch's locate costs. Up to kDenseLossMaxCities cities,
/// every edge is priced once into a per-thread matrix that grows to at most
/// kDenseLossMaxCities² entries, so scans read instead of re-pricing.
/// Above that, the Dlt4000 kernel prices rows and columns on demand behind
/// a kLossReserveDepth reserve, and any other model still fills an n×n
/// matrix once, in CostMatrix::Build's order. The same solver runs either
/// way, so paths, iterations and row_rescans are identical; full_scans
/// depends on the reserve depth.
std::vector<int> SolveLossPath(const LocateCostSoA& costs,
                               LossStats* stats = nullptr);

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_H_
