// Dense asymmetric cost matrix for the open-path traveling-salesman
// formulation of tape scheduling (paper §4, OPT): city 0 is the initial
// head position; cities 1..n-1 are the (possibly coalesced) requests; a
// schedule is a Hamiltonian path starting at 0.
#ifndef SERPENTINE_TSP_COST_MATRIX_H_
#define SERPENTINE_TSP_COST_MATRIX_H_

#include <limits>
#include <vector>

#include "serpentine/util/check.h"

namespace serpentine::tsp {

/// Edge weight used for forbidden moves (self-loops, edges into the start).
inline constexpr double kInfiniteCost = std::numeric_limits<double>::infinity();

/// Row-major dense n×n matrix of travel costs. cost(i, j) is the cost of
/// servicing city j immediately after city i (for tape scheduling: the
/// locate time from the end of request i to the start of request j).
class CostMatrix {
 public:
  /// Creates an n×n matrix with self-loops forbidden and everything else 0.
  explicit CostMatrix(int n) : n_(n), w_(static_cast<size_t>(n) * n, 0.0) {
    SERPENTINE_CHECK_GT(n, 0);
    for (int i = 0; i < n; ++i) set(i, i, kInfiniteCost);
  }

  /// Builds the matrix by evaluating `cost(i, j)` on every ordered pair
  /// i != j exactly once — the matrix is the batch's edge-cost cache.
  /// Edges into city 0 are forbidden (the path never returns to the start).
  /// `cost` is a template parameter (not std::function) so the per-pair
  /// call inlines; with n up to 2049 cities the indirection used to cost a
  /// dispatched call on all ~4M pairs.
  template <typename CostFn>
  static CostMatrix Build(int n, CostFn&& cost) {
    CostMatrix m(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        m.set(i, j, j == 0 ? kInfiniteCost : cost(i, j));
      }
    }
    return m;
  }

  int size() const { return n_; }

  double cost(int i, int j) const {
    return w_[static_cast<size_t>(i) * n_ + j];
  }

  /// cost(i, to[k]) into out[k] for each k < count (LossSolver's row scans).
  void RowCosts(int i, const int* to, int count, double* out) const {
    const double* row = &w_[static_cast<size_t>(i) * n_];
    for (int k = 0; k < count; ++k) out[k] = row[to[k]];
  }
  /// cost(from[k], j) into out[k] for each k < count (column scans).
  void ColumnCosts(const int* from, int count, int j, double* out) const {
    for (int k = 0; k < count; ++k) out[k] = cost(from[k], j);
  }

  void set(int i, int j, double v) {
    w_[static_cast<size_t>(i) * n_ + j] = v;
  }

 private:
  int n_;
  std::vector<double> w_;
};

/// Total cost of visiting cities in `order` (which must start with 0 and
/// contain each city exactly once).
double PathCost(const CostMatrix& m, const std::vector<int>& order);

/// True iff `order` is a permutation of 0..n-1 beginning with city 0.
bool IsValidPath(const CostMatrix& m, const std::vector<int>& order);

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_COST_MATRIX_H_
