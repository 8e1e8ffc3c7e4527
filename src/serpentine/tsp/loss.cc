#include "serpentine/tsp/loss.h"

#include <vector>

#include "serpentine/tsp/locate_cost.h"
#include "serpentine/tsp/loss_solver.h"

namespace serpentine::tsp {
namespace {

/// A LocateCostSoA's edges, priced once each into a row-major n×n array in
/// CostMatrix::Build's order, through the accessor that never remembers.
class DenseCosts {
 public:
  DenseCosts(const LocateCostSoA& costs, std::vector<double>& storage)
      : n_(costs.size()) {
    const size_t n = n_;
    if (storage.size() < n * n) storage.resize(n * n);
    w_ = storage.data();
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) {
        w_[i * n + j] = i == j || j == 0 ? kInfiniteCost : costs.Price(i, j);
      }
    }
  }

  int size() const { return n_; }
  double cost(int i, int j) const {
    return w_[static_cast<size_t>(i) * n_ + j];
  }
  void RowCosts(int i, const int* to, int count, double* out) const {
    const double* row = w_ + static_cast<size_t>(i) * n_;
    for (int k = 0; k < count; ++k) out[k] = row[to[k]];
  }
  void ColumnCosts(const int* from, int count, int j, double* out) const {
    for (int k = 0; k < count; ++k) out[k] = cost(from[k], j);
  }

 private:
  int n_;
  double* w_;
};

}  // namespace

std::vector<int> SolveLossPath(const CostMatrix& m) {
  return SolveLossPathOver(m, nullptr);
}

std::vector<int> SolveLossPathWithStats(const CostMatrix& m,
                                        LossStats* stats) {
  return SolveLossPathOver(m, stats);
}

std::vector<int> SolveLossPath(const LocateCostSoA& costs, LossStats* stats) {
  if (costs.size() <= kDenseLossMaxCities) {
    thread_local std::vector<double> storage;
    return SolveLossPathOver<kDenseLossReserveDepth>(
        DenseCosts(costs, storage), stats);
  }
  // Only the kernel prices lazily: a generic model is asked for each edge
  // exactly once, as a dense matrix asks it.
  if (costs.fast_kernel()) return SolveLossPathOver(costs, stats);
  std::vector<double> storage;
  return SolveLossPathOver(DenseCosts(costs, storage), stats);
}

}  // namespace serpentine::tsp
