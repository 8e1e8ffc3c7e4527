#include "serpentine/tsp/loss.h"

#include <vector>

#include "serpentine/tsp/locate_cost.h"
#include "serpentine/tsp/loss_solver.h"

namespace serpentine::tsp {
namespace {

/// A LocateCostSoA's edges, priced once into a row-major n×n array.
class DenseCosts {
 public:
  DenseCosts(const LocateCostSoA& costs, std::vector<double>& storage)
      : n_(costs.size()) {
    if (storage.size() < static_cast<size_t>(n_) * n_) {
      storage.resize(static_cast<size_t>(n_) * n_);
    }
    w_ = storage.data();
    for (int i = 0; i < n_; ++i) {
      for (int j = 0; j < n_; ++j) w_[i * n_ + j] = costs.cost(i, j);
    }
  }

  int size() const { return n_; }
  double cost(int i, int j) const { return w_[i * n_ + j]; }

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
  // Only the kernel prices as pure arithmetic; a forwarded model may keep
  // state that depends on which edges are asked for, and how often.
  if (!costs.fast_kernel() || costs.size() > kDenseLossMaxCities) {
    return SolveLossPathOver(costs, stats);
  }
  thread_local std::vector<double> storage;
  return SolveLossPathOver(DenseCosts(costs, storage), stats);
}

}  // namespace serpentine::tsp
