// The scan LOSS solver, kept as the test oracle for tsp::LossSolver.
//
// This is the solver the library shipped before its event-driven rewrite,
// unchanged apart from its namespace: on each of its n-1 commits it
// revalidates every open row's and column's cached two best edges through
// union-find lookups, rescans a cache when an endpoint became unavailable
// (or it holds none), and picks the winner with an O(n) scan. It is slow
// and obviously faithful to the LOSS rule, so tsp_loss_equivalence_test.cc
// requires the production solver to reproduce its paths, iteration counts
// and rescan counts exactly.
#ifndef SERPENTINE_TESTS_LOSS_SCAN_REFERENCE_H_
#define SERPENTINE_TESTS_LOSS_SCAN_REFERENCE_H_

#include <vector>

#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp::reference {
namespace internal {

/// Union-find over path fragments; adding edge u→v is forbidden when u and
/// v already belong to the same fragment (it would close a cycle).
class FragmentSet {
 public:
  explicit FragmentSet(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) parent_[i] = i;
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(int a, int b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<int> parent_;
};

/// Cached two smallest available edges of one row/column.
struct TwoBest {
  int best = -1;
  double best_cost = kInfiniteCost;
  int second = -1;
  double second_cost = kInfiniteCost;

  double loss() const {
    if (best < 0) return -1.0;  // no available edge: never selected
    return second_cost - best_cost;  // +inf when the edge is forced
  }
};

}  // namespace internal

/// The LOSS committed-edge solver over any cost source (see file comment).
/// The edge-selection rule, tie-breaks, and cache-revalidation order are
/// identical for every cost source, so dense and lazy runs over equal costs
/// produce bit-identical paths.
template <typename Costs>
class LossSolver {
 public:
  LossSolver(const Costs& m, LossStats* stats)
      : m_(m),
        n_(m.size()),
        stats_(stats),
        fragments_(m.size()),
        out_choice_(m.size(), -1),
        in_choice_(m.size(), -1),
        out_cache_(m.size()),
        in_cache_(m.size()) {}

  std::vector<int> Solve() {
    // Commit n-1 edges; city 0 never receives an in-edge, so the chain of
    // committed edges forms a single path rooted at 0.
    for (int committed = 0; committed < n_ - 1; ++committed) {
      if (stats_ != nullptr) ++stats_->iterations;
      int city = -1;
      bool use_out = true;
      double best_loss = -1.0;
      double best_edge = kInfiniteCost;
      // Ties in loss (common once edges become forced, where the loss is
      // +inf) break toward the cheaper committed edge.
      auto better = [&](double l, double edge) {
        return l > best_loss || (l == best_loss && edge < best_edge);
      };
      for (int c = 0; c < n_; ++c) {
        if (out_choice_[c] < 0) {
          RefreshOut(c);
          double l = out_cache_[c].loss();
          if (better(l, out_cache_[c].best_cost)) {
            best_loss = l;
            best_edge = out_cache_[c].best_cost;
            city = c;
            use_out = true;
          }
        }
        if (c != 0 && in_choice_[c] < 0) {
          RefreshIn(c);
          double l = in_cache_[c].loss();
          if (better(l, in_cache_[c].best_cost)) {
            best_loss = l;
            best_edge = in_cache_[c].best_cost;
            city = c;
            use_out = false;
          }
        }
      }
      SERPENTINE_CHECK_GE(city, 0);
      int u, v;
      if (use_out) {
        u = city;
        v = out_cache_[city].best;
      } else {
        u = in_cache_[city].best;
        v = city;
      }
      SERPENTINE_CHECK_GE(u, 0);
      SERPENTINE_CHECK_GE(v, 0);
      out_choice_[u] = v;
      in_choice_[v] = u;
      fragments_.Union(u, v);
    }

    std::vector<int> order;
    order.reserve(n_);
    int at = 0;
    order.push_back(0);
    while (out_choice_[at] >= 0) {
      at = out_choice_[at];
      order.push_back(at);
    }
    SERPENTINE_CHECK_EQ(static_cast<int>(order.size()), n_);
    return order;
  }

 private:
  /// An out-edge u→v is available iff v still needs an in-edge, is not the
  /// start, and does not close a cycle.
  bool OutAvailable(int u, int v) {
    return v != u && v != 0 && in_choice_[v] < 0 &&
           fragments_.Find(u) != fragments_.Find(v);
  }
  bool InAvailable(int u, int v) {
    return u != v && out_choice_[u] < 0 &&
           fragments_.Find(u) != fragments_.Find(v);
  }

  void RefreshOut(int u) {
    internal::TwoBest& tb = out_cache_[u];
    if (tb.best >= 0 && OutAvailable(u, tb.best) &&
        (tb.second < 0 || OutAvailable(u, tb.second))) {
      return;  // cache still valid
    }
    if (stats_ != nullptr) ++stats_->row_rescans;
    tb = internal::TwoBest();
    for (int v = 0; v < n_; ++v) {
      if (!OutAvailable(u, v)) continue;
      double c = m_.cost(u, v);
      if (c < tb.best_cost) {
        tb.second = tb.best;
        tb.second_cost = tb.best_cost;
        tb.best = v;
        tb.best_cost = c;
      } else if (c < tb.second_cost) {
        tb.second = v;
        tb.second_cost = c;
      }
    }
  }

  void RefreshIn(int v) {
    internal::TwoBest& tb = in_cache_[v];
    if (tb.best >= 0 && InAvailable(tb.best, v) &&
        (tb.second < 0 || InAvailable(tb.second, v))) {
      return;
    }
    if (stats_ != nullptr) ++stats_->row_rescans;
    tb = internal::TwoBest();
    for (int u = 0; u < n_; ++u) {
      if (!InAvailable(u, v)) continue;
      double c = m_.cost(u, v);
      if (c < tb.best_cost) {
        tb.second = tb.best;
        tb.second_cost = tb.best_cost;
        tb.best = u;
        tb.best_cost = c;
      } else if (c < tb.second_cost) {
        tb.second = u;
        tb.second_cost = c;
      }
    }
  }

  const Costs& m_;
  int n_;
  LossStats* stats_;
  internal::FragmentSet fragments_;
  std::vector<int> out_choice_;
  std::vector<int> in_choice_;
  std::vector<internal::TwoBest> out_cache_;
  std::vector<internal::TwoBest> in_cache_;
};

/// Builds a LOSS Hamiltonian path with the scan solver.
template <typename Costs>
std::vector<int> SolveLossPathOver(const Costs& costs,
                                   LossStats* stats = nullptr) {
  if (costs.size() == 1) return {0};
  return LossSolver<Costs>(costs, stats).Solve();
}

}  // namespace serpentine::tsp::reference

#endif  // SERPENTINE_TESTS_LOSS_SCAN_REFERENCE_H_
