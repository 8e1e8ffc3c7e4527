// Header-only, cost-source-generic implementation of the LOSS greedy
// heuristic (see loss.h for the algorithm description). The solver is a
// template over the cost source so the same committed-edge machinery runs
// against a dense CostMatrix (the historical shape) or a lazily-evaluated
// source like LocateCostSoA that prices edges on demand and never
// materializes the O(n²) matrix.
//
// A cost source must provide:
//   int size() const;              // number of cities, city 0 = start
//   double cost(int i, int j) const;  // edge i→j; kInfiniteCost for
//                                     // self-loops and edges into city 0
//
// The solver is event-driven. Every open row (a city still lacking its
// out-edge) and every open column (a city other than 0 still lacking its
// in-edge) caches its two cheapest available edges. A commit u→v makes
// exactly three groups of edges unavailable: row u's, column v's, and the
// one edge from the merged fragment's tail back to its head. So a commit
// rescans only the caches that held one of those edges, found through
// watcher lists hung on each cached partner, and a tournament tree replays
// the matches of the caches that changed instead of scanning all 2n.
#ifndef SERPENTINE_TSP_LOSS_SOLVER_H_
#define SERPENTINE_TSP_LOSS_SOLVER_H_

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <new>
#include <vector>

#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/util/check.h"

namespace serpentine::tsp {

/// The LOSS committed-edge solver over any cost source (see file comment).
/// The edge-selection rule, tie-breaks, and cache contents are identical for
/// every cost source, so dense and lazy runs over equal costs produce
/// bit-identical paths.
///
/// Slot 2c is city c's row (its out-edge) and slot 2c+1 its column (its
/// in-edge). The winner of each commit is the slot with the largest loss,
/// then the cheaper best edge, then the lower slot: the order in which a
/// scan over cities, row before column, meets them.
template <typename Costs>
class LossSolver {
 public:
  LossSolver(const Costs& m, LossStats* stats)
      : m_(m), n_(m.size()), stats_(stats) {
    // Every O(n) array lives in one allocation, doubles first for alignment.
    const size_t n = n_;
    buffer_ = std::make_unique_for_overwrite<std::byte[]>(
        sizeof(TwoBest) * 2 * n + sizeof(int) * 19 * n);
    std::byte* at = buffer_.get();
    cache_ = Carve<TwoBest>(at, 2 * n);
    tree_ = Carve<int>(at, 2 * n);
    link_next_ = Carve<int>(at, 6 * n);
    link_prev_ = Carve<int>(at, 6 * n);
    head_ = Carve<int>(at, n);
    tail_ = Carve<int>(at, n);
    succ_ = Carve<int>(at, n);
    rows_ = Carve<int>(at, n);
    cols_ = Carve<int>(at, n);
  }

  std::vector<int> Solve() {
    Seed();
    // Commit n-1 edges; city 0 never receives an in-edge, so the chain of
    // committed edges forms a single path rooted at 0.
    for (int committed = 0; committed < n_ - 1; ++committed) {
      if (stats_ != nullptr) ++stats_->iterations;
      const int slot = tree_[1];
      SERPENTINE_CHECK_GE(Loss(slot), 0.0);
      const int city = slot >> 1;
      const int partner = cache_[slot].best;
      const bool refresh = committed + 1 < n_ - 1;
      if (slot & 1) {
        Commit(partner, city, refresh);
      } else {
        Commit(city, partner, refresh);
      }
    }

    std::vector<int> order;
    order.reserve(n_);
    int at = 0;
    order.push_back(0);
    while (succ_[at] >= 0) {
      at = succ_[at];
      order.push_back(at);
    }
    SERPENTINE_CHECK_EQ(static_cast<int>(order.size()), n_);
    return order;
  }

 private:
  /// The two lexicographically smallest (cost, city) pairs among a row's or
  /// column's available finite-cost edges: what an ascending scan keeping
  /// strict `<` improvements finds.
  struct TwoBest {
    double best_cost;
    double second_cost;
    int best;
    int second;
  };
  static constexpr TwoBest kEmpty{kInfiniteCost, kInfiniteCost, -1, -1};

  /// The next `count` Ts of the buffer, whose storage implicitly creates
  /// them.
  template <typename T>
  static T* Carve(std::byte*& at, size_t count) {
    T* out = std::launder(reinterpret_cast<T*>(at));
    at += sizeof(T) * count;
    return out;
  }

  /// Offers an edge of cost `c` to `city`. Offers arrive in ascending city
  /// order, so strict `<` lets the lower city win a tie.
  static void Offer(TwoBest& tb, double c, int city) {
    if (c < tb.second_cost) {
      if (c < tb.best_cost) {
        tb.second = tb.best;
        tb.second_cost = tb.best_cost;
        tb.best = city;
        tb.best_cost = c;
      } else {
        tb.second = city;
        tb.second_cost = c;
      }
    }
  }

  /// Prices every edge once, filling each row's cache and each column's
  /// in the same ascending order their rescans use.
  void Seed() {
    for (int slot = 1; slot < 2 * n_; slot += 2) cache_[slot] = kEmpty;
    for (int x = 0; x < n_; ++x) {
      TwoBest row = kEmpty;
      for (int y = 1; y < n_; ++y) {
        if (y == x) continue;
        const double c = m_.cost(x, y);
        Offer(row, c, y);
        Offer(cache_[2 * y + 1], c, x);
      }
      cache_[2 * x] = row;
    }
    for (int c = 0; c < n_; ++c) {
      head_[c] = tail_[c] = c;
      succ_[c] = -1;
      rows_[c] = c;
      if (c > 0) cols_[c - 1] = c;
    }
    nrows_ = n_;
    ncols_ = n_ - 1;
    for (int list = 4 * n_; list < 6 * n_; ++list) {
      link_next_[list] = link_prev_[list] = list;
    }
    for (int slot = 0; slot < 2 * n_; ++slot) {
      if (slot == 1) continue;  // city 0 has no column
      Watch(slot);
      if (cache_[slot].best < 0) ++empty_;
    }
    // The first iteration fills every open row's and column's cache.
    if (stats_ != nullptr && n_ > 1) stats_->row_rescans += 2 * n_ - 1;
    for (int c = n_ - 1; c >= 0; --c) tree_[n_ + c] = Winner(2 * c, 2 * c + 1);
    for (int node = n_ - 1; node >= 1; --node) {
      tree_[node] = Winner(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  void Commit(int u, int v, bool refresh) {
    const int row = 2 * u;
    const int col = 2 * v + 1;
    Close(row, rows_, nrows_);
    Close(col, cols_, ncols_);
    succ_[u] = v;
    const int head = head_[u];
    const int tail = tail_[v];
    head_[tail] = head;
    tail_[head] = tail;
    if (!refresh) return;
    // Rows that cached column v and columns that cached row u lost an edge,
    // as did the merged fragment's tail row and head column if they cached
    // the tail→head edge that would now close a cycle. (Column 0 caches
    // nothing, so head == 0 adds no rescan.) The four groups are disjoint.
    const int empty_before = empty_;
    int rescans = RescanWatchers(col) + RescanWatchers(row);
    if (Holds(2 * tail, head)) {
      Rescan(2 * tail);
      ++rescans;
    }
    if (Holds(2 * head + 1, tail)) {
      Rescan(2 * head + 1);
      ++rescans;
    }
    if (stats_ != nullptr) stats_->row_rescans += rescans + empty_before;
  }

  /// Retires a committed row or column: it leaves its partners' watcher
  /// lists, the tournament, and the open list rescans walk. It never has an
  /// empty cache, since it held the committed edge.
  void Close(int slot, int* open, int& count) {
    Unwatch(slot);
    cache_[slot] = kEmpty;
    Replay(slot);
    int* at = std::lower_bound(open, open + count, slot >> 1);
    std::copy(at + 1, open + count, at);
    --count;
  }

  /// Rescans every cache watching the closed `slot`. Each rescan moves its
  /// node off this list, so the loop drains it.
  int RescanWatchers(int slot) {
    const int list = ListOf(slot);
    int count = 0;
    for (; link_next_[list] != list; ++count) Rescan(link_next_[list] >> 1);
    return count;
  }

  /// Refills one cache from the open rows or columns, in ascending order.
  /// Row x may take any open column but its own fragment's head; column y
  /// any open row but its own fragment's tail.
  void Rescan(int slot) {
    Unwatch(slot);
    TwoBest tb = kEmpty;
    const int city = slot >> 1;
    if (slot & 1) {
      const int skip = tail_[city];
      for (int i = 0; i < nrows_; ++i) {
        const int x = rows_[i];
        if (x != skip) Offer(tb, m_.cost(x, city), x);
      }
    } else {
      const int skip = head_[city];
      for (int i = 0; i < ncols_; ++i) {
        const int y = cols_[i];
        if (y != skip) Offer(tb, m_.cost(city, y), y);
      }
    }
    cache_[slot] = tb;
    if (tb.best < 0) ++empty_;
    Watch(slot);
    Replay(slot);
  }

  bool Holds(int slot, int city) const {
    return cache_[slot].best == city || cache_[slot].second == city;
  }

  /// The slot's loss: +inf when its best edge is forced, -inf when it has
  /// nothing to commit. A NaN gap (two -inf edges) also never wins, as in a
  /// sequential scan.
  double Loss(int slot) const {
    const double loss = cache_[slot].second_cost - cache_[slot].best_cost;
    return loss >= 0.0 ? loss : -std::numeric_limits<double>::infinity();
  }

  /// The better of two slots: larger loss, then the cheaper best edge, then
  /// the lower slot.
  int Winner(int a, int b) const {
    const double la = Loss(a);
    const double lb = Loss(b);
    if (la != lb) return lb > la ? b : a;
    const double ea = cache_[a].best_cost;
    const double eb = cache_[b].best_cost;
    if (ea != eb) return eb < ea ? b : a;
    return std::min(a, b);
  }

  /// Replays the matches on `slot`'s path to the root. Leaves 2n..4n-1
  /// stand for slots 0..2n-1, so node n+c holds city c's row-vs-column
  /// match; the order is total, so the tree needs no power-of-two padding.
  void Replay(int slot) {
    int node = n_ + (slot >> 1);
    tree_[node] = Winner(slot & ~1, slot | 1);
    for (node >>= 1; node >= 1; node >>= 1) {
      tree_[node] = Winner(tree_[2 * node], tree_[2 * node + 1]);
    }
  }

  // Watcher lists: node 2·slot holds `slot`'s best and node 2·slot+1 its
  // second; each hangs on the list of the partner it names, a circular
  // doubly linked list whose head is node ListOf(partner).
  int ListOf(int slot) const { return 4 * n_ + slot; }
  /// A row caches columns and a column caches rows.
  static int Partner(int slot, int city) { return 2 * city + 1 - (slot & 1); }

  void Watch(int slot) {
    const TwoBest& tb = cache_[slot];
    if (tb.best >= 0) Link(2 * slot, ListOf(Partner(slot, tb.best)));
    if (tb.second >= 0) Link(2 * slot + 1, ListOf(Partner(slot, tb.second)));
  }
  void Unwatch(int slot) {
    const TwoBest& tb = cache_[slot];
    if (tb.best >= 0) Unlink(2 * slot);
    if (tb.second >= 0) Unlink(2 * slot + 1);
  }
  void Link(int node, int list) {
    const int first = link_next_[list];
    link_next_[node] = first;
    link_prev_[node] = list;
    link_prev_[first] = node;
    link_next_[list] = node;
  }
  void Unlink(int node) {
    link_next_[link_prev_[node]] = link_next_[node];
    link_prev_[link_next_[node]] = link_prev_[node];
  }

  const Costs& m_;
  int n_;
  LossStats* stats_;
  std::unique_ptr<std::byte[]> buffer_;
  TwoBest* cache_;  ///< per slot; closed slots hold kEmpty
  int* tree_;       ///< tree_[node]: winning slot below node, 1 ≤ node < 2n
  int* link_next_;
  int* link_prev_;
  int* head_;  ///< head_[t]: head of the fragment whose tail is t
  int* tail_;  ///< tail_[h]: tail of the fragment whose head is h
  int* succ_;  ///< committed out-edge, -1 while the row is open
  int* rows_;  ///< open rows, ascending
  int* cols_;  ///< open columns, ascending
  int nrows_ = 0;
  int ncols_ = 0;
  int empty_ = 0;  ///< open slots whose cache holds no edge
};

/// Builds a LOSS Hamiltonian path over any cost source.
template <typename Costs>
std::vector<int> SolveLossPathOver(const Costs& costs,
                                   LossStats* stats = nullptr) {
  if (costs.size() == 1) return {0};
  return LossSolver<Costs>(costs, stats).Solve();
}

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_SOLVER_H_
