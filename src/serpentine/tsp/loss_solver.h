// Header-only, cost-source-generic implementation of the LOSS greedy
// heuristic (see loss.h for the algorithm description). The solver is a
// template over the cost source so the same committed-edge machinery runs
// against a dense CostMatrix (the historical shape) or a lazily-evaluated
// source like LocateCostSoA that prices edges on demand and never
// materializes the O(n²) matrix.
//
// A cost source must provide, with edge i→j priced as kInfiniteCost for
// self-loops and edges into city 0:
//   int size() const;  // number of cities, city 0 = start
//   // edge i→to[k] into out[k] for k < count: part of one row
//   void RowCosts(int i, const int* to, int count, double* out) const;
//   // edge from[k]→j into out[k] for k < count: part of one column
//   void ColumnCosts(const int* from, int count, int j, double* out) const;
//
// The solver is event-driven. Every open row (a city still lacking its
// out-edge) and every open column (a city other than 0 still lacking its
// in-edge) watches its two cheapest available edges. A commit u→v makes
// exactly three groups of edges unavailable: row u's, column v's, and the
// one edge from the merged fragment's tail back to its head. So a commit
// refills only the slots that watched one of those edges, found through
// watcher lists hung on each watched partner, and a tournament tree
// replays the matches of the slots that changed instead of scanning all
// 2n.
//
// A refill rarely scans. Each slot keeps a reserve: the kLossReserveDepth
// cheapest available edges its last full scan found. Availability only
// shrinks during a solve, so the reserve entries still available are
// exactly the cheapest available edges, and a refill takes its first two.
// Only a full reserve left with fewer than two has to rescan its row or
// column in O(n); a reserve that was not full held every edge there was.
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

/// How many of its cheapest available edges each open row and column keeps
/// from its last full scan (see file comment). A deeper reserve scans less
/// often, but every seed offer and scan maintains a longer list; at the
/// paper's 1,025-city point 8 cut full scans from ~3,175 to ~434 per solve
/// (docs/performance.md).
inline constexpr int kLossReserveDepth = 8;

/// The LOSS committed-edge solver over any cost source (see file comment).
/// The edge-selection rule, tie-breaks, and cache contents are identical for
/// every cost source, so dense and lazy runs over equal costs produce
/// bit-identical paths.
///
/// Slot 2c is city c's row (its out-edge) and slot 2c+1 its column (its
/// in-edge). The winner of each commit is the slot with the largest loss,
/// then the cheaper best edge, then the lower slot: the order in which a
/// scan over cities, row before column, meets them.
template <typename Costs, int kDepth = kLossReserveDepth>
class LossSolver {
 public:
  LossSolver(const Costs& m, LossStats* stats)
      : m_(m), n_(m.size()), stats_(stats) {
    // Every O(n) array lives in one allocation, doubles first for alignment.
    const size_t n = n_;
    buffer_ = std::make_unique_for_overwrite<std::byte[]>(
        sizeof(Reserve) * 2 * n + sizeof(TwoBest) * 2 * n +
        sizeof(double) * 2 * n + sizeof(int) * 19 * n + sizeof(bool) * 2 * n);
    std::byte* at = buffer_.get();
    reserve_ = Carve<Reserve>(at, 2 * n);
    cache_ = Carve<TwoBest>(at, 2 * n);
    costs_ = Carve<double>(at, 2 * n);
    tree_ = Carve<int>(at, 2 * n);
    link_next_ = Carve<int>(at, 6 * n);
    link_prev_ = Carve<int>(at, 6 * n);
    head_ = Carve<int>(at, n);
    tail_ = Carve<int>(at, n);
    succ_ = Carve<int>(at, n);
    rows_ = Carve<int>(at, n);
    cols_ = Carve<int>(at, n);
    open_ = Carve<bool>(at, 2 * n);
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
  /// strict `<` improvements finds. These are the edges a slot watches.
  struct TwoBest {
    double best_cost;
    double second_cost;
    int best;
    int second;
  };
  static constexpr TwoBest kEmpty{kInfiniteCost, kInfiniteCost, -1, -1};

  /// The kDepth lexicographically smallest (cost, city) pairs among a
  /// slot's finite-cost edges available at its last full scan, in that
  /// order. Unused entries, all at the end, hold city -1 at kInfiniteCost,
  /// so a reserve is full when its last entry is used.
  struct Reserve {
    double cost[kDepth];
    int city[kDepth];
  };
  static constexpr Reserve EmptyReserve() {
    Reserve r{};
    for (int k = 0; k < kDepth; ++k) {
      r.cost[k] = kInfiniteCost;
      r.city[k] = -1;
    }
    return r;
  }
  static constexpr Reserve kEmptyReserve = EmptyReserve();

  /// The next `count` Ts of the buffer, whose storage implicitly creates
  /// them.
  template <typename T>
  static T* Carve(std::byte*& at, size_t count) {
    T* out = std::launder(reinterpret_cast<T*>(at));
    at += sizeof(T) * count;
    return out;
  }

  /// Inserts an edge of cost `c`, cheaper than the reserve's last entry,
  /// and returns the new last cost. Callers offer edges in ascending city
  /// order and insert only on a strict `<` against that cost, so the lower
  /// city stays ahead on a tie, and an infinite or NaN cost never enters.
  static double Insert(Reserve& r, double c, int city) {
    int k = kDepth - 1;
    for (; k > 0 && c < r.cost[k - 1]; --k) {
      r.cost[k] = r.cost[k - 1];
      r.city[k] = r.city[k - 1];
    }
    r.cost[k] = c;
    r.city[k] = city;
    return r.cost[kDepth - 1];
  }

  /// Prices every edge once, a row per call, offering each to its row's
  /// reserve and its column's in the same ascending order scans use.
  void Seed() {
    for (int c = 0; c < n_; ++c) {
      head_[c] = tail_[c] = c;
      succ_[c] = -1;
      rows_[c] = c;
      if (c > 0) cols_[c - 1] = c;
      open_[2 * c] = true;
      open_[2 * c + 1] = c > 0;  // city 0 has no column
    }
    nrows_ = n_;
    ncols_ = n_ - 1;
    std::fill_n(reserve_, 2 * n_, kEmptyReserve);
    // Column y's last reserve cost sits at bounds[y - 1], next to its
    // neighbours', so the offers that do not enter (nearly all) read one
    // small array instead of touching every column's reserve.
    double* bounds = costs_ + n_;
    std::fill_n(bounds, n_ - 1, kInfiniteCost);
    for (int x = 0; x < n_; ++x) {
      m_.RowCosts(x, cols_, ncols_, costs_);
      Reserve& row = reserve_[2 * x];
      double row_bound = kInfiniteCost;
      for (int i = 0; i < ncols_; ++i) {
        const double c = costs_[i];
        if (c < row_bound) row_bound = Insert(row, c, cols_[i]);
        if (c < bounds[i]) {
          bounds[i] = Insert(reserve_[2 * cols_[i] + 1], c, x);
        }
      }
    }
    for (int list = 4 * n_; list < 6 * n_; ++list) {
      link_next_[list] = link_prev_[list] = list;
    }
    cache_[1] = kEmpty;
    for (int slot = 0; slot < 2 * n_; ++slot) {
      if (slot == 1) continue;
      // Every seeded entry is available, so this takes the first two.
      Take(slot);
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
    // Rows that watched column v and columns that watched row u lost an
    // edge, as did the merged fragment's tail row and head column if they
    // watched the tail→head edge that would now close a cycle. (Column 0
    // watches nothing, so head == 0 adds no refill.) The four groups are
    // disjoint.
    const int empty_before = empty_;
    int refills = RefillWatchers(col) + RefillWatchers(row);
    if (Holds(2 * tail, head)) {
      Refill(2 * tail);
      ++refills;
    }
    if (Holds(2 * head + 1, tail)) {
      Refill(2 * head + 1);
      ++refills;
    }
    if (stats_ != nullptr) stats_->row_rescans += refills + empty_before;
  }

  /// Retires a committed row or column: it leaves its partners' watcher
  /// lists, the tournament, and the open list scans walk. It never has an
  /// empty cache, since it held the committed edge.
  void Close(int slot, int* open, int& count) {
    open_[slot] = false;
    Unwatch(slot);
    cache_[slot] = kEmpty;
    Replay(slot);
    int* at = std::lower_bound(open, open + count, slot >> 1);
    std::copy(at + 1, open + count, at);
    --count;
  }

  /// Refills every slot watching the closed `slot`. Each refill moves its
  /// node off this list, so the loop drains it.
  int RefillWatchers(int slot) {
    const int list = ListOf(slot);
    int count = 0;
    for (; link_next_[list] != list; ++count) Refill(link_next_[list] >> 1);
    return count;
  }

  /// Re-picks the watched pair of a slot that lost one of its edges: from
  /// its reserve, or, when that runs short, from a full scan.
  void Refill(int slot) {
    Unwatch(slot);
    if (!Take(slot)) {
      Scan(slot);
      Take(slot);
    }
    if (cache_[slot].best < 0) ++empty_;
    Watch(slot);
    Replay(slot);
  }

  /// Watches the first two entries of the slot's reserve still available.
  /// Returns false, watching nothing new, when the reserve was full and
  /// keeps fewer than two: an edge past its end may now be among the
  /// cheapest two.
  bool Take(int slot) {
    const Reserve& r = reserve_[slot];
    int k = 0;
    while (k < kDepth && r.city[k] >= 0 && !Available(slot, r.city[k])) ++k;
    TwoBest tb = kEmpty;
    if (k < kDepth && r.city[k] >= 0) {
      tb.best = r.city[k];
      tb.best_cost = r.cost[k];
      for (++k; k < kDepth && r.city[k] >= 0; ++k) {
        if (Available(slot, r.city[k])) {
          tb.second = r.city[k];
          tb.second_cost = r.cost[k];
          break;
        }
      }
    }
    if (tb.second < 0 && r.city[kDepth - 1] >= 0) return false;
    cache_[slot] = tb;
    return true;
  }

  /// Whether the slot's edge to `city` can still be committed: the partner
  /// row or column is open, and the edge does not close a cycle, as an
  /// edge from a row to its own fragment's head, or into a column from its
  /// own fragment's tail, would.
  bool Available(int slot, int city) const {
    const int own = slot >> 1;
    const int closes = (slot & 1) ? tail_[own] : head_[own];
    return open_[Partner(slot, city)] && city != closes;
  }

  /// Rebuilds a slot's reserve from its whole open row or column, priced
  /// in one call and offered in ascending order. Row x may take any open
  /// column but its own fragment's head; column y any open row but its own
  /// fragment's tail.
  void Scan(int slot) {
    if (stats_ != nullptr) ++stats_->full_scans;
    const int city = slot >> 1;
    const int* partners;
    int count;
    int closes;
    if (slot & 1) {
      partners = rows_;
      count = nrows_;
      closes = tail_[city];
      m_.ColumnCosts(rows_, nrows_, city, costs_);
    } else {
      partners = cols_;
      count = ncols_;
      closes = head_[city];
      m_.RowCosts(city, cols_, ncols_, costs_);
    }
    Reserve& r = reserve_[slot];
    r = kEmptyReserve;
    double bound = kInfiniteCost;
    for (int i = 0; i < count; ++i) {
      if (costs_[i] < bound && partners[i] != closes) {
        bound = Insert(r, costs_[i], partners[i]);
      }
    }
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
  /// A row's edges go to columns and a column's come from rows.
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
  Reserve* reserve_;  ///< per slot, from its last full scan (or the seed)
  TwoBest* cache_;    ///< per slot, the watched pair; closed slots: kEmpty
  double* costs_;     ///< one row's or column's prices; the seed's bounds
  int* tree_;         ///< tree_[node]: winning slot below node, 1 ≤ node < 2n
  int* link_next_;
  int* link_prev_;
  int* head_;  ///< head_[t]: head of the fragment whose tail is t
  int* tail_;  ///< tail_[h]: tail of the fragment whose head is h
  int* succ_;  ///< committed out-edge, -1 while the row is open
  int* rows_;  ///< open rows, ascending
  int* cols_;  ///< open columns, ascending
  bool* open_;  ///< open_[slot]: the row or column still lacks its edge
  int nrows_ = 0;
  int ncols_ = 0;
  int empty_ = 0;  ///< open slots whose cache holds no edge
};

/// Builds a LOSS Hamiltonian path over any cost source.
template <int kDepth = kLossReserveDepth, typename Costs>
std::vector<int> SolveLossPathOver(const Costs& costs,
                                   LossStats* stats = nullptr) {
  if (costs.size() == 1) return {0};
  return LossSolver<Costs, kDepth>(costs, stats).Solve();
}

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOSS_SOLVER_H_
