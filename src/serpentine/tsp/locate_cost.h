// The one object every scheduler prices locate edges through, for the
// open-path TSP formulation of tape scheduling. Where CostMatrix::Build
// materializes all O(n²) edge costs up front, LocateCostSoA keeps only
// O(n) per-city inputs and prices each edge on demand. Solvers that touch
// a sparse or shifting subset of edges (sparse LOSS, Or-opt, partitioned
// LOSS) never pay for edges they do not read, and 100k-city batches stop
// needing an 80 GB matrix.
//
// With the Dlt4000 model, each city's in- and out-position is decoded once
// into a tape::Dlt4000LocateModel::Endpoint, and an edge is the model's own
// rule, SecondsBetween, over two of them: the same arithmetic as
// LocateSeconds, without the per-edge decode. RowCosts and ColumnCosts
// price a whole row or column of edges in one inline loop over that rule,
// the calls LossSolver makes. For any other model, LocateSeconds(i, j)
// asks the model at most once per distinct (from, to) segment pair and
// remembers the answer; Price(i, j) asks every time.
#ifndef SERPENTINE_TSP_LOCATE_COST_H_
#define SERPENTINE_TSP_LOCATE_COST_H_

#include <cstdint>
#include <vector>

#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/types.h"
#include "serpentine/tsp/cost_matrix.h"

namespace serpentine::tsp {

class LocateCostSoA {
 public:
  /// Builds the per-city arrays. City i's out-edges depart from
  /// `out_positions[i]` (head position after servicing i) and its in-edges
  /// arrive at `in_positions[i]` (first segment of i). Both vectors must
  /// have the same size; city 0 is the start. `model` must outlive this
  /// object.
  LocateCostSoA(const tape::LocateModel& model,
                std::vector<tape::SegmentId> out_positions,
                std::vector<tape::SegmentId> in_positions);

  int size() const { return n_; }

  /// True when edges are priced by the Dlt4000 rule over decoded endpoints
  /// instead of virtual model calls.
  bool fast_kernel() const { return dlt_ != nullptr; }

  /// True when cost()/LocateSeconds() may be called from several threads at
  /// once: the kernel reads only immutable arrays, while the fallback fills
  /// its memo under const calls.
  bool thread_safe() const { return fast_kernel(); }

  tape::SegmentId out_position(int city) const { return out_seg_[city]; }
  tape::SegmentId in_position(int city) const { return in_seg_[city]; }

  /// Locate seconds from city i's out-position to city j's in-position.
  /// The fallback asks the model once per distinct segment pair.
  double LocateSeconds(int i, int j) const {
    return dlt_ != nullptr ? dlt_->SecondsBetween(out_[i], in_[j])
                           : Remembered(i, j);
  }

  /// As LocateSeconds, but never remembers: for callers that price every
  /// edge once anyway, such as a dense matrix fill.
  double Price(int i, int j) const {
    return dlt_ != nullptr
               ? dlt_->SecondsBetween(out_[i], in_[j])
               : model_->LocateSeconds(out_seg_[i], in_seg_[j]);
  }

  /// TSP path semantics, matching CostMatrix::Build: self-loops and edges
  /// into the start city are forbidden. Defined out of line; LossSolver
  /// prices through RowCosts and ColumnCosts instead.
  double cost(int i, int j) const;

  /// cost(i, to[k]) into out[k] for each k < count: row i over the listed
  /// columns, which LossSolver's seed and row scans ask for in one call.
  /// On the kernel this is one inline loop over SecondsBetween.
  void RowCosts(int i, const int* to, int count, double* out) const {
    if (dlt_ == nullptr) {
      for (int k = 0; k < count; ++k) out[k] = cost(i, to[k]);
      return;
    }
    const tape::Dlt4000LocateModel::Endpoint& from = out_[i];
    for (int k = 0; k < count; ++k) {
      const int j = to[k];
      const double seconds = dlt_->SecondsBetween(from, in_[j]);
      out[k] = j == i || j == 0 ? kInfiniteCost : seconds;
    }
  }

  /// cost(from[k], j) into out[k] for each k < count: column j over the
  /// listed rows, for LossSolver's column scans.
  void ColumnCosts(const int* from, int count, int j, double* out) const {
    if (dlt_ == nullptr) {
      for (int k = 0; k < count; ++k) out[k] = cost(from[k], j);
      return;
    }
    const tape::Dlt4000LocateModel::Endpoint& to = in_[j];
    for (int k = 0; k < count; ++k) {
      const int i = from[k];
      const double seconds = dlt_->SecondsBetween(out_[i], to);
      out[k] = i == j || j == 0 ? kInfiniteCost : seconds;
    }
  }

 private:
  /// The fallback's memo lookup, asking the model on a miss.
  double Remembered(int i, int j) const;

  int n_ = 0;
  const tape::LocateModel* model_;
  /// The model as a Dlt4000, or null when edges go to the model itself.
  const tape::Dlt4000LocateModel* dlt_ = nullptr;
  std::vector<tape::SegmentId> out_seg_;
  std::vector<tape::SegmentId> in_seg_;

  // Kernel-only per-city endpoints (empty on the fallback path).
  std::vector<tape::Dlt4000LocateModel::Endpoint> out_;
  std::vector<tape::Dlt4000LocateModel::Endpoint> in_;

  // Fallback-only memo: open addressing with linear probing over a
  // power-of-two table, allocated on first use. Keys pack (from, to) into
  // one word.
  struct Slot {
    uint64_t key;
    double seconds;
  };
  mutable std::vector<Slot> memo_;
  mutable int64_t memo_entries_ = 0;
};

}  // namespace serpentine::tsp

#endif  // SERPENTINE_TSP_LOCATE_COST_H_
