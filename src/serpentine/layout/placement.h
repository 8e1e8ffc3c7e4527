// Segment placement: a bijective logical→physical remapping at group
// granularity, and the optimizer that proposes one from a HeatMap.
//
// A Placement is a permutation of the HeatMap's groups: order()[slot] is
// the group whose data occupies physical slot `slot`. Group sizes are
// uniform except the final remainder group, so physical slot starts are
// the prefix sums of the group sizes in slot order; ToPhysical/ToLogical
// are exact inverses over the whole tape.
//
// The optimizer is *tail-anchored* (docs/placement.md): schedulers serve
// each batch in ascending segment order, so under chained batches the
// head finishes every tour parked near the top of segment space. Packing
// the hot set at the TAIL of segment space — hottest groups at the
// extreme end — means each tour ends inside the hot core, so the next
// batch's hot serves start from next door instead of winding the head
// back across the tape (the scan pass-over that dominates both makespan
// and the wear peak under a mid-tape hot core). Concretely:
//   * the hot set is every group with observed heat (the pinned remainder
//     group aside); its groups are placed one at a time, hottest first
//     (ties: lower id), each into the topmost free slot the wear cap
//     admits, so the hottest group lands at the extreme end;
//   * slot goodness (Monte-Carlo mean locate time, with most probe
//     sources drawn from the chained-tour turnaround region) is reported
//     in OptimizerStats for diagnostics;
//   * wear leveling is a veto, not a score — each candidate slot's
//     projected heat is smeared over the locate footprint its serves drag
//     the head across, and a slot is rejected while any bin would project
//     more motion than the identity layout's worst bin times
//     wear_cap_factor; when no compliant slot exists the least-overflowing
//     one is taken (counted as a relaxation).
#ifndef SERPENTINE_LAYOUT_PLACEMENT_H_
#define SERPENTINE_LAYOUT_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "serpentine/layout/heat_map.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"
#include "serpentine/workload/generators.h"

namespace serpentine::layout {

/// A bijective group permutation over one tape.
class Placement {
 public:
  /// The identity placement (every group at its home slot).
  static Placement Identity(tape::SegmentId total_segments,
                            int64_t group_segments);

  /// A placement from an explicit slot→group order. Fails unless `order`
  /// is a permutation of [0, num_groups).
  static StatusOr<Placement> FromOrder(tape::SegmentId total_segments,
                                       int64_t group_segments,
                                       std::vector<int64_t> order);

  tape::SegmentId total_segments() const { return total_; }
  int64_t group_segments() const { return group_segments_; }
  int64_t num_groups() const { return static_cast<int64_t>(order_.size()); }
  const std::vector<int64_t>& order() const { return order_; }

  /// Physical segment address of logical segment `logical`.
  tape::SegmentId ToPhysical(tape::SegmentId logical) const;
  /// Logical segment stored at physical address `physical` (the inverse).
  tape::SegmentId ToLogical(tape::SegmentId physical) const;

  /// Physical start of the slot holding group `group`.
  tape::SegmentId group_physical_start(int64_t group) const {
    return slot_start_[slot_of_[group]];
  }
  /// Slot index holding group `group`.
  int64_t slot_of(int64_t group) const { return slot_of_[group]; }

  /// Remaps a logical batch to physical addresses, splitting any request
  /// whose span crosses a group boundary (the pieces land wherever their
  /// groups do).
  std::vector<sched::Request> RemapBatch(
      const std::vector<sched::Request>& batch) const;

  bool is_identity() const;
  /// Groups whose physical home differs from the identity layout.
  int64_t moved_groups() const;

 private:
  Placement() = default;
  void BuildIndex();

  tape::SegmentId total_ = 0;
  int64_t group_segments_ = 1;
  std::vector<int64_t> order_;       // slot → group
  std::vector<int64_t> slot_of_;     // group → slot
  std::vector<tape::SegmentId> slot_start_;  // slot → physical start
};

/// Optimizer knobs. Defaults suit the DLT4000 geometry the benches use.
struct OptimizerOptions {
  /// Per-bin projected motion cap, as a multiple of the identity layout's
  /// worst bin. Each slot's heat is smeared over its model-exact scan
  /// window [preceding key point, destination] — the tape a serve
  /// actually drags the head across. 1.0 means "no physical region may
  /// project more motion than the seed layout's hottest region"; below
  /// 1.0 forces strict leveling.
  double wear_cap_factor = 0.9;
};

/// What the optimizer did, for logs and benches.
struct OptimizerStats {
  int64_t hot_groups = 0;
  int64_t moved_groups = 0;
  int64_t wear_relaxations = 0;
  /// Heat-weighted mean slot goodness (seconds) of the hot set before and
  /// after — lower is better.
  double hot_goodness_before = 0.0;
  double hot_goodness_after = 0.0;
};

/// Proposes a Placement for a HeatMap against one locate model.
class PlacementOptimizer {
 public:
  explicit PlacementOptimizer(const tape::Dlt4000LocateModel& model,
                              OptimizerOptions options = {});

  /// The proposed placement. Deterministic for a given (model, heat,
  /// options). A heat map with no recorded traffic yields the identity.
  Placement Optimize(const HeatMap& heat, OptimizerStats* stats = nullptr)
      const;

  /// Mean locate seconds from the optimizer's 64 probe head positions to
  /// the start of slot `slot` — the goodness score OptimizerStats reports
  /// (lower = faster region).
  double SlotGoodness(int64_t slot, int64_t group_segments) const;

 private:
  const tape::Dlt4000LocateModel& model_;
  OptimizerOptions options_;
  std::vector<tape::SegmentId> probes_;
};

/// One layout's measured cost on a workload: chained batches scheduled by
/// a registry entry, executed on the model, wear recorded per schedule.
struct PlacementEvaluation {
  double makespan_seconds = 0.0;
  double life_consumed = 0.0;
  int64_t max_passes = 0;
  double mean_passes = 0.0;
  double tape_lengths = 0.0;
  int64_t batches = 0;
  int64_t requests = 0;
};

struct EvaluateOptions {
  int batches = 20;
  int batch_size = 192;
};

/// Runs `options.batches` chained batches from `generator` through
/// `entry`'s scheduler under `placement` (logical batches remapped to
/// physical addresses) and totals time + wear (sim::kDefaultWearBins
/// bins). The head carries across batches, as in the paper's
/// chained-batch experiments. Fails unless both counts are >= 1.
StatusOr<PlacementEvaluation> EvaluatePlacement(
    const tape::Dlt4000LocateModel& model, const Placement& placement,
    workload::RequestGenerator& generator, const sched::RegistryEntry& entry,
    const EvaluateOptions& options = {});

}  // namespace serpentine::layout

#endif  // SERPENTINE_LAYOUT_PLACEMENT_H_
