// Workload heat accounting at placement granularity. The layout loop's
// input side: every served request lands in a per-group access counter,
// and a WearTracker's per-bin pass counts can be merged in as the
// media-wear baseline. The PlacementOptimizer consumes the resulting
// HeatMap to propose a new segment→physical mapping (docs/placement.md).
//
// Granularity: segments are aggregated into fixed-size *groups* (default
// 704 segments ≈ one nominal forward-track section) — the unit of
// relocation. Placement is a permutation of groups, so the HeatMap never
// needs per-segment state on a 622k-segment tape.
#ifndef SERPENTINE_LAYOUT_HEAT_MAP_H_
#define SERPENTINE_LAYOUT_HEAT_MAP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/sim/wear.h"
#include "serpentine/tape/types.h"

namespace serpentine::layout {

/// Per-group access counts + optional wear baseline.
///
/// Feed it from any of the observation surfaces:
///   * batch traffic: RecordBatch;
///   * online serving: hand CompletionObserver() to
///     sim::ServingCore::set_completion_callback — completions accumulate
///     heat without perturbing the serving trajectory;
///   * media history: MergeWear with the WearTracker that watched past
///     schedules.
class HeatMap {
 public:
  explicit HeatMap(tape::SegmentId total_segments,
                   int64_t group_segments = 704);

  // ---- group geometry ----
  tape::SegmentId total_segments() const { return total_; }
  int64_t group_segments() const { return group_segments_; }
  int64_t num_groups() const { return static_cast<int64_t>(heat_.size()); }
  int64_t group_of(tape::SegmentId segment) const {
    return segment / group_segments_;
  }
  tape::SegmentId group_start(int64_t group) const {
    return group * group_segments_;
  }
  /// Group sizes are uniform except the final group, which holds the
  /// remainder when group_segments does not divide total_segments.
  int64_t group_size(int64_t group) const;

  // ---- recording ----
  /// Adds `weight` accesses to every group the request span touches.
  void RecordRequest(const sched::Request& request, int64_t weight = 1);
  /// Records every request of a batch; a non-empty batch also counts one
  /// toward batches_recorded().
  void RecordBatch(const std::vector<sched::Request>& batch);
  /// Completion-observer hook for sim::ServingCore: counts served (ok)
  /// completions, ignores failures. Never perturbs the serving trajectory
  /// — it only increments counters owned by this HeatMap.
  void ObserveCompletion(const sim::ServingRequest& request,
                         double completion_time, bool ok);
  /// The above as a std::function ready for set_completion_callback. The
  /// HeatMap must outlive the ServingCore it is attached to.
  std::function<void(const sim::ServingRequest&, double, bool)>
  CompletionObserver();
  /// Merges a WearTracker's per-bin pass counts as the wear baseline the
  /// optimizer's leveling cap works against. Repeated merges accumulate;
  /// all merges must agree on the tracker's bin count.
  void MergeWear(const sim::WearTracker& wear);

  // ---- reading ----
  int64_t group_heat(int64_t group) const { return heat_[group]; }
  int64_t total_heat() const { return total_heat_; }
  int64_t observed_completions() const { return observed_completions_; }
  /// Batches seen by RecordBatch. The optimizer divides group heat by
  /// this to estimate per-batch visit rates (a group served five times in
  /// one batch costs one key-point backup, not five — the scheduler reads
  /// through a visited section in arrival-ascending order).
  int64_t batches_recorded() const { return batches_recorded_; }
  /// Wear baseline bins (empty until MergeWear is called).
  const std::vector<int64_t>& wear_baseline() const { return wear_baseline_; }

 private:
  tape::SegmentId total_;
  int64_t group_segments_;
  std::vector<int64_t> heat_;
  int64_t total_heat_ = 0;
  int64_t observed_completions_ = 0;
  int64_t batches_recorded_ = 0;
  std::vector<int64_t> wear_baseline_;
};

}  // namespace serpentine::layout

#endif  // SERPENTINE_LAYOUT_HEAT_MAP_H_
