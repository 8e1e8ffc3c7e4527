// Or-opt local search: polish any schedule by relocating short blocks of
// requests to cheaper positions. The paper leaves "a more sophisticated
// algorithm, such as that in [CDT95]" as future work; Or-opt is the
// classic cheap improvement step for asymmetric TSP paths (block moves
// preserve edge directions, unlike 2-opt segment reversal, which is
// expensive to evaluate under asymmetric costs).
//
// Two implementations share the same move semantics and produce
// bit-identical results (pinned by sched_local_search_incremental_test.cc):
//
//   * ImproveScheduleSweep — the reference full sweep: every pass
//     re-evaluates all O(n² · max_block) candidate moves.
//   * ImproveSchedule — the incremental search: consecutive-edge costs are
//     kept in a flat array (making removal gains and displaced edges free),
//     a lower bound prunes insertion candidates before their second edge is
//     priced, and a per-(block, leading-request) memo with move-epoch
//     invalidation skips every window whose neighborhood has not changed
//     since it was last proven move-free, so later passes cost almost
//     nothing. At 10k requests this is well over 5× faster than the sweep
//     (see docs/performance.md and BENCH_sched_cpu.json).
#ifndef SERPENTINE_SCHED_LOCAL_SEARCH_H_
#define SERPENTINE_SCHED_LOCAL_SEARCH_H_

#include <cstdint>

#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::sched {

struct LocalSearchOptions {
  /// Largest block of consecutive requests considered for relocation.
  int max_block = 3;
  /// Upper bound on full improvement sweeps (each sweep is O(n² ·
  /// max_block) locate evaluations); the search also stops at the first
  /// sweep with no improvement.
  int max_passes = 8;
  /// Keep a move only if it shortens the estimated schedule by more than
  /// this many seconds (guards against float-noise churn).
  double min_gain_seconds = 1e-6;
  /// Relative floor on the same threshold: the effective threshold is
  /// max(min_gain_seconds, min_gain_relative × initial locate seconds of
  /// the path). An absolute epsilon alone stops guarding as N grows — a
  /// 100k-request path accumulates ~1e6 s of locate time, whose double
  /// rounding noise dwarfs 1e-6 s and would let no-op moves churn forever.
  /// The default leaves paper-scale batches (≲ 1e4 s) unaffected.
  double min_gain_relative = 1e-12;
  /// When > 0, a block is only offered insertion positions within this
  /// many slots of its current position; 0 means the whole path. Large
  /// batches use a window to keep the search near-linear — schedules from
  /// LOSS already place related requests near each other, so distant
  /// insertions almost never win.
  int insertion_window = 0;
};

struct LocalSearchStats {
  int passes = 0;
  int moves = 0;
  double seconds_saved = 0.0;
  /// Candidate edges priced (kernel evaluations or memo lookups).
  /// Implementation-specific: the incremental search reports far fewer
  /// than the sweep for the same (identical) result.
  int64_t edge_evaluations = 0;
  /// Candidate windows skipped because a memoized move-free verdict was
  /// still valid (always 0 for the sweep).
  int64_t windows_skipped = 0;
};

/// Improves `schedule` in place by Or-opt block relocation until no move
/// helps (or max_passes). Returns the improvement statistics. No-op for
/// READ schedules (their execution ignores the order). Incremental
/// implementation; bit-identical to ImproveScheduleSweep.
LocalSearchStats ImproveSchedule(const tape::LocateModel& model,
                                 Schedule* schedule,
                                 const LocalSearchOptions& options = {});

/// Reference implementation: full O(n² · max_block) sweeps per pass.
/// Kept as the semantic oracle for equivalence tests and as the sweep
/// baseline the perf benches compare against.
LocalSearchStats ImproveScheduleSweep(const tape::LocateModel& model,
                                      Schedule* schedule,
                                      const LocalSearchOptions& options = {});

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_LOCAL_SEARCH_H_
