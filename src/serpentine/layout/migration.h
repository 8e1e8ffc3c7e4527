// Migration planning: turning the delta between the current (identity)
// layout and a proposed Placement into reorganization batches that the
// existing schedulers order and the drive stack executes/costs.
//
// A migration moves whole groups. Each batch reads a handful of groups
// from their current homes — ordered by a sched::Registry algorithm, so
// the read leg benefits from the same locate-aware scheduling as
// foreground traffic — then streams them out to their destination slots
// (contiguous destination runs cost one locate plus a sequential
// transfer, the same rate as a read; serpentine drives write and read at
// the transport speed). RunInterleavedMigration additionally shares the
// drive with foreground Poisson traffic under a three-rung ladder
// (full/half/quarter slices by expected arrivals per slice), the layout
// loop's analog of the online server's degradation ladder
// (docs/placement.md).
#ifndef SERPENTINE_LAYOUT_MIGRATION_H_
#define SERPENTINE_LAYOUT_MIGRATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/drive/drive.h"
#include "serpentine/layout/placement.h"
#include "serpentine/sched/registry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::layout {

struct MigrationOptions {
  /// Groups moved per reorganization batch.
  int64_t batch_groups = 16;
  /// Registry entry ordering each batch's read leg.
  std::string algorithm = "loss";
};

/// One reorganization batch: the groups it moves, the scheduled read leg
/// over their current homes, and the estimated write cost to their
/// destination slots.
struct MigrationBatch {
  std::vector<int64_t> groups;
  sched::Schedule reads;
  int64_t segments = 0;
  double read_seconds = 0.0;
  double write_seconds = 0.0;
};

struct MigrationPlan {
  std::vector<MigrationBatch> batches;
  int64_t moved_groups = 0;
  int64_t segments = 0;
  double estimated_seconds = 0.0;
};

/// Plans the migration from the identity layout to `target`. Moved groups
/// are batched in destination-slot order (so write legs stay contiguous),
/// each batch's read leg is scheduled by `options.algorithm`, and the head
/// carries from each batch's write leg into the next batch's reads. An
/// identity target yields an empty plan.
StatusOr<MigrationPlan> PlanMigration(const tape::Dlt4000LocateModel& model,
                                      const Placement& target,
                                      const sched::Registry& registry,
                                      const MigrationOptions& options = {});

/// Outcome of running a plan on a drive stack.
struct MigrationExecution {
  double total_seconds = 0.0;
  double read_seconds = 0.0;
  double write_seconds = 0.0;
  int64_t segments = 0;
  int64_t batches = 0;
};

/// Executes `plan` on `drive`: each batch's read schedule through the
/// standard executor, then one locate + streaming transfer per contiguous
/// destination run. Assumes a fault-free stack (like sim::ExecuteSchedule).
MigrationExecution ExecuteMigration(drive::Drive& drive,
                                    const MigrationPlan& plan,
                                    const Placement& target);

struct InterleavedOptions {
  /// Foreground Poisson arrival rate and request count.
  double arrival_rate_per_hour = 60.0;
  int64_t foreground_requests = 200;
  /// Registry entry scheduling foreground dispatch batches.
  std::string algorithm = "loss";
  int32_t seed = 1;
};

struct InterleavedResult {
  /// Foreground service quality (migration delay included).
  int64_t foreground_completed = 0;
  double mean_response_seconds = 0.0;
  double p99_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  /// Where the time went.
  double makespan_seconds = 0.0;
  double migration_seconds = 0.0;
  double foreground_seconds = 0.0;
  /// Ladder usage.
  int64_t full_slices = 0;
  int64_t half_slices = 0;
  int64_t quarter_slices = 0;
  bool migration_complete = false;
};

/// Shares one model drive between `plan` and foreground Poisson traffic:
/// foreground requests dispatch whenever any are queued; migration slices
/// run only on an empty queue, sized by the ladder: expected foreground
/// arrivals during a full slice at or below 2 → the full slice; at or
/// below 8 → half; above → quarter (never below one group, so the
/// migration always makes progress). Foreground requests address the
/// post-migration (physical) space uniformly. The foreground stream must
/// pass sim::ValidateOnlineServerConfig (a finite rate > 0 and
/// 1 <= foreground_requests < 2^32). Deterministic for a given (model,
/// plan, options).
StatusOr<InterleavedResult> RunInterleavedMigration(
    const tape::Dlt4000LocateModel& model, const MigrationPlan& plan,
    const Placement& target, const sched::Registry& registry,
    const InterleavedOptions& options = {});

}  // namespace serpentine::layout

#endif  // SERPENTINE_LAYOUT_MIGRATION_H_
