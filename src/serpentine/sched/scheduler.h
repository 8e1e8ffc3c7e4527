// Public scheduling API: build a service order for a batch of random
// requests with any of the paper's algorithms (§4).
#ifndef SERPENTINE_SCHED_SCHEDULER_H_
#define SERPENTINE_SCHED_SCHEDULER_H_

#include <vector>

#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/request.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sched {

/// Tuning knobs; the defaults reproduce the paper's reported configuration.
struct SchedulerOptions {
  /// Coalescing threshold (segments) for LOSS and SPARSE_LOSS. For LOSS,
  /// 0 disables coalescing (the configuration behind the paper's LOSS
  /// curves and CPU times) and kDefaultCoalesceThreshold (1410) is the
  /// paper's recommended value for the coalesced variant. SPARSE_LOSS
  /// always coalesces (its preprocessing step in the paper's sketch): 0
  /// selects the default threshold.
  int64_t loss_coalesce_threshold = 0;

  /// When true, SLTF uses the textbook O(n²) greedy; otherwise the paper's
  /// optimized O(n log n + k²) section-based equivalent.
  bool sltf_naive = false;

  /// Worker threads for parallel schedule construction (sparse-edge
  /// gathering, partitioned-LOSS fragments). 1 (the default) keeps
  /// construction serial; 0 resolves via util::ResolveThreadCount
  /// (SERPENTINE_THREADS / hardware concurrency). All parallel paths are
  /// bit-identical for any worker count.
  int construction_workers = 1;
};

/// Fragment size (coalesced groups) of the partitioned builders
/// (kLossMt, kLossMtOrOpt): large enough that the greedy sees a whole band
/// of tape per fragment, small enough that a fragment's dense work stays
/// cache-resident and 100k-request batches yield ~100 fragments to spread
/// across workers. Batches no larger than one fragment use plain LOSS.
inline constexpr int kDefaultLossPartitionSize = 1024;

/// Or-opt insertion window of kLossMtOrOpt's polishing pass: keeps the
/// search near-linear at 100k requests, where LOSS has already placed
/// related requests near each other.
inline constexpr int kLossMtOrOptInsertionWindow = 64;

/// Reorders `requests` for minimal execution time starting from
/// `initial_position`, using `algorithm`.
///
/// Fails with InvalidArgument if OPT is asked for more requests than the
/// exact solver supports (the paper itself stops OPT at 12), if LTSP is
/// asked for more than tsp::kMaxLtspCities coalesced groups, or if any
/// request lies outside the tape.
serpentine::StatusOr<Schedule> BuildSchedule(
    const tape::LocateModel& model, tape::SegmentId initial_position,
    std::vector<Request> requests, Algorithm algorithm,
    const SchedulerOptions& options = {});

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_SCHEDULER_H_
