// Per-algorithm entry points, internal to the sched library. Each returns
// the service order for `requests` starting from head position `initial`.
// Input request vectors are taken by value where the algorithm reorders in
// place.
#ifndef SERPENTINE_SCHED_INTERNAL_H_
#define SERPENTINE_SCHED_INTERNAL_H_

#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sched::internal {

std::vector<Request> ScheduleSort(std::vector<Request> requests);

serpentine::StatusOr<std::vector<Request>> ScheduleOpt(
    const tape::LocateModel& model, tape::SegmentId initial,
    const std::vector<Request>& requests);

std::vector<Request> ScheduleSltfNaive(const tape::LocateModel& model,
                                       tape::SegmentId initial,
                                       std::vector<Request> requests);

std::vector<Request> ScheduleSltfSectioned(const tape::LocateModel& model,
                                           tape::SegmentId initial,
                                           std::vector<Request> requests);

std::vector<Request> ScheduleScan(const tape::TapeGeometry& geometry,
                                  std::vector<Request> requests);

std::vector<Request> ScheduleWeave(const tape::TapeGeometry& geometry,
                                   tape::SegmentId initial,
                                   std::vector<Request> requests);

std::vector<Request> ScheduleLoss(const tape::LocateModel& model,
                                  tape::SegmentId initial,
                                  std::vector<Request> requests,
                                  int64_t coalesce_threshold);

std::vector<Request> ScheduleSparseLoss(const tape::LocateModel& model,
                                        tape::SegmentId initial,
                                        std::vector<Request> requests,
                                        int64_t coalesce_threshold,
                                        int workers);

/// Partitioned parallel LOSS ("loss-mt"): contiguous fragments of
/// `partition_size` coalesced groups are each solved as an independent
/// pinned-start LOSS path (in parallel when the model supports concurrent
/// use), then stitched by a dense LOSS over one contracted city per
/// fragment. The fragment layout depends only on the group count, so the
/// result is bit-identical for any `workers`; batches of at most
/// `partition_size` (> 0) groups fall back to plain LOSS exactly.
/// `workers` 0 resolves via ResolveThreadCount.
std::vector<Request> ScheduleLossPartitioned(const tape::LocateModel& model,
                                             tape::SegmentId initial,
                                             std::vector<Request> requests,
                                             int64_t coalesce_threshold,
                                             int partition_size, int workers);

/// Exact open-path LTSP (Honoré/Simon/Suter interval DP over line-ordered
/// cities): optimal when locate costs are linear in distance (e.g. the
/// helical model); a strong heuristic oracle otherwise. Fails with
/// InvalidArgument above tsp::kMaxLtspCities coalesced groups.
serpentine::StatusOr<std::vector<Request>> ScheduleLtsp(
    const tape::LocateModel& model, tape::SegmentId initial,
    std::vector<Request> requests, int64_t coalesce_threshold);

}  // namespace serpentine::sched::internal

#endif  // SERPENTINE_SCHED_INTERNAL_H_
