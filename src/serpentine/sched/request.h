// Request and Schedule types shared by all scheduling algorithms.
#ifndef SERPENTINE_SCHED_REQUEST_H_
#define SERPENTINE_SCHED_REQUEST_H_

#include <cstdint>
#include <vector>

#include "serpentine/tape/types.h"

namespace serpentine::sched {

/// One retrieval request: `count` consecutive segments starting at
/// `segment`. The paper's experiments use single-segment requests ("the
/// extension to multi-segment reads is trivial" — it only moves the head's
/// out-position); the store layer uses larger counts.
struct Request {
  tape::SegmentId segment = 0;
  int64_t count = 1;

  /// Head position when positioned to read this request.
  tape::SegmentId in() const { return segment; }
  /// Last segment transferred.
  tape::SegmentId last() const { return segment + count - 1; }

  bool operator==(const Request&) const = default;
};

/// The scheduling algorithms of the paper (§4), then the builders this
/// library adds beyond it.
enum class Algorithm {
  kRead,        ///< read the entire tape sequentially, then rewind
  kFifo,        ///< service requests in arrival order
  kSort,        ///< ascending segment number (optimal for helical scan)
  kOpt,         ///< exact optimum (exponential; n ≤ ~12)
  kSltf,        ///< shortest locate time first (greedy nearest-next)
  kScan,        ///< elevator over (track, section)
  kWeave,       ///< predefined section ordering, no locate-time queries
  kLoss,        ///< greedy asymmetric-TSP edge selection by maximal loss
  kSparseLoss,  ///< LOSS on a weave-order sparse graph + path contraction
  kLtsp,        ///< exact line-TSP interval DP (≤ tsp::kMaxLtspCities)
  kLossMt,      ///< partitioned parallel LOSS
  kLossMtOrOpt  ///< partitioned parallel LOSS, then windowed Or-opt
};

/// Stable lowercase name ("loss", "sltf", "ltsp-exact", ...).
const char* AlgorithmName(Algorithm a);

/// The paper's nine algorithms, in the order it introduces them.
inline constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kRead, Algorithm::kFifo,  Algorithm::kOpt,
    Algorithm::kSort, Algorithm::kSltf,  Algorithm::kScan,
    Algorithm::kWeave, Algorithm::kLoss, Algorithm::kSparseLoss,
};

/// A service order for a batch of requests.
struct Schedule {
  Algorithm algorithm = Algorithm::kFifo;
  /// Head position (segment number) when execution begins.
  tape::SegmentId initial_position = 0;
  /// Requests in service order. For READ schedules this is the delivery
  /// order (ascending), but execution is a full-tape scan.
  std::vector<Request> order;
  /// True for READ: execution reads the whole tape and rewinds, regardless
  /// of the request list.
  bool full_tape_scan = false;
};

/// True iff `schedule.order` is a permutation of `requests` (same multiset).
bool IsPermutationOfRequests(const Schedule& schedule,
                             const std::vector<Request>& requests);

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_REQUEST_H_
