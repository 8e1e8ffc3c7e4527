#include "serpentine/sched/request.h"

#include <algorithm>

namespace serpentine::sched {

const char* AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kRead:
      return "read";
    case Algorithm::kFifo:
      return "fifo";
    case Algorithm::kSort:
      return "sort";
    case Algorithm::kOpt:
      return "opt";
    case Algorithm::kSltf:
      return "sltf";
    case Algorithm::kScan:
      return "scan";
    case Algorithm::kWeave:
      return "weave";
    case Algorithm::kLoss:
      return "loss";
    case Algorithm::kSparseLoss:
      return "sparse-loss";
    case Algorithm::kLtsp:
      return "ltsp-exact";
    case Algorithm::kLossMt:
      return "loss-mt";
    case Algorithm::kLossMtOrOpt:
      return "loss-mt-oropt";
  }
  return "unknown";
}

bool IsPermutationOfRequests(const Schedule& schedule,
                             const std::vector<Request>& requests) {
  if (schedule.order.size() != requests.size()) return false;
  auto key = [](const Request& r) {
    return std::make_pair(r.segment, r.count);
  };
  std::vector<std::pair<tape::SegmentId, int64_t>> a, b;
  a.reserve(requests.size());
  b.reserve(requests.size());
  for (const Request& r : schedule.order) a.push_back(key(r));
  for (const Request& r : requests) b.push_back(key(r));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace serpentine::sched
