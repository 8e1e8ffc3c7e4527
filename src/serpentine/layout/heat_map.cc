#include "serpentine/layout/heat_map.h"

#include <algorithm>

#include "serpentine/util/check.h"

namespace serpentine::layout {

HeatMap::HeatMap(tape::SegmentId total_segments, int64_t group_segments)
    : total_(total_segments), group_segments_(group_segments) {
  SERPENTINE_CHECK_GT(total_segments, 0);
  SERPENTINE_CHECK_GT(group_segments, 0);
  heat_.assign((total_ + group_segments_ - 1) / group_segments_, 0);
}

int64_t HeatMap::group_size(int64_t group) const {
  return std::min<int64_t>(group_segments_,
                           total_ - group * group_segments_);
}

void HeatMap::RecordRequest(const sched::Request& request, int64_t weight) {
  SERPENTINE_CHECK_GE(request.segment, 0);
  tape::SegmentId last =
      std::min<tape::SegmentId>(request.segment + request.count - 1,
                                total_ - 1);
  for (int64_t g = group_of(request.segment); g <= group_of(last); ++g) {
    heat_[g] += weight;
    total_heat_ += weight;
  }
}

void HeatMap::RecordBatch(const std::vector<sched::Request>& batch) {
  if (!batch.empty()) ++batches_recorded_;
  for (const sched::Request& r : batch) RecordRequest(r);
}

void HeatMap::ObserveCompletion(const sim::ServingRequest& request,
                                double /*completion_time*/, bool ok) {
  if (!ok) return;
  ++observed_completions_;
  RecordRequest(sched::Request{request.segment, 1});
}

std::function<void(const sim::ServingRequest&, double, bool)>
HeatMap::CompletionObserver() {
  return [this](const sim::ServingRequest& r, double t, bool ok) {
    ObserveCompletion(r, t, ok);
  };
}

void HeatMap::MergeWear(const sim::WearTracker& wear) {
  if (wear_baseline_.empty()) wear_baseline_.assign(wear.bins(), 0);
  SERPENTINE_CHECK_EQ(static_cast<int>(wear_baseline_.size()), wear.bins());
  for (int i = 0; i < wear.bins(); ++i) {
    wear_baseline_[i] += wear.bin_passes(i);
  }
}

}  // namespace serpentine::layout
