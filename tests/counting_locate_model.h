// A LocateModel that answers as the model it wraps and counts the
// LocateSeconds calls per (src, dst) pair, for tests that prove a pricing
// path asks the model at most once per distinct pair. Its dynamic type is
// not Dlt4000LocateModel, so tsp::LocateCostSoA prices through the model
// rather than the Dlt4000 kernel.
#ifndef SERPENTINE_TESTS_COUNTING_LOCATE_MODEL_H_
#define SERPENTINE_TESTS_COUNTING_LOCATE_MODEL_H_

#include <map>
#include <utility>

#include "serpentine/tape/locate_model.h"

namespace serpentine::tape {

class CountingLocateModel : public LocateModel {
 public:
  explicit CountingLocateModel(const LocateModel& base) : base_(base) {}

  double LocateSeconds(SegmentId src, SegmentId dst) const override {
    ++calls_[{src, dst}];
    return base_.LocateSeconds(src, dst);
  }
  double ReadSeconds(SegmentId from, SegmentId to) const override {
    return base_.ReadSeconds(from, to);
  }
  double RewindSeconds(SegmentId from) const override {
    return base_.RewindSeconds(from);
  }
  const TapeGeometry& geometry() const override { return base_.geometry(); }

  const std::map<std::pair<SegmentId, SegmentId>, int>& calls() const {
    return calls_;
  }
  int total_calls() const {
    int total = 0;
    for (const auto& [pair, count] : calls_) total += count;
    return total;
  }

 private:
  const LocateModel& base_;
  mutable std::map<std::pair<SegmentId, SegmentId>, int> calls_;
};

}  // namespace serpentine::tape

#endif  // SERPENTINE_TESTS_COUNTING_LOCATE_MODEL_H_
