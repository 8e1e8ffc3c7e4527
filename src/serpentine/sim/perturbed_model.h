// Locate-model error injection (paper §7): given the original
// locate_time(S, D) and an error amount E, return locate_time(S,D) + E if
// D is even and locate_time(S,D) - E if D is odd. Used to measure how
// sensitive schedule quality is to model inaccuracy (Fig 10).
#ifndef SERPENTINE_SIM_PERTURBED_MODEL_H_
#define SERPENTINE_SIM_PERTURBED_MODEL_H_

#include <algorithm>

#include "serpentine/tape/locate_model.h"

namespace serpentine::sim {

/// Wraps a base model, perturbing every locate estimate by ±error_seconds
/// depending on the parity of the destination segment (mean error zero).
class PerturbedLocateModel : public tape::LocateModel {
 public:
  /// `base` must outlive this wrapper.
  PerturbedLocateModel(const tape::LocateModel* base, double error_seconds)
      : base_(base), error_(error_seconds) {}

  double LocateSeconds(tape::SegmentId src,
                       tape::SegmentId dst) const override {
    double t = base_->LocateSeconds(src, dst);
    t += (dst % 2 == 0) ? error_ : -error_;
    return std::max(0.0, t);
  }

  double ReadSeconds(tape::SegmentId from, tape::SegmentId to) const override {
    return base_->ReadSeconds(from, to);
  }

  double RewindSeconds(tape::SegmentId from) const override {
    return base_->RewindSeconds(from);
  }

  const tape::TapeGeometry& geometry() const override {
    return base_->geometry();
  }

  bool SupportsConcurrentUse() const override {
    return base_->SupportsConcurrentUse();
  }

 private:
  const tape::LocateModel* base_;
  double error_;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_PERTURBED_MODEL_H_
