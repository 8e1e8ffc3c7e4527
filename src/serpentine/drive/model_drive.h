// ModelDrive: the base of every drive stack — a stateful head over any
// tape::LocateModel. Wraps the believed Dlt4000LocateModel for estimates,
// a PerturbedLocateModel for the Fig 10 sensitivity runs, or a
// sim::PhysicalDrive for "measured" execution.
#ifndef SERPENTINE_DRIVE_MODEL_DRIVE_H_
#define SERPENTINE_DRIVE_MODEL_DRIVE_H_

#include "serpentine/drive/drive.h"

namespace serpentine::drive {

/// A drive whose operations take exactly the time the wrapped model
/// predicts. Every op reports kOk; position bookkeeping follows
/// sched::OutPosition's clamp rule.
class ModelDrive : public Drive {
 public:
  /// `model` must outlive the drive. The head starts at `position`.
  explicit ModelDrive(const tape::LocateModel& model,
                      tape::SegmentId position = 0)
      : model_(model), position_(position) {}

  OpResult Locate(tape::SegmentId dst) override;
  OpResult ReadSegments(tape::SegmentId from, tape::SegmentId to) override;
  OpResult Rewind() override;

  tape::SegmentId Position() const override { return position_; }
  void SetPosition(tape::SegmentId position) override {
    position_ = position;
  }
  const tape::LocateModel& model() const override { return model_; }

 private:
  const tape::LocateModel& model_;
  tape::SegmentId position_;
};

}  // namespace serpentine::drive

#endif  // SERPENTINE_DRIVE_MODEL_DRIVE_H_
