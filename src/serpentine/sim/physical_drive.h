// PhysicalDrive: stand-in for the authors' real DLT4000 in the validation
// and sensitivity experiments (paper §6–7). It reports what a drive
// "actually did": locate times follow the ideal model of the *mounted*
// tape's true geometry, plus measurement-scale noise and a systematic bias
// on short locates — the paper blames the growing error at large schedule
// sizes on "numerous short locates near the physical track ends, and this
// region of the locate time model is less accurate".
#ifndef SERPENTINE_SIM_PHYSICAL_DRIVE_H_
#define SERPENTINE_SIM_PHYSICAL_DRIVE_H_

#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::sim {

/// Deviation of the physical drive from its ideal model.
struct PhysicalDriveParams {
  /// Std-dev of mean-zero per-locate noise (paper §3: model error exceeded
  /// 2 s for only 7 of 3000 locates on the modeled tape).
  double locate_noise_sigma = 0.5;
  /// Systematic extra seconds on locates shorter than
  /// short_locate_threshold (unmodeled settle time near track ends).
  double short_locate_bias = 0.3;
  double short_locate_threshold = 25.0;
  /// Rate and size of occasional outliers (retries, repositioning hiccups).
  double outlier_rate = 0.002;
  double outlier_seconds = 6.0;
  /// Seed for the drive's noise stream.
  int32_t noise_seed = 8191;
};

/// A simulated drive with the true geometry of the mounted cartridge.
///
/// Implements the LocateModel interface so the schedule executor can run a
/// schedule against it and obtain a "measured" execution time; it is NOT
/// meant to be handed to a scheduler (schedulers use the believed
/// Dlt4000LocateModel, which may have been built from the wrong tape's key
/// points — that is exactly the Fig 9 experiment).
class PhysicalDrive : public tape::LocateModel {
 public:
  PhysicalDrive(tape::TapeGeometry true_geometry,
                tape::DriveTimings timings,
                PhysicalDriveParams params = {});

  /// Measured locate time: ideal + bias + noise. Stateful (each call
  /// advances the noise stream), like a real measurement.
  double LocateSeconds(tape::SegmentId src,
                       tape::SegmentId dst) const override;

  double ReadSeconds(tape::SegmentId from, tape::SegmentId to) const override;
  double RewindSeconds(tape::SegmentId from) const override;
  const tape::TapeGeometry& geometry() const override;

  /// Each LocateSeconds call advances the shared noise stream.
  bool SupportsConcurrentUse() const override { return false; }

  /// Resets the noise stream, making measurement runs reproducible.
  void ResetNoise(int32_t seed) const;

  /// The underlying ideal model of the true geometry, for tests.
  const tape::Dlt4000LocateModel& ideal() const { return ideal_; }

 private:
  double Noise(double magnitude_scale) const;

  tape::Dlt4000LocateModel ideal_;
  PhysicalDriveParams params_;
  mutable serpentine::Lrand48 rng_;
};

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_PHYSICAL_DRIVE_H_
