#include "serpentine/sim/physical_drive.h"

#include <algorithm>
#include <cmath>

namespace serpentine::sim {

PhysicalDrive::PhysicalDrive(tape::TapeGeometry true_geometry,
                             tape::DriveTimings timings,
                             PhysicalDriveParams params)
    : ideal_(std::move(true_geometry), timings),
      params_(params),
      rng_(params.noise_seed) {}

double PhysicalDrive::Noise(double magnitude_scale) const {
  // Sum of three uniforms: bell-shaped, bounded, mean zero; variance of one
  // U(-1,1) is 1/3, so the sum has sigma = 1. Scaled to the configured
  // sigma.
  double u = (rng_.NextDouble() * 2 - 1) + (rng_.NextDouble() * 2 - 1) +
             (rng_.NextDouble() * 2 - 1);
  return u * magnitude_scale;
}

double PhysicalDrive::LocateSeconds(tape::SegmentId src,
                                    tape::SegmentId dst) const {
  double t = ideal_.LocateSeconds(src, dst);
  if (src == dst) return t;
  if (t < params_.short_locate_threshold) t += params_.short_locate_bias;
  t += Noise(params_.locate_noise_sigma);
  if (params_.outlier_rate > 0 && rng_.NextDouble() < params_.outlier_rate) {
    t += params_.outlier_seconds * rng_.NextDouble();
  }
  return std::max(0.0, t);
}

double PhysicalDrive::ReadSeconds(tape::SegmentId from,
                                  tape::SegmentId to) const {
  // Streaming transfers are stable on real drives; no noise injected.
  return ideal_.ReadSeconds(from, to);
}

double PhysicalDrive::RewindSeconds(tape::SegmentId from) const {
  return ideal_.RewindSeconds(from) +
         std::abs(Noise(params_.locate_noise_sigma));
}

const tape::TapeGeometry& PhysicalDrive::geometry() const {
  return ideal_.geometry();
}

void PhysicalDrive::ResetNoise(int32_t seed) const { rng_.Seed(seed); }

}  // namespace serpentine::sim
