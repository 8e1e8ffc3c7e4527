// Key-point calibration: recover a cartridge's key points by timing locate
// operations, as the paper does for real tapes ("Algorithms to determine
// the precise segment numbers of the key points are given in [HS96]. In
// essence, each dip is found by measuring locate times from the preceding
// dip.", §3).
//
// The calibrator treats the drive as a black box exposing only
// locate_time(src, dst) measurements plus the tape's track count, section
// count and capacity — exactly what a host can obtain over SCSI. It
// exploits the signature structure of the locate function:
//
//   * from a fixed probe position, locate time rises piecewise-linearly
//     within a section and drops abruptly at each dip (the drop is ~5 s on
//     forward tracks, ~25 s on reverse tracks);
//   * therefore each dip segment is found by binary search for the
//     discontinuity locate(p, x-1) - locate(p, x) > 3 s.
//
// The recovered key points are what parameterize a scheduling model for
// that cartridge; the paper's Fig 9 shows what happens when they are wrong.
#ifndef SERPENTINE_TAPE_CALIBRATION_H_
#define SERPENTINE_TAPE_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::tape {

/// Calibration tuning.
struct CalibrationOptions {
  /// Number of times each comparison is measured; medians defeat
  /// measurement noise on a real (or simulated-noisy) drive.
  int probes_per_comparison = 3;
  /// Within-section slope of the locate curve (read transport speed per
  /// segment) used to detrend comparisons across the search window. A
  /// drive-family constant: 15.5 s per ~704-segment section on the
  /// DLT4000. Density jitter of a few percent is tolerated.
  double seconds_per_segment = 15.5 / 704.0;
  /// Robust fit: probes farther than this from a comparison's median are
  /// treated as gross outliers (a stuck locate, a retried SCSI command, a
  /// drive soft reset mid-measurement) and discarded before the final
  /// median is taken. The default sits far above honest measurement noise
  /// (sub-second) but below a reset-magnitude glitch (~25 s), so clean and
  /// mildly noisy drives calibrate bit-identically with or without
  /// trimming. Set <= 0 to disable.
  double outlier_trim_seconds = 10.0;
  /// When trimming discards more than half of a comparison's probes, the
  /// comparison draws this many extra rounds of probes_per_comparison
  /// measurements (accumulated, then re-trimmed) before accepting the
  /// trimmed median. Bounds worst-case measurement cost on a badly
  /// glitching drive.
  int max_remeasure_rounds = 2;
};

/// Result of calibrating one cartridge.
struct CalibrationResult {
  /// key_segment[t][r]: recovered segment number of reading-order key
  /// point r in track t (k_0 is the track start).
  std::vector<std::vector<SegmentId>> key_segments;
  /// Total locate-time measurements issued.
  int64_t measurements = 0;
};

/// Recovers all key points of the mounted cartridge by timing locates
/// against `drive` (any LocateModel implementation — typically a
/// sim::PhysicalDrive standing in for real hardware).
///
/// `track_starts` must hold the first segment of each track plus a final
/// entry equal to the capacity (obtainable from the drive's partition
/// info / a coarse pre-pass); `sections_per_track` is a drive-family
/// constant (14 for the DLT4000).
serpentine::StatusOr<CalibrationResult> CalibrateKeyPoints(
    const LocateModel& drive, const std::vector<SegmentId>& track_starts,
    int sections_per_track, const CalibrationOptions& options = {});

/// Convenience overload taking the truth geometry's track layout (the
/// common case in simulation: track starts are known, dips are not).
serpentine::StatusOr<CalibrationResult> CalibrateKeyPoints(
    const LocateModel& drive, const TapeGeometry& layout,
    const CalibrationOptions& options = {});

}  // namespace serpentine::tape

#endif  // SERPENTINE_TAPE_CALIBRATION_H_
