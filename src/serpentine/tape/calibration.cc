#include "serpentine/tape/calibration.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "serpentine/util/check.h"

namespace serpentine::tape {
namespace {

/// Minimum abrupt drop (seconds) that identifies a dip. It sits between
/// measurement noise and the smallest real drop (~5.5 s on forward
/// tracks).
constexpr double kDipThresholdSeconds = 3.0;

double MedianOf(std::vector<double>& values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2,
                   values.end());
  return values[values.size() / 2];
}

/// One timing probe, noise-hardened by a trimmed median of repeated
/// measurements: the median defeats ordinary noise, and probes far from
/// it (gross glitches — a stuck locate, a mid-measurement drive reset)
/// are discarded before the final median. A comparison that loses more
/// than half its probes to trimming draws extra rounds, bounded by
/// max_remeasure_rounds.
class Prober {
 public:
  Prober(const LocateModel& drive, const CalibrationOptions& options,
         int64_t* counter)
      : drive_(drive),
        repeats_(std::max(1, options.probes_per_comparison)),
        trim_seconds_(options.outlier_trim_seconds),
        max_rounds_(std::max(0, options.max_remeasure_rounds)),
        counter_(counter) {}

  double Measure(SegmentId src, SegmentId dst) {
    buf_.clear();
    for (int round = 0;; ++round) {
      for (int i = 0; i < repeats_; ++i) {
        buf_.push_back(drive_.LocateSeconds(src, dst));
        ++*counter_;
      }
      scratch_ = buf_;
      if (trim_seconds_ <= 0.0) return MedianOf(scratch_);
      double med = MedianOf(scratch_);
      trimmed_.clear();
      for (double v : buf_) {
        if (std::abs(v - med) <= trim_seconds_) trimmed_.push_back(v);
      }
      // A clean drive loses nothing to trimming, so the trimmed median is
      // exactly the plain median. Only a glitch storm (most probes far
      // from their own median) triggers another round.
      if (2 * trimmed_.size() >= buf_.size() || round >= max_rounds_) {
        return MedianOf(trimmed_.empty() ? scratch_ : trimmed_);
      }
    }
  }

 private:
  const LocateModel& drive_;
  int repeats_;
  double trim_seconds_;
  int max_rounds_;
  int64_t* counter_;
  std::vector<double> buf_;
  std::vector<double> scratch_;
  std::vector<double> trimmed_;
};

}  // namespace

serpentine::StatusOr<CalibrationResult> CalibrateKeyPoints(
    const LocateModel& drive, const std::vector<SegmentId>& track_starts,
    int sections_per_track, const CalibrationOptions& options) {
  if (track_starts.size() < 2) {
    return InvalidArgumentError("need track starts plus capacity sentinel");
  }
  if (sections_per_track < 3) {
    return InvalidArgumentError("need at least 3 sections per track");
  }
  const int tracks = static_cast<int>(track_starts.size()) - 1;
  const SegmentId capacity = track_starts[tracks];

  CalibrationResult result;
  result.key_segments.resize(tracks);
  Prober prober(drive, options, &result.measurements);

  for (int t = 0; t < tracks; ++t) {
    SegmentId track_start = track_starts[t];
    SegmentId track_end = track_starts[t + 1];
    int64_t track_len = track_end - track_start;
    // Nominal section length from the track's own extent; the short last
    // physical section is first in reading order on reverse tracks and
    // last on forward tracks, so the expected gap k_r - k_{r-1} is the
    // nominal length everywhere except around it. Using the average with a
    // generous search window tolerates that asymmetry.
    int64_t nominal = track_len / sections_per_track;
    // Search half-window: per-tape jitter plus the nominal-vs-short
    // section asymmetry.
    int64_t window = nominal / 4;

    auto& keys = result.key_segments[t];
    keys.resize(sections_per_track);
    keys[0] = track_start;

    // The probe source: the start of the nearest co-directional track, so
    // every destination in track t needs a cross-track scan and the locate
    // curve drops abruptly at every key point k_2..k_13. (Destinations in
    // the first two reading sections scan to the track start instead,
    // which makes k_1 invisible to timing; it is reconstructed from the
    // measured k_2 below.)
    int probe_track = t >= 2 ? t - 2 : t + 2;
    if (probe_track >= tracks) probe_track = t;  // degenerate tiny tapes
    SegmentId probe = track_starts[probe_track];

    for (int r = 2; r < sections_per_track; ++r) {
      // Expected location: one nominal section past the previous key
      // point (for r == 2, two nominal sections past the track start).
      SegmentId expect =
          r == 2 ? track_start + 2 * nominal : keys[r - 1] + nominal;
      SegmentId lo = std::max(expect - window, keys[r - 1] + 1);
      SegmentId hi = std::min(expect + window, track_end - 1);
      if (lo >= hi) {
        return InternalError("degenerate search window (track " +
                             std::to_string(t) + ")");
      }
      // Invariant: the (unique) drop lies in (lo, hi]. Within a section
      // the curve rises at the read-speed slope; comparing slope-detrended
      // values separates the branches: a pre-drop point sits a full drop
      // above a post-drop point after detrending, regardless of how far
      // apart they are in the window.
      auto detrended = [&](SegmentId x) {
        return prober.Measure(probe, x) -
               options.seconds_per_segment * static_cast<double>(x);
      };
      double g_hi = detrended(hi);
      while (hi - lo > 1) {
        SegmentId mid = lo + (hi - lo) / 2;
        double g_mid = detrended(mid);
        if (g_mid - g_hi > kDipThresholdSeconds) {
          lo = mid;  // mid is pre-drop
        } else {
          hi = mid;  // mid is post-drop (same branch as old hi)
          g_hi = g_mid;
        }
      }
      keys[r] = hi;
    }

    // k_1 is invisible to timing (both sides of it scan to the track
    // start); reconstruct it as one measured-section-length before k_2,
    // clamped inside (k_0, k_2).
    int64_t measured_len =
        sections_per_track > 3 ? keys[3] - keys[2] : nominal;
    keys[1] = std::clamp<SegmentId>(keys[2] - measured_len,
                                    track_start + 1, keys[2] - 1);
  }

  (void)capacity;
  return result;
}

serpentine::StatusOr<CalibrationResult> CalibrateKeyPoints(
    const LocateModel& drive, const TapeGeometry& layout,
    const CalibrationOptions& options) {
  std::vector<SegmentId> track_starts;
  track_starts.reserve(layout.num_tracks() + 1);
  for (int t = 0; t <= layout.num_tracks(); ++t) {
    track_starts.push_back(layout.track_start(t));
  }
  return CalibrateKeyPoints(drive, track_starts,
                            layout.sections_per_track(), options);
}

}  // namespace serpentine::tape
