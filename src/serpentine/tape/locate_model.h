// The locate-time model (paper §3): predicts how long a serpentine drive
// takes to reposition between two segments, read sequentially, and rewind.
//
// The paper's model has "8 major cases with 9 additional subcases, each ...
// discontinuous and nonmonotonic, but piecewise linear". We implement it as
// one unified geometric rule whose case analysis reproduces the paper's
// seven published cases (see LocateCase):
//
//   * If the destination is forward in the same track within the same or
//     next two sections, the drive just reads forward (case 1).
//   * Otherwise the drive switches to the destination track, scans (at the
//     fast transport speed) to the key point two before the destination —
//     clamped to the beginning of the track when the destination lies in
//     its first or second reading section (cases 4/7) — and reads forward
//     from there (cases 2/3/5/6 depending on scan direction and track
//     parity).
//
// Everything is computed in physical coordinates, so the forward/reverse
// asymmetries the paper measures (e.g. the ~5 s dip drop on forward tracks
// vs ~25 s on reverse tracks) emerge instead of being special-cased.
//
// The rule is written once: Dlt4000LocateModel::EndpointOf decodes each
// end of a locate, ReadsForward is the case-1 test, and SecondsBetween adds
// up the charges. LocateSeconds, the case analysis behind Classify and
// ExplainLocate, and tsp::LocateCostSoA's per-edge and row kernels all
// build on those three.
#ifndef SERPENTINE_TAPE_LOCATE_MODEL_H_
#define SERPENTINE_TAPE_LOCATE_MODEL_H_

#include <algorithm>
#include <cmath>
#include <memory>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/params.h"
#include "serpentine/tape/types.h"

namespace serpentine::tape {

/// The paper's seven locate cases (§3), as classified by
/// Dlt4000LocateModel::Classify.
enum class LocateCase {
  /// Case 1: same track, destination in the same or one of the next two
  /// reading sections — pure read-forward.
  kReadForward = 1,
  /// Case 2: co-directional (or same) track, scan forward to the key point
  /// two before the destination, then read forward.
  kScanForwardCoDirectional = 2,
  /// Case 3: co-directional track, scan backward, then read forward.
  kScanBackwardCoDirectional = 3,
  /// Case 4: co-directional track, destination in its first or second
  /// reading section — scan to the beginning of the track.
  kTrackStartCoDirectional = 4,
  /// Case 5: anti-directional track, scan forward.
  kScanForwardAntiDirectional = 5,
  /// Case 6: anti-directional track, scan backward.
  kScanBackwardAntiDirectional = 6,
  /// Case 7: anti-directional track, destination in first or second
  /// reading section — scan to the beginning of the track.
  kTrackStartAntiDirectional = 7,
};

/// Returns a short stable name for a case ("read-forward", ...).
const char* LocateCaseName(LocateCase c);

/// Abstract timing model a scheduler consults. Concrete implementations:
/// Dlt4000LocateModel (the believed model), sim::PerturbedLocateModel
/// (paper §7 error injection), sim::PhysicalDrive (ground truth with noise),
/// HelicalLocateModel (paper §2 comparison).
class LocateModel {
 public:
  virtual ~LocateModel() = default;

  /// Seconds to reposition the head from the start of `src` to the start of
  /// `dst`, ready to read.
  virtual double LocateSeconds(SegmentId src, SegmentId dst) const = 0;

  /// Seconds to read segments `from`..`to` inclusive (sequential transfer,
  /// including serpentine track turnarounds within the span).
  virtual double ReadSeconds(SegmentId from, SegmentId to) const = 0;

  /// Seconds to rewind to the beginning of tape from the start of `from`.
  virtual double RewindSeconds(SegmentId from) const = 0;

  /// The geometry this model *believes* (which, in the wrong-key-points
  /// experiments, differs from the tape actually mounted).
  virtual const TapeGeometry& geometry() const = 0;

  /// True when const queries are safe from multiple threads at once. Models
  /// with hidden mutable state (PhysicalDrive's noise stream) return false;
  /// the parallel experiment harness then runs its trial loop serially
  /// instead of racing.
  virtual bool SupportsConcurrentUse() const { return true; }

  /// Seconds to read the whole tape sequentially and rewind — the READ
  /// baseline (paper §4: "typical time ... is 14,000 seconds"). Defined for
  /// every model family as ReadSeconds over the full span plus the rewind
  /// from the last segment.
  double FullReadAndRewindSeconds() const;
};

/// The serpentine locate-time model of the paper, parameterized by a tape's
/// geometry (key points) and a drive's motion timings.
class Dlt4000LocateModel : public LocateModel {
 public:
  Dlt4000LocateModel(TapeGeometry geometry, DriveTimings timings);

  double LocateSeconds(SegmentId src, SegmentId dst) const override;
  double ReadSeconds(SegmentId from, SegmentId to) const override;
  double RewindSeconds(SegmentId from) const override;
  const TapeGeometry& geometry() const override { return geometry_; }

  const DriveTimings& timings() const { return timings_; }

  /// One end of a locate, decoded once: everything the rule reads about a
  /// segment the head leaves from or arrives at. Kept to 40 bytes, since
  /// tsp::LocateCostSoA holds two per city and LOSS's rescans stream them;
  /// that is why SecondsBetween computes the final read leg instead of
  /// reading it from here.
  struct Endpoint {
    SegmentId segment = 0;
    int track = 0;
    int reading_section = 0;
    /// The track's reading direction: true on forward tracks.
    bool forward = true;
    /// Where the head sits to begin reading the segment.
    PhysicalPos position = 0.0;
    /// The key point a locate *to* this segment scans to: the start of
    /// reading section r - 1, clamped to the beginning of the track for
    /// the first two sections. The locate then reads forward from here to
    /// `position`.
    PhysicalPos key_point = 0.0;
  };
  Endpoint EndpointOf(SegmentId seg) const;

  /// Case 1: forward in the same track, within the same or next two
  /// reading sections — the drive stays at read speed.
  static bool ReadsForward(const Endpoint& from, const Endpoint& to) {
    return from.track == to.track && to.segment >= from.segment &&
           to.reading_section <= from.reading_section + 2;
  }

  /// Seconds to locate from `from` to `to`: LocateSeconds over decoded
  /// endpoints. Outside case 1 the drive switches to the destination
  /// track, scans to its key point (reversing if the scan runs against the
  /// source track's reading direction), and reads forward.
  double SecondsBetween(const Endpoint& from, const Endpoint& to) const;

  /// Which of the paper's seven cases governs locate(src → dst).
  /// src == dst classifies as case 1 with zero motion.
  LocateCase Classify(SegmentId src, SegmentId dst) const;

  /// Full decomposition of one locate, for explainability (the serpsched
  /// CLI's --explain, wear accounting, tests).
  struct LocateBreakdown {
    LocateCase locate_case = LocateCase::kReadForward;
    /// Fixed + motion cost of the scan leg (overhead, track switch,
    /// reversal penalty, scan-speed travel); 0 for case-1 locates.
    double scan_seconds = 0.0;
    /// The final read-forward leg.
    double read_seconds = 0.0;
    double total_seconds = 0.0;
    double scan_distance_sections = 0.0;
    double read_distance_sections = 0.0;
    bool track_change = false;
    bool reversal = false;
  };
  LocateBreakdown ExplainLocate(SegmentId src, SegmentId dst) const;

  /// Seconds to transfer `bytes` at the drive's sustained bandwidth (used
  /// for request-size/utilization analyses, paper Fig 7).
  double TransferSeconds(int64_t bytes) const;

  /// Physical position the transport scans to before the final
  /// read-forward leg of locate(src → dst): the target key point, or the
  /// destination itself for case-1 (pure read-forward) locates. Used by
  /// wear accounting to reconstruct the motion path.
  PhysicalPos ScanTargetPhysical(SegmentId src, SegmentId dst) const;

 private:
  /// Decomposition of one locate, shared by Classify, ExplainLocate and
  /// ScanTargetPhysical.
  struct Plan {
    LocateCase locate_case;
    double scan_distance;  // section units; 0 for case 1
    bool track_change;
    bool reversal;         // scan leg runs against src reading direction
    double read_distance;  // section units of the final read-forward leg
    PhysicalPos scan_target;  // see ScanTargetPhysical
  };
  Plan PlanLocate(SegmentId src, SegmentId dst) const;

  TapeGeometry geometry_;
  DriveTimings timings_;
};

inline Dlt4000LocateModel::Endpoint Dlt4000LocateModel::EndpointOf(
    SegmentId seg) const {
  const TapeGeometry::Decoded d = geometry_.Decode(seg);
  Endpoint e;
  e.segment = seg;
  e.track = d.track;
  e.reading_section = d.reading_section;
  e.forward = geometry_.IsForwardTrack(d.track);
  e.position = d.position;
  e.key_point =
      geometry_.KeyPointPhysical(d.track, std::max(0, d.reading_section - 1));
  return e;
}

// No early return, so tsp::LocateCostSoA prices a row or column in one
// straight loop: both legs are computed and the case-1 test picks one. A
// charge that does not apply is added as -0.0, which leaves any sum
// unchanged bit for bit (x + -0.0 == x, -0.0 included; + 0.0 would turn
// -0.0 into +0.0), so every result equals the early-return evaluation.
// The reversal charge, a coin flip on random pairs, is a table load, which
// never jumps; GCC compiles `reversal ? x : -0.0` to a jump. The other
// tests seldom flip along a row of cities sorted by segment, and GCC's
// jumps for them measured faster than table loads (docs/performance.md).
inline double Dlt4000LocateModel::SecondsBetween(const Endpoint& from,
                                                 const Endpoint& to) const {
  const double read_forward =
      std::abs(to.position - from.position) * timings_.read_seconds_per_section;
  const double scan_distance = std::abs(to.key_point - from.position);
  // The scan leg reverses the transport when it runs against the source
  // track's reading direction; a zero-length scan never does.
  const bool reversal = from.forward ? to.key_point < from.position
                                     : to.key_point > from.position;
  double t =
      std::abs(to.position - to.key_point) * timings_.read_seconds_per_section;
  t += timings_.scan_overhead_seconds +
       scan_distance * timings_.scan_seconds_per_section;
  t += from.track != to.track ? timings_.track_switch_seconds : -0.0;
  const double reversal_charge[2] = {-0.0, timings_.reversal_penalty_seconds};
  t += reversal_charge[reversal];
  const double seconds = ReadsForward(from, to) ? read_forward : t;
  return from.segment == to.segment ? 0.0 : seconds;
}

/// Helical-scan tape model (paper §2): logical block numbers correspond
/// directly to physical position, so positioning time is a simple linear
/// function of logical distance and SORT is the optimal schedule.
class HelicalLocateModel : public LocateModel {
 public:
  /// A drive with `total_segments` blocks, locate cost
  /// `overhead + |distance| * seconds_per_segment`, and the given transfer
  /// time per segment. Defaults approximate an Exabyte 8505 (500 KB/s,
  /// 7 GB) scaled to 32 KB blocks.
  HelicalLocateModel(SegmentId total_segments, double overhead_seconds = 5.0,
                     double seconds_per_segment = 2.5e-4,
                     double transfer_seconds_per_segment = 0.0655);

  double LocateSeconds(SegmentId src, SegmentId dst) const override;
  double ReadSeconds(SegmentId from, SegmentId to) const override;
  double RewindSeconds(SegmentId from) const override;

  /// Helical geometry is degenerate; exposed as a single-track layout so
  /// generic code can still ask for total_segments().
  const TapeGeometry& geometry() const override { return geometry_; }

 private:
  double overhead_seconds_;
  double seconds_per_segment_;
  double transfer_seconds_per_segment_;
  TapeGeometry geometry_;
};

}  // namespace serpentine::tape

#endif  // SERPENTINE_TAPE_LOCATE_MODEL_H_
