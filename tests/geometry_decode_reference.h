// The binary-search segment decode that TapeGeometry::Decode replaced, kept
// as the test oracle for it. TrackOf, ReadingSectionOf, ToCoord,
// PhysicalPosition and SequentialSpan are the old member functions verbatim,
// over the old nested per-track arrays rebuilt from a geometry's public
// accessors. The locate model's PlanLocate, LocateSeconds, ExplainLocate and
// ScanTargetPhysical follow verbatim on top of them. Nothing outside the
// tests uses this file.
#ifndef SERPENTINE_TESTS_GEOMETRY_DECODE_REFERENCE_H_
#define SERPENTINE_TESTS_GEOMETRY_DECODE_REFERENCE_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "serpentine/tape/geometry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/tape/types.h"
#include "serpentine/util/check.h"

namespace serpentine::tape::reference {

/// A geometry in the old layout: one heap vector per track for section
/// lengths, boundaries and key points, searched with std::upper_bound.
class NestedGeometry {
 public:
  explicit NestedGeometry(const TapeGeometry& g)
      : params_(g.params()), total_segments_(g.total_segments()) {
    const int tracks = params_.num_tracks;
    const int sections = params_.sections_per_track;
    track_start_.resize(tracks + 1);
    sec_len_.resize(tracks);
    boundary_.resize(tracks);
    key_segment_.resize(tracks);
    for (int t = 0; t <= tracks; ++t) track_start_[t] = g.track_start(t);
    for (int t = 0; t < tracks; ++t) {
      for (int s = 0; s < sections; ++s) {
        sec_len_[t].push_back(g.section_segments(t, s));
        key_segment_[t].push_back(g.KeyPointSegment(t, s));
      }
      for (int s = 0; s <= sections; ++s) {
        boundary_[t].push_back(g.section_boundary(t, s));
      }
    }
  }

  bool IsForwardTrack(int track) const { return track % 2 == 0; }

  int PhysicalSection(int track, int reading_section) const {
    return IsForwardTrack(track)
               ? reading_section
               : params_.sections_per_track - 1 - reading_section;
  }

  int TrackOf(SegmentId seg) const {
    SERPENTINE_CHECK_GE(seg, 0);
    SERPENTINE_CHECK_LT(seg, total_segments_);
    auto it = std::upper_bound(track_start_.begin(), track_start_.end(), seg);
    return static_cast<int>(it - track_start_.begin()) - 1;
  }

  int ReadingSectionOf(SegmentId seg) const {
    int t = TrackOf(seg);
    const auto& ks = key_segment_[t];
    auto it = std::upper_bound(ks.begin(), ks.end(), seg);
    return static_cast<int>(it - ks.begin()) - 1;
  }

  Coord ToCoord(SegmentId seg) const {
    int t = TrackOf(seg);
    const auto& ks = key_segment_[t];
    auto it = std::upper_bound(ks.begin(), ks.end(), seg);
    int r = static_cast<int>(it - ks.begin()) - 1;
    int p = PhysicalSection(t, r);
    int64_t offset = seg - ks[r];
    int len = sec_len_[t][p];
    SERPENTINE_CHECK_LT(offset, len);
    Coord c;
    c.track = t;
    c.physical_section = p;
    c.index = IsForwardTrack(t) ? static_cast<int>(offset)
                                : len - 1 - static_cast<int>(offset);
    return c;
  }

  PhysicalPos KeyPointPhysical(int track, int reading_section) const {
    int p = PhysicalSection(track, reading_section);
    return IsForwardTrack(track) ? boundary_[track][p]
                                 : boundary_[track][p + 1];
  }

  PhysicalPos PhysicalPosition(SegmentId seg) const {
    Coord c = ToCoord(seg);
    double lo = boundary_[c.track][c.physical_section];
    double hi = boundary_[c.track][c.physical_section + 1];
    int len = sec_len_[c.track][c.physical_section];
    // The head sits at the reading edge of the segment's slot: the low edge
    // on forward tracks, the high edge on reverse tracks.
    double frac = IsForwardTrack(c.track)
                      ? static_cast<double>(c.index) / len
                      : static_cast<double>(c.index + 1) / len;
    return lo + frac * (hi - lo);
  }

  TapeGeometry::ReadSpan SequentialSpan(SegmentId from, SegmentId to) const {
    SERPENTINE_CHECK_LE(from, to);
    TapeGeometry::ReadSpan span;
    int t0 = TrackOf(from);
    int t1 = TrackOf(to);
    span.track_switches = t1 - t0;
    for (int t = t0; t <= t1; ++t) {
      SegmentId a = std::max(from, track_start_[t]);
      SegmentId b = std::min(to, track_start_[t + 1] - 1);
      double start = PhysicalPosition(a);
      double end;
      if (b + 1 < track_start_[t + 1]) {
        end = PhysicalPosition(b + 1);
      } else {
        // Reading runs to the end of the track: the far physical edge on
        // forward tracks, BOT on reverse tracks.
        end = IsForwardTrack(t) ? params_.physical_sections : 0.0;
      }
      span.physical_distance += std::abs(end - start);
    }
    return span;
  }

 private:
  TapeParams params_;
  SegmentId total_segments_ = 0;
  std::vector<SegmentId> track_start_;
  std::vector<std::vector<int>> sec_len_;
  std::vector<std::vector<PhysicalPos>> boundary_;
  std::vector<std::vector<SegmentId>> key_segment_;
};

/// Dlt4000LocateModel's locate arithmetic over a NestedGeometry.
class NestedLocateModel {
 public:
  NestedLocateModel(const TapeGeometry& g, DriveTimings timings)
      : geometry_(g), timings_(timings) {}

  const NestedGeometry& geometry() const { return geometry_; }

  double LocateSeconds(SegmentId src, SegmentId dst) const {
    if (src == dst) return 0.0;
    Plan plan = PlanLocate(src, dst);
    double t = plan.read_distance * timings_.read_seconds_per_section;
    if (plan.locate_case == LocateCase::kReadForward) return t;
    t += timings_.scan_overhead_seconds +
         plan.scan_distance * timings_.scan_seconds_per_section;
    if (plan.track_change) t += timings_.track_switch_seconds;
    if (plan.reversal) t += timings_.reversal_penalty_seconds;
    return t;
  }

  Dlt4000LocateModel::LocateBreakdown ExplainLocate(SegmentId src,
                                                    SegmentId dst) const {
    Dlt4000LocateModel::LocateBreakdown out;
    if (src == dst) return out;
    Plan plan = PlanLocate(src, dst);
    out.locate_case = plan.locate_case;
    out.scan_distance_sections = plan.scan_distance;
    out.read_distance_sections = plan.read_distance;
    out.track_change = plan.track_change;
    out.reversal = plan.reversal;
    out.read_seconds = plan.read_distance * timings_.read_seconds_per_section;
    if (plan.locate_case != LocateCase::kReadForward) {
      out.scan_seconds =
          timings_.scan_overhead_seconds +
          plan.scan_distance * timings_.scan_seconds_per_section +
          (plan.track_change ? timings_.track_switch_seconds : 0.0) +
          (plan.reversal ? timings_.reversal_penalty_seconds : 0.0);
    }
    out.total_seconds = out.scan_seconds + out.read_seconds;
    return out;
  }

  double ReadSeconds(SegmentId from, SegmentId to) const {
    TapeGeometry::ReadSpan span = geometry_.SequentialSpan(from, to);
    return span.physical_distance * timings_.read_seconds_per_section +
           span.track_switches * timings_.track_switch_seconds;
  }

  PhysicalPos ScanTargetPhysical(SegmentId src, SegmentId dst) const {
    if (src == dst) return geometry_.PhysicalPosition(dst);
    Plan plan = PlanLocate(src, dst);
    if (plan.locate_case == LocateCase::kReadForward) {
      return geometry_.PhysicalPosition(dst);
    }
    int track_d = geometry_.TrackOf(dst);
    int r_kp = std::max(0, geometry_.ReadingSectionOf(dst) - 1);
    return geometry_.KeyPointPhysical(track_d, r_kp);
  }

 private:
  struct Plan {
    LocateCase locate_case;
    double scan_distance;
    bool track_change;
    bool reversal;
    double read_distance;
  };

  Plan PlanLocate(SegmentId src, SegmentId dst) const {
    Plan plan{};
    const NestedGeometry& g = geometry_;
    int track_s = g.TrackOf(src);
    int track_d = g.TrackOf(dst);
    int r_s = g.ReadingSectionOf(src);
    int r_d = g.ReadingSectionOf(dst);
    double p_s = g.PhysicalPosition(src);
    double p_d = g.PhysicalPosition(dst);

    if (track_s == track_d && dst >= src && r_d <= r_s + 2) {
      plan.locate_case = LocateCase::kReadForward;
      plan.read_distance = std::abs(p_d - p_s);
      return plan;
    }

    bool to_track_start = r_d <= 1;
    int r_kp = std::max(0, r_d - 1);
    double p_kp = g.KeyPointPhysical(track_d, r_kp);

    plan.scan_distance = std::abs(p_kp - p_s);
    plan.track_change = track_s != track_d;
    int src_dir = g.IsForwardTrack(track_s) ? +1 : -1;
    int scan_dir = p_kp > p_s ? +1 : (p_kp < p_s ? -1 : src_dir);
    plan.reversal = plan.scan_distance > 0.0 && scan_dir != src_dir;
    plan.read_distance = std::abs(p_d - p_kp);

    bool co_directional =
        g.IsForwardTrack(track_s) == g.IsForwardTrack(track_d);
    int dst_dir = g.IsForwardTrack(track_d) ? +1 : -1;
    bool scan_forward = plan.scan_distance == 0.0 || scan_dir == dst_dir;
    if (to_track_start) {
      plan.locate_case = co_directional
                             ? LocateCase::kTrackStartCoDirectional
                             : LocateCase::kTrackStartAntiDirectional;
    } else if (co_directional) {
      plan.locate_case = scan_forward
                             ? LocateCase::kScanForwardCoDirectional
                             : LocateCase::kScanBackwardCoDirectional;
    } else {
      plan.locate_case = scan_forward
                             ? LocateCase::kScanForwardAntiDirectional
                             : LocateCase::kScanBackwardAntiDirectional;
    }
    return plan;
  }

  NestedGeometry geometry_;
  DriveTimings timings_;
};

}  // namespace serpentine::tape::reference

#endif  // SERPENTINE_TESTS_GEOMETRY_DECODE_REFERENCE_H_
