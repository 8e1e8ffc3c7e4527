#include "serpentine/tape/locate_model.h"

#include <algorithm>
#include <cmath>

#include "serpentine/util/check.h"

namespace serpentine::tape {

const char* LocateCaseName(LocateCase c) {
  switch (c) {
    case LocateCase::kReadForward:
      return "read-forward";
    case LocateCase::kScanForwardCoDirectional:
      return "scan-fwd-codir";
    case LocateCase::kScanBackwardCoDirectional:
      return "scan-back-codir";
    case LocateCase::kTrackStartCoDirectional:
      return "track-start-codir";
    case LocateCase::kScanForwardAntiDirectional:
      return "scan-fwd-antidir";
    case LocateCase::kScanBackwardAntiDirectional:
      return "scan-back-antidir";
    case LocateCase::kTrackStartAntiDirectional:
      return "track-start-antidir";
  }
  return "unknown";
}

Dlt4000LocateModel::Dlt4000LocateModel(TapeGeometry geometry,
                                       DriveTimings timings)
    : geometry_(std::move(geometry)), timings_(timings) {}

Dlt4000LocateModel::Plan Dlt4000LocateModel::PlanLocate(SegmentId src,
                                                        SegmentId dst) const {
  Plan plan{};
  const Endpoint s = EndpointOf(src);
  const Endpoint d = EndpointOf(dst);
  if (ReadsForward(s, d)) {
    plan.locate_case = LocateCase::kReadForward;
    plan.read_distance = std::abs(d.position - s.position);
    plan.scan_target = d.position;
    return plan;
  }

  plan.scan_target = d.key_point;
  plan.scan_distance = std::abs(d.key_point - s.position);
  plan.track_change = s.track != d.track;
  // The transport was last moving in the source track's reading direction;
  // a scan leg against it needs a direction reversal.
  int src_dir = s.forward ? +1 : -1;
  int scan_dir = d.key_point > s.position   ? +1
                 : d.key_point < s.position ? -1
                                            : src_dir;
  plan.reversal = plan.scan_distance > 0.0 && scan_dir != src_dir;
  plan.read_distance = std::abs(d.position - d.key_point);

  bool co_directional = s.forward == d.forward;
  // "Forward" in the paper's case statements is relative to the destination
  // track's reading direction.
  int dst_dir = d.forward ? +1 : -1;
  bool scan_forward = plan.scan_distance == 0.0 || scan_dir == dst_dir;
  // A destination in the first two reading sections scans to the
  // beginning of its track (EndpointOf's clamp).
  if (d.reading_section <= 1) {
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

double Dlt4000LocateModel::LocateSeconds(SegmentId src, SegmentId dst) const {
  return SecondsBetween(EndpointOf(src), EndpointOf(dst));
}

LocateCase Dlt4000LocateModel::Classify(SegmentId src, SegmentId dst) const {
  if (src == dst) return LocateCase::kReadForward;
  return PlanLocate(src, dst).locate_case;
}

Dlt4000LocateModel::LocateBreakdown Dlt4000LocateModel::ExplainLocate(
    SegmentId src, SegmentId dst) const {
  LocateBreakdown out;
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

double Dlt4000LocateModel::ReadSeconds(SegmentId from, SegmentId to) const {
  TapeGeometry::ReadSpan span = geometry_.SequentialSpan(from, to);
  return span.physical_distance * timings_.read_seconds_per_section +
         span.track_switches * timings_.track_switch_seconds;
}

double Dlt4000LocateModel::RewindSeconds(SegmentId from) const {
  return timings_.rewind_overhead_seconds +
         geometry_.PhysicalPosition(from) * timings_.scan_seconds_per_section;
}

PhysicalPos Dlt4000LocateModel::ScanTargetPhysical(SegmentId src,
                                                   SegmentId dst) const {
  if (src == dst) return geometry_.PhysicalPosition(dst);
  return PlanLocate(src, dst).scan_target;
}

double Dlt4000LocateModel::TransferSeconds(int64_t bytes) const {
  return static_cast<double>(bytes) /
         (timings_.megabytes_per_second * 1024.0 * 1024.0);
}

double LocateModel::FullReadAndRewindSeconds() const {
  SegmentId last = geometry().total_segments() - 1;
  return ReadSeconds(0, last) + RewindSeconds(last);
}

namespace {

TapeGeometry MakeDegenerateGeometry(SegmentId total_segments) {
  TapeParams p;
  p.num_tracks = 1;
  p.sections_per_track = 14;
  // Split the capacity evenly across sections (remainder discarded: the
  // helical model only needs total_segments to be approximately right).
  int per_section =
      static_cast<int>(std::max<SegmentId>(64, total_segments / 14));
  p.nominal_section_segments = per_section;
  p.short_section_segments = per_section;
  p.section_segment_jitter = 0;
  p.boundary_jitter = 0.0;
  return TapeGeometry::Generate(p, /*seed=*/0);
}

}  // namespace

HelicalLocateModel::HelicalLocateModel(SegmentId total_segments,
                                       double overhead_seconds,
                                       double seconds_per_segment,
                                       double transfer_seconds_per_segment)
    : overhead_seconds_(overhead_seconds),
      seconds_per_segment_(seconds_per_segment),
      transfer_seconds_per_segment_(transfer_seconds_per_segment),
      geometry_(MakeDegenerateGeometry(total_segments)) {}

double HelicalLocateModel::LocateSeconds(SegmentId src, SegmentId dst) const {
  if (src == dst) return 0.0;
  return overhead_seconds_ +
         seconds_per_segment_ * static_cast<double>(std::llabs(dst - src));
}

double HelicalLocateModel::ReadSeconds(SegmentId from, SegmentId to) const {
  SERPENTINE_CHECK_LE(from, to);
  return transfer_seconds_per_segment_ * static_cast<double>(to - from + 1);
}

double HelicalLocateModel::RewindSeconds(SegmentId from) const {
  return overhead_seconds_ +
         seconds_per_segment_ * static_cast<double>(from);
}

}  // namespace serpentine::tape
