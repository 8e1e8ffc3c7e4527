#include "serpentine/tape/geometry.h"

#include <cmath>
#include <limits>
#include <string>

#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tape {

TapeGeometry TapeGeometry::Generate(const TapeParams& params, int32_t seed) {
  SERPENTINE_CHECK_GT(params.num_tracks, 0);
  SERPENTINE_CHECK_GT(params.sections_per_track, 1);
  SERPENTINE_CHECK_GT(params.nominal_section_segments,
                      2 * params.section_segment_jitter);
  SERPENTINE_CHECK_GT(params.short_section_segments,
                      2 * params.section_segment_jitter);

  TapeGeometry g;
  g.params_ = params;
  Lrand48 rng(seed);

  const int tracks = params.num_tracks;
  const int sections = params.sections_per_track;
  const double nominal_width = params.physical_sections / sections;

  g.key_segment_.resize(static_cast<size_t>(tracks) * sections + 1);
  g.boundary_.resize(static_cast<size_t>(tracks) * (sections + 1));

  SegmentId next = 0;
  for (int t = 0; t < tracks; ++t) {
    // Section lengths are drawn in physical order and parked in the key
    // point slots of their reading-order sections (on reverse tracks,
    // reading order visits physical sections high-to-low) until the prefix
    // sum below turns them into key points.
    SegmentId* ks = &g.key_segment_[g.Section(t, 0)];
    for (int s = 0; s < sections; ++s) {
      int nominal = (s == sections - 1) ? params.short_section_segments
                                        : params.nominal_section_segments;
      int jitter = params.section_segment_jitter > 0
                       ? static_cast<int>(rng.NextBounded(
                             2 * params.section_segment_jitter + 1)) -
                             params.section_segment_jitter
                       : 0;
      ks[g.ReadingSection(t, s)] = nominal + jitter;
    }

    PhysicalPos* pb = &g.boundary_[static_cast<size_t>(t) * (sections + 1)];
    pb[0] = 0.0;
    pb[sections] = params.physical_sections;
    for (int s = 1; s < sections; ++s) {
      double jitter =
          (rng.NextDouble() * 2.0 - 1.0) * params.boundary_jitter;
      pb[s] = nominal_width * s + jitter;
    }
    // Jitter is small relative to the section width, but enforce strict
    // monotonicity anyway so downstream interpolation never divides by a
    // non-positive width.
    for (int s = 1; s <= sections; ++s)
      SERPENTINE_CHECK_LT(pb[s - 1], pb[s]);

    // Key points: cumulative reading-order section lengths.
    for (int r = 0; r < sections; ++r) {
      const SegmentId len = ks[r];
      ks[r] = next;
      next += len;
    }
  }
  g.key_segment_.back() = next;
  g.total_segments_ = next;
  g.BuildDecodeIndex();
  return g;
}

serpentine::StatusOr<TapeGeometry> TapeGeometry::FromKeyPoints(
    const TapeParams& params,
    const std::vector<std::vector<SegmentId>>& key_segments,
    SegmentId total_segments) {
  const int tracks = params.num_tracks;
  const int sections = params.sections_per_track;
  if (tracks <= 0 || sections <= 0) {
    return InvalidArgumentError("tracks and sections must be positive");
  }
  if (static_cast<int>(key_segments.size()) != tracks) {
    return InvalidArgumentError("expected one key-point row per track");
  }
  for (const auto& row : key_segments) {
    if (static_cast<int>(row.size()) != sections) {
      return InvalidArgumentError("expected one key point per section");
    }
  }
  if (key_segments[0][0] != 0) {
    return InvalidArgumentError("track 0 must start at segment 0");
  }

  TapeGeometry g;
  g.params_ = params;
  g.total_segments_ = total_segments;
  g.key_segment_.reserve(static_cast<size_t>(tracks) * sections + 1);
  for (const auto& row : key_segments) {
    g.key_segment_.insert(g.key_segment_.end(), row.begin(), row.end());
  }
  g.key_segment_.push_back(total_segments);
  for (size_t i = 0; i + 1 < g.key_segment_.size(); ++i) {
    // Decode holds a segment's offset within its section in an int.
    const int64_t section_len = g.key_segment_[i + 1] - g.key_segment_[i];
    if (section_len > 0 && section_len <= std::numeric_limits<int>::max()) {
      continue;
    }
    const std::string where = " (track " + std::to_string(i / sections) +
                              ", section " + std::to_string(i % sections) +
                              ")";
    if (section_len <= 0) {
      return InvalidArgumentError("key points must be strictly increasing" +
                                  where);
    }
    return InvalidArgumentError(
        "section of " + std::to_string(section_len) +
        " segments is longer than " +
        std::to_string(std::numeric_limits<int>::max()) + where);
  }

  const double nominal_width = params.physical_sections / sections;
  g.boundary_.resize(static_cast<size_t>(tracks) * (sections + 1));
  for (int t = 0; t < tracks; ++t) {
    for (int s = 0; s <= sections; ++s) {
      g.boundary_[static_cast<size_t>(t) * (sections + 1) + s] =
          nominal_width * s;
    }
  }
  g.BuildDecodeIndex();
  return g;
}

void TapeGeometry::BuildDecodeIndex() {
  const SegmentId sections = static_cast<SegmentId>(key_segment_.size()) - 1;
  SERPENTINE_CHECK_LE(sections, std::numeric_limits<int>::max());
  const SegmentId last = total_segments_ - 1;
  bucket_shift_ = 0;
  while ((last >> bucket_shift_) + 1 > sections) ++bucket_shift_;
  bucket_.resize(static_cast<size_t>((last >> bucket_shift_) + 1));
  int i = 0;
  for (size_t b = 0; b < bucket_.size(); ++b) {
    const SegmentId first = static_cast<SegmentId>(b) << bucket_shift_;
    while (key_segment_[i + 1] <= first) ++i;
    bucket_[b] = i;
  }
}

SegmentId TapeGeometry::ToSegment(const Coord& c) const {
  SERPENTINE_CHECK_GE(c.track, 0);
  SERPENTINE_CHECK_LT(c.track, params_.num_tracks);
  SERPENTINE_CHECK_GE(c.physical_section, 0);
  SERPENTINE_CHECK_LT(c.physical_section, params_.sections_per_track);
  int len = section_segments(c.track, c.physical_section);
  SERPENTINE_CHECK_GE(c.index, 0);
  SERPENTINE_CHECK_LT(c.index, len);
  int r = ReadingSection(c.track, c.physical_section);
  int64_t offset =
      IsForwardTrack(c.track) ? c.index : len - 1 - c.index;
  return KeyPointSegment(c.track, r) + offset;
}

TapeGeometry::ReadSpan TapeGeometry::SequentialSpan(SegmentId from,
                                                    SegmentId to) const {
  SERPENTINE_CHECK_LE(from, to);
  ReadSpan span;
  const Decoded first = Decode(from);
  const int t0 = first.track;
  const int t1 = to < track_start(t0 + 1) ? t0 : TrackOf(to);
  span.track_switches = t1 - t0;
  double start = first.position;
  for (int t = t0;; ++t) {
    double end;
    if (t == t1 && to + 1 < track_start(t + 1)) {
      end = PhysicalPosition(to + 1);
    } else {
      // Reading runs to the end of the track: the far physical edge on
      // forward tracks, BOT on reverse tracks.
      end = IsForwardTrack(t) ? params_.physical_sections : 0.0;
    }
    span.physical_distance += std::abs(end - start);
    if (t == t1) break;
    start = PhysicalPosition(track_start(t + 1));
  }
  return span;
}

std::vector<TapeGeometry::KeyPoint> TapeGeometry::AllKeyPoints() const {
  std::vector<KeyPoint> out;
  out.reserve(static_cast<size_t>(params_.num_tracks) *
              params_.sections_per_track);
  for (int t = 0; t < params_.num_tracks; ++t) {
    for (int r = 0; r < params_.sections_per_track; ++r) {
      out.push_back(KeyPoint{t, r, KeyPointSegment(t, r),
                             KeyPointPhysical(t, r)});
    }
  }
  return out;
}

}  // namespace serpentine::tape
