// TapeGeometry: the complete logical↔physical map of one serpentine
// cartridge — per-track section lengths, physical section boundaries, and
// the key points that parameterize the locate-time model (paper §3).
#ifndef SERPENTINE_TAPE_GEOMETRY_H_
#define SERPENTINE_TAPE_GEOMETRY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serpentine/tape/params.h"
#include "serpentine/tape/types.h"
#include "serpentine/util/check.h"
#include "serpentine/util/statusor.h"

namespace serpentine::tape {

/// Immutable geometry of a single tape.
///
/// Each cartridge is generated from a seed: section segment counts and
/// physical boundaries receive bounded per-tape jitter, reproducing the
/// paper's observation that "tracks have differing lengths" and that key
/// points must be measured per tape (which is what makes the wrong-key-
/// points sensitivity experiment, paper §7 / Fig 9, meaningful).
class TapeGeometry {
 public:
  /// Builds the geometry of cartridge `seed` in the given family. Equal
  /// (params, seed) pairs produce identical geometry.
  static TapeGeometry Generate(const TapeParams& params, int32_t seed);

  /// Builds a geometry from measured key points (the output of
  /// CalibrateKeyPoints): `key_segments[t][r]` is the segment number of
  /// reading-order key point r of track t, and `total_segments` is the
  /// cartridge capacity. Physical section boundaries are taken as nominal
  /// (timing probes cannot observe them directly; their jitter is a small
  /// fraction of a section). Fails if the key points are not strictly
  /// increasing, imply an empty section, or imply a section of more than
  /// INT_MAX segments.
  static serpentine::StatusOr<TapeGeometry> FromKeyPoints(
      const TapeParams& params,
      const std::vector<std::vector<SegmentId>>& key_segments,
      SegmentId total_segments);

  const TapeParams& params() const { return params_; }
  int num_tracks() const { return params_.num_tracks; }
  int sections_per_track() const { return params_.sections_per_track; }

  /// Total segments on the tape (the paper's tape held 622,102).
  SegmentId total_segments() const { return total_segments_; }

  /// Logical segment number of the first segment of track `t`.
  SegmentId track_start(int track) const {
    return key_segment_[static_cast<size_t>(track) * sections_per_track()];
  }

  /// Segments on track `t`.
  int64_t track_segments(int track) const {
    return track_start(track + 1) - track_start(track);
  }

  /// True for even tracks, which read toward the physical end of tape.
  bool IsForwardTrack(int track) const { return track % 2 == 0; }

  /// Everything the locate model reads about one segment, found at once.
  struct Decoded {
    int track = 0;
    int reading_section = 0;
    int physical_section = 0;
    /// Coord::index: the segment's slot within its physical section.
    int index = 0;
    /// PhysicalPosition: where the head sits to begin reading it.
    PhysicalPos position = 0.0;
  };
  /// Decodes `seg` in O(1): its bucket names the first section overlapping
  /// the bucket, and a short forward step finds the segment's own.
  Decoded Decode(SegmentId seg) const;

  /// Track containing `seg`.
  int TrackOf(SegmentId seg) const { return Decode(seg).track; }

  /// Full physical coordinate of `seg`.
  Coord ToCoord(SegmentId seg) const {
    const Decoded d = Decode(seg);
    return Coord{d.track, d.physical_section, d.index};
  }

  /// Inverse of ToCoord.
  SegmentId ToSegment(const Coord& c) const;

  /// Segments in (track, physical_section).
  int section_segments(int track, int physical_section) const {
    const size_t i = Section(track, ReadingSection(track, physical_section));
    return static_cast<int>(key_segment_[i + 1] - key_segment_[i]);
  }

  /// Physical position of the boundary below (track, physical_section);
  /// boundary(t, 0) == 0 and boundary(t, sections_per_track) == tape end.
  PhysicalPos section_boundary(int track, int physical_section) const {
    return boundary_[static_cast<size_t>(track) *
                         (sections_per_track() + 1) +
                     physical_section];
  }

  /// Reading-order index of a physical section on `track` (identity on
  /// forward tracks, 13 - physical on reverse tracks).
  int ReadingSection(int track, int physical_section) const {
    return IsForwardTrack(track)
               ? physical_section
               : params_.sections_per_track - 1 - physical_section;
  }

  /// Physical section holding reading-order section `r` of `track`.
  int PhysicalSection(int track, int reading_section) const {
    return ReadingSection(track, reading_section);  // involution
  }

  /// Reading-order section index containing `seg`.
  int ReadingSectionOf(SegmentId seg) const {
    return Decode(seg).reading_section;
  }

  /// Key point k_r of `track`: the logical segment number of the first
  /// segment (in reading order) of reading-order section `r`. k_0 is the
  /// beginning of the track; k_1..k_13 are the paper's 13 dips.
  SegmentId KeyPointSegment(int track, int reading_section) const {
    return key_segment_[Section(track, reading_section)];
  }

  /// Physical position of the head when located at key point k_r.
  PhysicalPos KeyPointPhysical(int track, int reading_section) const {
    const int p = PhysicalSection(track, reading_section);
    return IsForwardTrack(track) ? section_boundary(track, p)
                                 : section_boundary(track, p + 1);
  }

  /// Physical position of the head when positioned to begin reading `seg`.
  PhysicalPos PhysicalPosition(SegmentId seg) const {
    return Decode(seg).position;
  }

  /// Physical distance (section units) the head sweeps while reading from
  /// segment `from` through segment `to` inclusive, plus the number of
  /// track switches incurred. Requires from <= to.
  struct ReadSpan {
    double physical_distance = 0.0;
    int track_switches = 0;
  };
  ReadSpan SequentialSpan(SegmentId from, SegmentId to) const;

  /// All key points of the tape as (track, reading_section, segment) —
  /// the data a scheduler's model is parameterized by. Ordered by track
  /// then reading section.
  struct KeyPoint {
    int track;
    int reading_section;
    SegmentId segment;
    PhysicalPos physical;
  };
  std::vector<KeyPoint> AllKeyPoints() const;

  /// Buckets in the decode index: never more than there are sections.
  int decode_buckets() const { return static_cast<int>(bucket_.size()); }

 private:
  TapeGeometry() = default;

  /// Global reading-order index of (track, reading_section).
  size_t Section(int track, int reading_section) const {
    return static_cast<size_t>(track) * params_.sections_per_track +
           reading_section;
  }

  /// Builds bucket_ over key_segment_.
  void BuildDecodeIndex();

  TapeParams params_;
  SegmentId total_segments_ = 0;
  // Every array is flat. key_segment_[t·S + r]: logical segment at the
  // start of reading-order section r of track t, then total_segments_ as
  // entry T·S; strictly increasing, so track t starts at entry t·S and
  // section i holds key_segment_[i + 1] - key_segment_[i] segments.
  std::vector<SegmentId> key_segment_;
  // boundary_[t·(S+1) + s] for s in [0, S]: physical boundary positions.
  std::vector<PhysicalPos> boundary_;
  // bucket_[b]: the section holding segment b << bucket_shift_, the first
  // section overlapping bucket b. The shift is the smallest that keeps the
  // bucket count at or below the section count.
  std::vector<int> bucket_;
  int bucket_shift_ = 0;
};

inline TapeGeometry::Decoded TapeGeometry::Decode(SegmentId seg) const {
  SERPENTINE_CHECK_GE(seg, 0);
  SERPENTINE_CHECK_LT(seg, total_segments_);
  int i = bucket_[static_cast<size_t>(seg >> bucket_shift_)];
  while (key_segment_[i + 1] <= seg) ++i;
  const int sections = params_.sections_per_track;
  Decoded d;
  d.track = i / sections;
  d.reading_section = i - d.track * sections;
  const bool forward = IsForwardTrack(d.track);
  d.physical_section =
      forward ? d.reading_section : sections - 1 - d.reading_section;
  const int offset = static_cast<int>(seg - key_segment_[i]);
  const int len = static_cast<int>(key_segment_[i + 1] - key_segment_[i]);
  d.index = forward ? offset : len - 1 - offset;
  const PhysicalPos* edge =
      &boundary_[static_cast<size_t>(d.track) * (sections + 1) +
                 d.physical_section];
  const double lo = edge[0];
  const double hi = edge[1];
  // The head sits at the reading edge of the segment's slot: the low edge
  // on forward tracks, the high edge on reverse tracks.
  const double frac = forward ? static_cast<double>(d.index) / len
                              : static_cast<double>(d.index + 1) / len;
  d.position = lo + frac * (hi - lo);
  return d;
}

}  // namespace serpentine::tape

#endif  // SERPENTINE_TAPE_GEOMETRY_H_
