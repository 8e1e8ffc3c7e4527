// TapeGeometry::Decode and everything built on it against the binary-search
// decode it replaced (geometry_decode_reference.h): every field, the double
// position included, must match exactly on every segment of generated tapes
// of three families, a key-point round trip, a hand-built geometry of
// one-segment and very long sections, and the helical model's degenerate
// geometry; then SequentialSpan over short and multi-track spans, and the
// locate model's LocateSeconds, ExplainLocate and ScanTargetPhysical over
// random pairs.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geometry_decode_reference.h"
#include "serpentine/tape/geometry.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tape {
namespace {

std::vector<std::vector<SegmentId>> KeysOf(const TapeGeometry& g) {
  std::vector<std::vector<SegmentId>> keys(g.num_tracks());
  for (int t = 0; t < g.num_tracks(); ++t) {
    for (int r = 0; r < g.sections_per_track(); ++r) {
      keys[t].push_back(g.KeyPointSegment(t, r));
    }
  }
  return keys;
}

/// Compares one segment's decode; false after the first mismatch, so a
/// broken decode reports one segment instead of a million.
bool SameDecode(const TapeGeometry& g, const reference::NestedGeometry& ref,
                SegmentId seg, const std::string& label) {
  const TapeGeometry::Decoded d = g.Decode(seg);
  const Coord want = ref.ToCoord(seg);
  EXPECT_EQ(d.track, want.track) << label << " seg " << seg;
  EXPECT_EQ(d.reading_section, ref.ReadingSectionOf(seg))
      << label << " seg " << seg;
  EXPECT_EQ(d.physical_section, want.physical_section)
      << label << " seg " << seg;
  EXPECT_EQ(d.index, want.index) << label << " seg " << seg;
  EXPECT_EQ(d.position, ref.PhysicalPosition(seg)) << label << " seg " << seg;
  EXPECT_EQ(g.TrackOf(seg), ref.TrackOf(seg)) << label << " seg " << seg;
  EXPECT_EQ(g.ReadingSectionOf(seg), ref.ReadingSectionOf(seg))
      << label << " seg " << seg;
  EXPECT_EQ(g.ToCoord(seg), want) << label << " seg " << seg;
  EXPECT_EQ(g.PhysicalPosition(seg), ref.PhysicalPosition(seg))
      << label << " seg " << seg;
  return !::testing::Test::HasFailure();
}

void ExpectSameDecodeEverywhere(const TapeGeometry& g,
                                const std::string& label) {
  const reference::NestedGeometry ref(g);
  for (SegmentId seg = 0; seg < g.total_segments(); ++seg) {
    if (!SameDecode(g, ref, seg, label)) return;
  }
  EXPECT_LE(g.decode_buckets(), g.num_tracks() * g.sections_per_track())
      << label;
}

TEST(GeometryDecodeTest, GeneratedTapesOfEveryFamily) {
  for (int32_t seed = 1; seed <= 3; ++seed) {
    ExpectSameDecodeEverywhere(
        TapeGeometry::Generate(Dlt4000TapeParams(), seed),
        "dlt4000 seed " + std::to_string(seed));
  }
  ExpectSameDecodeEverywhere(TapeGeometry::Generate(Dlt7000TapeParams(), 4),
                             "dlt7000");
  ExpectSameDecodeEverywhere(TapeGeometry::Generate(Ibm3590TapeParams(), 5),
                             "ibm3590");
}

TEST(GeometryDecodeTest, KeyPointRoundTrip) {
  const TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 2);
  auto rebuilt = TapeGeometry::FromKeyPoints(Dlt4000TapeParams(),
                                             KeysOf(truth),
                                             truth.total_segments());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ExpectSameDecodeEverywhere(*rebuilt, "from key points");
}

TEST(GeometryDecodeTest, HelicalDegenerateGeometry) {
  HelicalLocateModel helical(622102);
  ExpectSameDecodeEverywhere(helical.geometry(), "helical");
}

/// Three tracks of five sections: runs of one-segment sections beside
/// sections of 60,000 and 40,000 segments and two of a few hundred, so
/// buckets are far wider than most sections and the forward step crosses
/// several of them.
TapeGeometry HandBuilt() {
  TapeParams params;
  params.num_tracks = 3;
  params.sections_per_track = 5;
  const std::vector<int> lengths = {1, 1, 1, 60000, 1, 117, 1, 1,
                                    2,  250, 1, 1, 1, 1, 40000};
  std::vector<std::vector<SegmentId>> keys(3);
  SegmentId at = 0;
  for (int i = 0; i < 15; ++i) {
    keys[i / 5].push_back(at);
    at += lengths[i];
  }
  auto g = TapeGeometry::FromKeyPoints(params, keys, at);
  SERPENTINE_CHECK(g.ok());
  return std::move(*g);
}

TEST(GeometryDecodeTest, HandBuiltShortAndLongSections) {
  const TapeGeometry g = HandBuilt();
  ExpectSameDecodeEverywhere(g, "hand-built");
  EXPECT_LE(g.decode_buckets(), 15);
}

TEST(GeometryDecodeTest, IndexStaysWithinTheSectionCountForHugeSections) {
  // Sections of up to INT_MAX segments: too many to visit, so only every
  // section's first, second and last segments are compared.
  TapeParams params;
  params.num_tracks = 2;
  params.sections_per_track = 4;
  const std::vector<SegmentId> lengths = {1, 2147483647, 1, 3,
                                          5, 1,          2147483647, 1};
  std::vector<std::vector<SegmentId>> keys(2);
  SegmentId at = 0;
  for (int i = 0; i < 8; ++i) {
    keys[i / 4].push_back(at);
    at += lengths[i];
  }
  auto g = TapeGeometry::FromKeyPoints(params, keys, at);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_LE(g->decode_buckets(), 8);
  const reference::NestedGeometry ref(*g);
  for (const auto& row : keys) {
    for (SegmentId key : row) {
      for (SegmentId seg : {key - 1, key, key + 1}) {
        if (seg < 0 || seg >= g->total_segments()) continue;
        if (!SameDecode(*g, ref, seg, "huge")) return;
      }
    }
  }
  ASSERT_TRUE(SameDecode(*g, ref, g->total_segments() - 1, "huge"));
}

class DecodeModelTest : public ::testing::Test {
 protected:
  struct Family {
    const char* name;
    TapeParams params;
    DriveTimings timings;
  };
  std::vector<Family> Families() const {
    return {{"dlt4000", Dlt4000TapeParams(), Dlt4000Timings()},
            {"dlt7000", Dlt7000TapeParams(), Dlt7000Timings()},
            {"ibm3590", Ibm3590TapeParams(), Ibm3590Timings()}};
  }
};

TEST_F(DecodeModelTest, SequentialSpanOverShortAndMultiTrackSpans) {
  for (const Family& f : Families()) {
    const TapeGeometry g = TapeGeometry::Generate(f.params, 6);
    const Dlt4000LocateModel model(g, f.timings);
    const reference::NestedLocateModel ref(g, f.timings);
    const SegmentId total = g.total_segments();
    Lrand48 rng(17);
    std::vector<std::pair<SegmentId, SegmentId>> spans = {
        {0, 0}, {0, total - 1}, {total - 1, total - 1}};
    for (int t = 1; t < g.num_tracks(); ++t) {
      // Spans that end on, start on, and straddle a track boundary.
      const SegmentId start = g.track_start(t);
      spans.push_back({start - 1, start - 1});
      spans.push_back({start - 5, start});
      spans.push_back({start, start + 3});
      spans.push_back({start - 2, start + 700});
    }
    for (int i = 0; i < 20000; ++i) {
      const SegmentId from = rng.NextBounded(total);
      const SegmentId reach = i % 4 == 0 ? 40000 : 64;
      const SegmentId to = from + rng.NextBounded(reach);
      spans.push_back({from, std::min<SegmentId>(total - 1, to)});
    }
    for (int i = 0; i < 500; ++i) {
      SegmentId a = rng.NextBounded(total);
      SegmentId b = rng.NextBounded(total);
      spans.push_back({std::min(a, b), std::max(a, b)});
    }
    for (const auto& [from, to] : spans) {
      const TapeGeometry::ReadSpan got = g.SequentialSpan(from, to);
      const TapeGeometry::ReadSpan want =
          ref.geometry().SequentialSpan(from, to);
      EXPECT_EQ(got.physical_distance, want.physical_distance)
          << f.name << " " << from << ".." << to;
      EXPECT_EQ(got.track_switches, want.track_switches)
          << f.name << " " << from << ".." << to;
      EXPECT_EQ(model.ReadSeconds(from, to), ref.ReadSeconds(from, to))
          << f.name << " " << from << ".." << to;
      if (HasFailure()) return;
    }
  }
}

TEST_F(DecodeModelTest, LocateExplainAndScanTargetOverRandomPairs) {
  for (const Family& f : Families()) {
    const TapeGeometry g = TapeGeometry::Generate(f.params, 8);
    const Dlt4000LocateModel model(g, f.timings);
    const reference::NestedLocateModel ref(g, f.timings);
    const SegmentId total = g.total_segments();
    Lrand48 rng(23);
    for (int i = 0; i < 60000; ++i) {
      const SegmentId src = rng.NextBounded(total);
      // A third of the pairs land near the source, where case 1 (read
      // forward) and the key-point clamp decide the answer.
      SegmentId dst = rng.NextBounded(total);
      if (i % 3 == 0) {
        dst = std::clamp<SegmentId>(src + rng.NextBounded(3000) - 500, 0,
                                    total - 1);
      }
      if (i % 1000 == 0) dst = src;
      const std::string label = std::string(f.name) + " " +
                                std::to_string(src) + "->" +
                                std::to_string(dst);
      EXPECT_EQ(model.LocateSeconds(src, dst), ref.LocateSeconds(src, dst))
          << label;
      EXPECT_EQ(model.ScanTargetPhysical(src, dst),
                ref.ScanTargetPhysical(src, dst))
          << label;
      const auto got = model.ExplainLocate(src, dst);
      const auto want = ref.ExplainLocate(src, dst);
      EXPECT_EQ(got.locate_case, want.locate_case) << label;
      EXPECT_EQ(got.scan_seconds, want.scan_seconds) << label;
      EXPECT_EQ(got.read_seconds, want.read_seconds) << label;
      EXPECT_EQ(got.total_seconds, want.total_seconds) << label;
      EXPECT_EQ(got.scan_distance_sections, want.scan_distance_sections)
          << label;
      EXPECT_EQ(got.read_distance_sections, want.read_distance_sections)
          << label;
      EXPECT_EQ(got.track_change, want.track_change) << label;
      EXPECT_EQ(got.reversal, want.reversal) << label;
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace serpentine::tape
