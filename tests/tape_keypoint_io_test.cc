#include "serpentine/tape/keypoint_io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "serpentine/tape/calibration.h"
#include "serpentine/tape/geometry.h"
#include "serpentine/tape/locate_model.h"

namespace serpentine::tape {
namespace {

std::vector<std::vector<SegmentId>> KeysOf(const TapeGeometry& g) {
  std::vector<std::vector<SegmentId>> keys(g.num_tracks());
  for (int t = 0; t < g.num_tracks(); ++t)
    for (int r = 0; r < g.sections_per_track(); ++r)
      keys[t].push_back(g.KeyPointSegment(t, r));
  return keys;
}

TEST(KeyPointIoTest, SerializeParseRoundTrip) {
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 3);
  auto keys = KeysOf(g);
  std::string text = SerializeKeyPoints(keys, g.total_segments());
  auto parsed = ParseKeyPoints(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->total_segments, g.total_segments());
  EXPECT_EQ(parsed->key_segments, keys);
}

TEST(KeyPointIoTest, FormatIsStable) {
  std::vector<std::vector<SegmentId>> keys = {{0, 10, 20}, {30, 45, 60}};
  std::string text = SerializeKeyPoints(keys, 90);
  EXPECT_EQ(text,
            "serpentine-keypoints v1\n"
            "tracks 2 sections 3 total 90\n"
            "0 10 20\n"
            "30 45 60\n");
}

TEST(KeyPointIoTest, RejectsBadInput) {
  EXPECT_FALSE(ParseKeyPoints("").ok());
  EXPECT_FALSE(ParseKeyPoints("wrong-magic\n").ok());
  EXPECT_FALSE(ParseKeyPoints("serpentine-keypoints v1\n"
                              "tracks 2 sections 3 total 90\n"
                              "0 10 20\n")  // truncated
                   .ok());
  EXPECT_FALSE(ParseKeyPoints("serpentine-keypoints v1\n"
                              "tracks 1 sections 3 total 90\n"
                              "0 20 10\n")  // non-increasing
                   .ok());
  EXPECT_FALSE(ParseKeyPoints("serpentine-keypoints v1\n"
                              "tracks 0 sections 3 total 90\n")
                   .ok());
  EXPECT_FALSE(ParseKeyPoints("serpentine-keypoints v1\n"
                              "sections 3 tracks 2 total 90\n")
                   .ok());
}

TEST(KeyPointIoTest, RejectsDimensionsTheDataCannotHold) {
  // A header of 10^11 tracks used to be resized to before any key point
  // was read, and the process died of std::bad_alloc.
  auto parsed = ParseKeyPoints("serpentine-keypoints v1\n"
                               "tracks 100000000000 sections 14 total 90\n"
                               "0 10 20\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("100000000000 tracks"),
            std::string::npos)
      << parsed.status().ToString();

  parsed = ParseKeyPoints("serpentine-keypoints v1\n"
                          "tracks 1 sections 4000000000 total 90\n"
                          "0 10 20\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("4000000000 sections"),
            std::string::npos)
      << parsed.status().ToString();
}

TEST(KeyPointIoTest, SaveAndLoadFile) {
  TapeGeometry g = TapeGeometry::Generate(Dlt4000TapeParams(), 5);
  auto keys = KeysOf(g);
  std::string path = ::testing::TempDir() + "/keypoints_test.txt";
  ASSERT_TRUE(SaveKeyPoints(path, keys, g.total_segments()).ok());
  auto loaded = LoadKeyPoints(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->key_segments, keys);
  EXPECT_EQ(loaded->total_segments, g.total_segments());
  std::remove(path.c_str());
}

TEST(KeyPointIoTest, LoadMissingFileIsNotFound) {
  auto loaded = LoadKeyPoints("/nonexistent/path/keypoints.txt");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(KeyPointIoTest, CalibrateSaveLoadBuildModel) {
  // The production loop: calibrate a cartridge, persist its key points,
  // reload them later, and build a scheduling model.
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 7);
  Dlt4000LocateModel drive(truth, Dlt4000Timings());
  auto calibrated = CalibrateKeyPoints(drive, truth);
  ASSERT_TRUE(calibrated.ok());

  std::string path = ::testing::TempDir() + "/calibrated_keypoints.txt";
  ASSERT_TRUE(SaveKeyPoints(path, calibrated->key_segments,
                            truth.total_segments())
                  .ok());
  auto loaded = LoadKeyPoints(path);
  ASSERT_TRUE(loaded.ok());
  auto geometry = TapeGeometry::FromKeyPoints(
      Dlt4000TapeParams(), loaded->key_segments, loaded->total_segments);
  ASSERT_TRUE(geometry.ok());
  Dlt4000LocateModel model(*geometry, Dlt4000Timings());
  // Spot-check the reloaded model tracks the drive.
  EXPECT_NEAR(model.LocateSeconds(0, 400000),
              drive.LocateSeconds(0, 400000), 2.5);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serpentine::tape
