#include "serpentine/tape/calibration.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "serpentine/sim/physical_drive.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/stats.h"

namespace serpentine::tape {
namespace {

class CalibrationTest : public ::testing::Test {
 protected:
  CalibrationTest()
      : truth_(TapeGeometry::Generate(Dlt4000TapeParams(), 5)),
        ideal_(truth_, Dlt4000Timings()) {}

  TapeGeometry truth_;
  Dlt4000LocateModel ideal_;
};

TEST_F(CalibrationTest, RecoversKeyPointsFromNoiselessDrive) {
  auto result = CalibrateKeyPoints(ideal_, truth_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int exact = 0, near = 0, total = 0;
  for (int t = 0; t < truth_.num_tracks(); ++t) {
    for (int r = 2; r < truth_.sections_per_track(); ++r) {
      ++total;
      SegmentId got = result->key_segments[t][r];
      SegmentId want = truth_.KeyPointSegment(t, r);
      if (got == want) ++exact;
      if (std::llabs(got - want) <= 1) ++near;
    }
  }
  // Every timing-visible key point must be found exactly (no noise).
  EXPECT_EQ(exact, total);
  EXPECT_EQ(near, total);
}

TEST_F(CalibrationTest, ReconstructsInvisibleFirstDipApproximately) {
  auto result = CalibrateKeyPoints(ideal_, truth_);
  ASSERT_TRUE(result.ok());
  // k_1 is invisible to timing (both sides scan to the track start); it is
  // reconstructed from neighboring section lengths, good to the per-tape
  // jitter (~tens of segments out of ~704).
  for (int t = 0; t < truth_.num_tracks(); ++t) {
    EXPECT_NEAR(
        static_cast<double>(result->key_segments[t][1]),
        static_cast<double>(truth_.KeyPointSegment(t, 1)), 120.0)
        << "track " << t;
  }
}

TEST_F(CalibrationTest, SurvivesMeasurementNoise) {
  sim::PhysicalDriveParams noise;
  noise.locate_noise_sigma = 0.5;
  noise.outlier_rate = 0.002;
  sim::PhysicalDrive drive(truth_, Dlt4000Timings(), noise);
  CalibrationOptions options;
  options.probes_per_comparison = 5;
  auto result = CalibrateKeyPoints(drive, truth_, options);
  ASSERT_TRUE(result.ok());
  int off = 0, total = 0;
  for (int t = 0; t < truth_.num_tracks(); ++t) {
    for (int r = 2; r < truth_.sections_per_track(); ++r) {
      ++total;
      if (std::llabs(result->key_segments[t][r] -
                     truth_.KeyPointSegment(t, r)) > 4) {
        ++off;
      }
    }
  }
  // Occasional off-by-a-few under noise is tolerable; gross errors are not.
  EXPECT_LT(off, total / 20) << off << "/" << total;
}

TEST_F(CalibrationTest, MeasurementBudgetIsModest) {
  auto result = CalibrateKeyPoints(ideal_, truth_);
  ASSERT_TRUE(result.ok());
  // ~12 boundaries per track, ~8 binary-search probes each, 3 repeats:
  // well under 100k measurements (the naive approach probes every segment:
  // 622k locates of ~72 s each — months of drive time).
  EXPECT_LT(result->measurements, 100000);
  EXPECT_GT(result->measurements, 1000);
}

TEST_F(CalibrationTest, CalibratedModelEstimatesMatchTruth) {
  // End to end: build a scheduling model from the calibrated key points
  // and check its locate estimates against the true drive — this is what
  // makes calibration useful (Fig 9 shows the cost of getting it wrong).
  auto result = CalibrateKeyPoints(ideal_, truth_);
  ASSERT_TRUE(result.ok());
  auto geometry = TapeGeometry::FromKeyPoints(
      Dlt4000TapeParams(), result->key_segments, truth_.total_segments());
  ASSERT_TRUE(geometry.ok()) << geometry.status().ToString();
  Dlt4000LocateModel calibrated(*geometry, Dlt4000Timings());

  Lrand48 rng(3);
  Accumulator abs_err;
  for (int i = 0; i < 5000; ++i) {
    SegmentId a = rng.NextBounded(truth_.total_segments());
    SegmentId b = rng.NextBounded(truth_.total_segments());
    abs_err.Add(std::abs(calibrated.LocateSeconds(a, b) -
                         ideal_.LocateSeconds(a, b)));
  }
  // Residual error comes only from unobservable boundary jitter and the
  // interpolated k_1: a small fraction of a section.
  EXPECT_LT(abs_err.mean(), 1.5);
  // Versus using another cartridge's key points outright (the Fig 9
  // mistake), calibration must be an order of magnitude better.
  Dlt4000LocateModel wrong(
      TapeGeometry::Generate(Dlt4000TapeParams(), 77), Dlt4000Timings());
  Lrand48 rng2(3);
  Accumulator wrong_err;
  for (int i = 0; i < 5000; ++i) {
    SegmentId a = rng2.NextBounded(truth_.total_segments());
    SegmentId b = rng2.NextBounded(truth_.total_segments());
    wrong_err.Add(std::abs(wrong.LocateSeconds(a, b) -
                           ideal_.LocateSeconds(a, b)));
  }
  EXPECT_LT(abs_err.mean() * 3.0, wrong_err.mean());
}

/// A drive whose timing reports are intermittently garbage: on a fixed
/// deterministic pattern of calls the reported locate time gains a large
/// pseudo-random offset (a stuck locate / retried command reported as if
/// it were the real duration). Unlike PhysicalDrive noise, these glitches
/// are far outside any honest measurement distribution.
class GlitchyDrive : public LocateModel {
 public:
  explicit GlitchyDrive(const Dlt4000LocateModel& ideal) : ideal_(ideal) {}

  double LocateSeconds(SegmentId src, SegmentId dst) const override {
    int64_t n = calls_++;
    double t = ideal_.LocateSeconds(src, dst);
    if (n % 7 < 2) t += 20.0 + static_cast<double>((n * 37) % 150);
    return t;
  }
  double ReadSeconds(SegmentId from, SegmentId to) const override {
    return ideal_.ReadSeconds(from, to);
  }
  double RewindSeconds(SegmentId from) const override {
    return ideal_.RewindSeconds(from);
  }
  const TapeGeometry& geometry() const override { return ideal_.geometry(); }
  bool SupportsConcurrentUse() const override { return false; }

 private:
  const Dlt4000LocateModel& ideal_;
  mutable int64_t calls_ = 0;
};

TEST_F(CalibrationTest, TrimmedFitSurvivesGrossGlitches) {
  GlitchyDrive drive(ideal_);
  auto result = CalibrateKeyPoints(drive, truth_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Two of every seven probes are garbage, so many comparisons see a
  // majority of bad probes; the outlier trim plus re-measure rounds must
  // still recover every timing-visible key point exactly.
  for (int t = 0; t < truth_.num_tracks(); ++t) {
    for (int r = 2; r < truth_.sections_per_track(); ++r) {
      EXPECT_EQ(result->key_segments[t][r], truth_.KeyPointSegment(t, r))
          << "track " << t << " key " << r;
    }
  }
}

TEST_F(CalibrationTest, TrimmingDoesNotChangeCleanCalibration) {
  CalibrationOptions no_trim;
  no_trim.outlier_trim_seconds = 0.0;
  no_trim.max_remeasure_rounds = 0;
  auto trimmed = CalibrateKeyPoints(ideal_, truth_);
  auto plain = CalibrateKeyPoints(ideal_, truth_, no_trim);
  ASSERT_TRUE(trimmed.ok());
  ASSERT_TRUE(plain.ok());
  // On a clean drive the trim discards nothing and draws no extra rounds:
  // identical key points from an identical measurement budget.
  EXPECT_EQ(trimmed->key_segments, plain->key_segments);
  EXPECT_EQ(trimmed->measurements, plain->measurements);
}

TEST_F(CalibrationTest, ValidatesInputs) {
  EXPECT_FALSE(
      CalibrateKeyPoints(ideal_, std::vector<SegmentId>{0}, 14).ok());
  std::vector<SegmentId> starts = {0, 1000, 2000};
  EXPECT_FALSE(CalibrateKeyPoints(ideal_, starts, 2).ok());
}

TEST(FromKeyPointsTest, RoundTripsGeneratedGeometry) {
  TapeGeometry truth = TapeGeometry::Generate(Dlt4000TapeParams(), 9);
  std::vector<std::vector<SegmentId>> keys(truth.num_tracks());
  for (int t = 0; t < truth.num_tracks(); ++t) {
    for (int r = 0; r < truth.sections_per_track(); ++r) {
      keys[t].push_back(truth.KeyPointSegment(t, r));
    }
  }
  auto rebuilt = TapeGeometry::FromKeyPoints(Dlt4000TapeParams(), keys,
                                             truth.total_segments());
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->total_segments(), truth.total_segments());
  Lrand48 rng(5);
  for (int i = 0; i < 5000; ++i) {
    SegmentId seg = rng.NextBounded(truth.total_segments());
    Coord want = truth.ToCoord(seg);
    Coord got = rebuilt->ToCoord(seg);
    EXPECT_EQ(got.track, want.track);
    EXPECT_EQ(got.physical_section, want.physical_section);
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(rebuilt->KeyPointSegment(want.track, 5),
              truth.KeyPointSegment(want.track, 5));
  }
}

TEST(FromKeyPointsTest, RejectsBadKeyPoints) {
  TapeParams params;
  std::vector<std::vector<SegmentId>> too_few(10);
  EXPECT_FALSE(
      TapeGeometry::FromKeyPoints(params, too_few, 622080).ok());

  TapeGeometry truth = TapeGeometry::Generate(params, 1);
  std::vector<std::vector<SegmentId>> keys(truth.num_tracks());
  for (int t = 0; t < truth.num_tracks(); ++t)
    for (int r = 0; r < truth.sections_per_track(); ++r)
      keys[t].push_back(truth.KeyPointSegment(t, r));
  keys[3][7] = keys[3][8] + 10;  // non-monotonic
  EXPECT_FALSE(TapeGeometry::FromKeyPoints(params, keys,
                                           truth.total_segments())
                   .ok());
}

TEST(FromKeyPointsTest, RejectsASectionLongerThanAnInt) {
  // Section 1 of track 0 would hold 3·10⁹ segments; it used to be stored as
  // -1294967296.
  TapeParams params;
  params.num_tracks = 1;
  params.sections_per_track = 3;
  const std::vector<std::vector<SegmentId>> keys = {{0, 10, 3000000010}};
  auto built = TapeGeometry::FromKeyPoints(params, keys, 3000000020);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(built.status().message().find("(track 0, section 1)"),
            std::string::npos)
      << built.status().ToString();
  EXPECT_NE(built.status().message().find("3000000000"), std::string::npos)
      << built.status().ToString();
}

}  // namespace
}  // namespace serpentine::tape
