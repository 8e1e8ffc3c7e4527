// Golden flushes of store::TertiaryStore: LOSS over three cartridges with
// idle gaps between arrivals, OPT-sized batches of 32-segment reads, FIFO
// over two cartridges, SLTF over four, and a first flush served by one
// full pass. Each flush's counters and clock readings are pinned to
// hex-float literals recorded from the store, so a change to how a flush
// executes a schedule or charges the library clock that moves any stamp
// by one ulp fails here. No scenario submits the same read twice, so the
// pins do not depend on how duplicate reads pair with their stamps.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/store/store.h"
#include "serpentine/tape/params.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::store {
namespace {

/// One flush's pinned values. busy_seconds and now are the library's,
/// read after the flush. complete_sum adds complete_seconds in request-id
/// order, so the order in which a flush reports its completions does not
/// matter.
struct FlushGolden {
  int mounts;
  int full_scans;
  double elapsed_seconds;
  double busy_seconds;
  double now;
  double complete_sum;
  double complete_max;
};

/// `g` in the golden tables' own format, so a failing flush prints the
/// row it produced.
std::string Row(const FlushGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "{%d, %d, %a, %a, %a, %a, %a}", g.mounts,
                g.full_scans, g.elapsed_seconds, g.busy_seconds, g.now,
                g.complete_sum, g.complete_max);
  return buf;
}

struct Scenario {
  sched::Algorithm algorithm;
  int cartridges;
  int flushes;
  int reads_per_flush;
  int64_t count;       // segments per read
  double gap_seconds;  // library idle time after each submission
  int32_t seed;
};

/// Submits `reads_per_flush` uniform reads on uniform cartridges, never
/// the same (cartridge, segment) twice, idling `gap_seconds` after each,
/// then flushes; `flushes` times.
std::vector<FlushGolden> RunFlushes(const Scenario& s) {
  StoreOptions options;
  options.algorithm = s.algorithm;
  options.cache_segments = 0;
  TertiaryStore store(options,
                      TapeLibrary(tape::Dlt4000TapeParams(), s.cartridges,
                                  tape::Dlt4000Timings()));
  Lrand48 rng(s.seed);
  std::set<std::pair<int, tape::SegmentId>> submitted;
  std::vector<FlushGolden> flushes;
  for (int f = 0; f < s.flushes; ++f) {
    for (int i = 0; i < s.reads_per_flush; ++i) {
      int tape = 0;
      tape::SegmentId segment = 0;
      do {
        tape = static_cast<int>(rng.NextBounded(s.cartridges));
        segment = rng.NextBounded(
            store.library().model(tape).geometry().total_segments() -
            s.count + 1);
      } while (!submitted.insert({tape, segment}).second);
      EXPECT_TRUE(store.SubmitRead(tape, segment, s.count).ok());
      store.library().Idle(s.gap_seconds);
    }
    auto report = store.Flush();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return flushes;
    EXPECT_EQ(report->completed.size(),
              static_cast<size_t>(s.reads_per_flush));
    std::vector<CompletedRead> done = report->completed;
    std::sort(done.begin(), done.end(),
              [](const CompletedRead& a, const CompletedRead& b) {
                return a.id < b.id;
              });
    FlushGolden g{report->mounts,
                  report->full_scans,
                  report->elapsed_seconds,
                  store.library().busy_seconds(),
                  store.library().now(),
                  0.0,
                  0.0};
    for (const CompletedRead& c : done) {
      g.complete_sum += c.complete_seconds;
      g.complete_max = std::max(g.complete_max, c.complete_seconds);
    }
    flushes.push_back(g);
  }
  return flushes;
}

void ExpectFlushes(const std::vector<FlushGolden>& actual,
                   const std::vector<FlushGolden>& golden) {
  ASSERT_EQ(actual.size(), golden.size());
  for (size_t f = 0; f < golden.size(); ++f) {
    SCOPED_TRACE("flush " + std::to_string(f) + " produced " +
                 Row(actual[f]));
    EXPECT_EQ(actual[f].mounts, golden[f].mounts);
    EXPECT_EQ(actual[f].full_scans, golden[f].full_scans);
    EXPECT_EQ(actual[f].elapsed_seconds, golden[f].elapsed_seconds);
    EXPECT_EQ(actual[f].busy_seconds, golden[f].busy_seconds);
    EXPECT_EQ(actual[f].now, golden[f].now);
    EXPECT_EQ(actual[f].complete_sum, golden[f].complete_sum);
    EXPECT_EQ(actual[f].complete_max, golden[f].complete_max);
  }
}

TEST(TertiaryStoreGoldenTest, LossOverThreeCartridgesWithIdleGaps) {
  const std::vector<FlushGolden> golden = {
      {3, 0, 0x1.301070e0b24c5p+11, 0x1.301070e0b24c3p+11,
       0x1.a09070e0b24c5p+11, 0x1.774cd0655d1b5p+16, 0x1.a09070e0b24c5p+11},
      {2, 0, 0x1.20f9de88eb806p+11, 0x1.288527b4cee69p+12,
       0x1.990527b4cee65p+12, 0x1.d823de1e8015bp+17, 0x1.990527b4cee65p+12},
      {3, 0, 0x1.4150582003866p+11, 0x1.c92d53c4d0a8ap+12,
       0x1.38f6a9e26854cp+13, 0x1.83f63f6962ddbp+18, 0x1.38f6a9e26854cp+13},
      {3, 0, 0x1.40f278171f66p+11, 0x1.34d347e8302ddp+13,
       0x1.a55347e8302e4p+13, 0x1.0d29ce6e7cfb5p+19, 0x1.a55347e8302e4p+13},
  };
  ExpectFlushes(
      RunFlushes({sched::Algorithm::kLoss, 3, 4, 45, 1, 20.0, 3}), golden);
}

TEST(TertiaryStoreGoldenTest, OptSizedBatchesOfMultiSegmentReads) {
  const std::vector<FlushGolden> golden = {
      {1, 0, 0x1.afd95ca4e3dc8p+8, 0x1.afd95ca4e3dc7p+8,
       0x1.04ecae5271ee4p+9, 0x1.8dcdd4a88f492p+11, 0x1.04ecae5271ee4p+9},
      {0, 0, 0x1.9851bae4b8056p+8, 0x1.a4158bc4cdf0ep+9,
       0x1.fe158bc4cdf0fp+9, 0x1.dbd06f311bda8p+12, 0x1.fe158bc4cdf0fp+9},
      {0, 0, 0x1.0c89497d00538p+9, 0x1.584f6aa0e7223p+10,
       0x1.9bcf6aa0e7224p+10, 0x1.9207403f6d97p+13, 0x1.9bcf6aa0e7224p+10},
      {0, 0, 0x1.cfe19f94c4378p+8, 0x1.cc47d28618301p+10,
       0x1.1323e9430c181p+11, 0x1.19eed52f81456p+14, 0x1.1323e9430c181p+11},
      {0, 0, 0x1.9f39f15f68c38p+8, 0x1.1a0b276ef9306p+11,
       0x1.524b276ef9308p+11, 0x1.6201688de19fbp+14, 0x1.524b276ef9308p+11},
      {0, 0, 0x1.8961b5be7fb78p+8, 0x1.4b375e26c9275p+11,
       0x1.8eb75e26c9277p+11, 0x1.a93969205e02dp+14, 0x1.8eb75e26c9277p+11},
  };
  ExpectFlushes(
      RunFlushes({sched::Algorithm::kLoss, 1, 6, 9, 32, 10.0, 5}), golden);
}

TEST(TertiaryStoreGoldenTest, FifoOverTwoCartridges) {
  const std::vector<FlushGolden> golden = {
      {2, 0, 0x1.20e5e96a6ac83p+11, 0x1.20e5e96a6ac85p+11,
       0x1.7ae5e96a6ac83p+11, 0x1.7542b37e76df5p+15, 0x1.7ae5e96a6ac83p+11},
      {1, 0, 0x1.af799541c1ef2p+10, 0x1.f8a2b40b4bcp+11,
       0x1.56515a05a5dfep+12, 0x1.b8a81a950e616p+16, 0x1.56515a05a5dfep+12},
      {1, 0, 0x1.ef094f2f55e34p+10, 0x1.7813add17b58dp+12,
       0x1.ff13add17b58bp+12, 0x1.595f734424dcap+17, 0x1.ff13add17b58bp+12},
  };
  ExpectFlushes(
      RunFlushes({sched::Algorithm::kFifo, 2, 3, 24, 1, 30.0, 7}), golden);
}

TEST(TertiaryStoreGoldenTest, SltfOverFourCartridges) {
  const std::vector<FlushGolden> golden = {
      {4, 0, 0x1.b9bf623ed6743p+11, 0x1.b9bf623ed6741p+11,
       0x1.df3f623ed6743p+11, 0x1.d325a7a83ac6dp+16, 0x1.df3f623ed6743p+11},
      {4, 0, 0x1.dc6008ef0bb4p+11, 0x1.cb0fb596f114p+12,
       0x1.f08fb596f1142p+12, 0x1.6334ed010ed61p+18, 0x1.f08fb596f1142p+12},
      {4, 0, 0x1.cbbbf1a36f23cp+11, 0x1.5876d73454532p+13,
       0x1.7496d7345453p+13, 0x1.2801328a82bdfp+19, 0x1.7496d7345453p+13},
  };
  ExpectFlushes(
      RunFlushes({sched::Algorithm::kSltf, 4, 3, 60, 1, 5.0, 9}), golden);
}

// A full pass's stamps are pinned, but not the clock after it: the pass
// ends with a rewind, and how its locate, read and rewind are added to the
// clock is not part of the store's contract to the last ulp.
TEST(TertiaryStoreGoldenTest, FirstFlushFullPassStamps) {
  std::vector<FlushGolden> flushes =
      RunFlushes({sched::Algorithm::kRead, 1, 1, 60, 1, 15.0, 11});
  ASSERT_EQ(flushes.size(), 1u);
  SCOPED_TRACE("produced " + Row(flushes[0]));
  EXPECT_EQ(flushes[0].mounts, 1);
  EXPECT_EQ(flushes[0].full_scans, 1);
  EXPECT_EQ(flushes[0].complete_sum, 0x1.aff13f916384cp+18);
  EXPECT_EQ(flushes[0].complete_max, 0x1.d0bfdfa08c512p+13);
}

}  // namespace
}  // namespace serpentine::store
