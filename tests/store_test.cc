#include "serpentine/store/store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "serpentine/store/segment_cache.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::store {
namespace {

using tape::Dlt4000TapeParams;
using tape::Dlt4000Timings;
using tape::SegmentId;

// ---------------------------------------------------------------------------
// SegmentCache.
// ---------------------------------------------------------------------------

TEST(SegmentCacheTest, MissThenHit) {
  SegmentCache c(4);
  CacheKey k{0, 100};
  EXPECT_FALSE(c.Lookup(k));
  c.Insert(k);
  EXPECT_TRUE(c.Lookup(k));
  EXPECT_EQ(c.hits(), 1);
  EXPECT_EQ(c.misses(), 1);
  EXPECT_DOUBLE_EQ(c.hit_rate(), 0.5);
}

TEST(SegmentCacheTest, EvictsLeastRecentlyUsed) {
  SegmentCache c(2);
  c.Insert({0, 1});
  c.Insert({0, 2});
  EXPECT_TRUE(c.Lookup({0, 1}));  // refresh 1; 2 becomes LRU
  c.Insert({0, 3});               // evicts 2
  EXPECT_EQ(c.evictions(), 1);
  EXPECT_TRUE(c.Lookup({0, 1}));
  EXPECT_FALSE(c.Lookup({0, 2}));
  EXPECT_TRUE(c.Lookup({0, 3}));
}

TEST(SegmentCacheTest, ReinsertRefreshesWithoutGrowth) {
  SegmentCache c(2);
  c.Insert({0, 1});
  c.Insert({0, 1});
  EXPECT_EQ(c.size(), 1u);
}

TEST(SegmentCacheTest, DistinguishesTapes) {
  SegmentCache c(4);
  c.Insert({0, 1});
  EXPECT_FALSE(c.Lookup({1, 1}));
  EXPECT_TRUE(c.Lookup({0, 1}));
}

TEST(SegmentCacheTest, ZeroCapacityNeverStores) {
  SegmentCache c(0);
  c.Insert({0, 1});
  EXPECT_FALSE(c.Lookup({0, 1}));
  EXPECT_EQ(c.size(), 0u);
}

// ---------------------------------------------------------------------------
// TapeLibrary.
// ---------------------------------------------------------------------------

class TapeLibraryTest : public ::testing::Test {
 protected:
  TapeLibraryTest()
      : library_(Dlt4000TapeParams(), 3, Dlt4000Timings()) {}
  TapeLibrary library_;
};

TEST_F(TapeLibraryTest, StartsUnmounted) {
  EXPECT_EQ(library_.mounted(), -1);
  EXPECT_EQ(library_.num_cartridges(), 3);
  EXPECT_DOUBLE_EQ(library_.now(), 0.0);
  EXPECT_EQ(library_.mounted_drive(), nullptr);
  EXPECT_FALSE(library_.Unmount().ok());
}

TEST_F(TapeLibraryTest, MountCostsRobotAndLoadTime) {
  ASSERT_TRUE(library_.Mount(0).ok());
  EXPECT_EQ(library_.mounted(), 0);
  EXPECT_EQ(library_.head_position(), 0);
  EXPECT_NEAR(library_.now(), 15.0 + 40.0, 1e-9);
  EXPECT_EQ(library_.total_mounts(), 1);
}

TEST_F(TapeLibraryTest, RemountSameTapeIsFree) {
  ASSERT_TRUE(library_.Mount(1).ok());
  double t = library_.now();
  ASSERT_TRUE(library_.Mount(1).ok());
  EXPECT_DOUBLE_EQ(library_.now(), t);
  EXPECT_EQ(library_.total_mounts(), 1);
}

TEST_F(TapeLibraryTest, SwitchingTapesRewindsFirst) {
  ASSERT_TRUE(library_.Mount(0).ok());
  library_.mounted_drive()->Locate(300000);
  double positioned = library_.now();
  ASSERT_TRUE(library_.Mount(1).ok());
  // Unmount must pay the rewind from deep in the tape (tens of seconds)
  // plus unload + two robot moves + load.
  double exchange = library_.now() - positioned;
  EXPECT_GT(exchange, 15.0 + 20.0 + 15.0 + 40.0 + 20.0);
  EXPECT_EQ(library_.head_position(), 0);
  EXPECT_EQ(library_.total_mounts(), 2);
}

TEST_F(TapeLibraryTest, LocateAndReadAdvanceHeadAndClock) {
  ASSERT_TRUE(library_.Mount(0).ok());
  drive::Drive* head = library_.mounted_drive();
  ASSERT_NE(head, nullptr);
  double before = library_.now();
  double busy_before = library_.busy_seconds();
  double locate = head->Locate(5000).times.locate_seconds;
  EXPECT_GT(locate, 0.0);
  EXPECT_EQ(library_.head_position(), 5000);
  double read = head->ReadSegments(5000, 5099).times.read_seconds;
  EXPECT_EQ(library_.head_position(), 5100);
  EXPECT_NEAR(library_.now() - before, locate + read, 1e-9);
  EXPECT_NEAR(library_.busy_seconds() - busy_before, locate + read, 1e-9);
}

TEST_F(TapeLibraryTest, FullScanTakesAboutFourHours) {
  ASSERT_TRUE(library_.Mount(0).ok());
  drive::Drive* head = library_.mounted_drive();
  ASSERT_NE(head, nullptr);
  SegmentId total = library_.model(0).geometry().total_segments();
  double before = library_.now();
  head->Locate(0);
  head->ScanSegments(0, total - 1);
  head->Rewind();
  EXPECT_NEAR(library_.now() - before, 14000.0, 700.0);
  EXPECT_EQ(library_.head_position(), 0);
}

TEST_F(TapeLibraryTest, CartridgesHaveDistinctGeometry) {
  EXPECT_NE(library_.model(0).geometry().KeyPointSegment(10, 5),
            library_.model(1).geometry().KeyPointSegment(10, 5));
}

TEST_F(TapeLibraryTest, IdleAdvancesClockWithoutBusyTime) {
  library_.Idle(100.0);
  EXPECT_DOUBLE_EQ(library_.now(), 100.0);
  EXPECT_DOUBLE_EQ(library_.busy_seconds(), 0.0);
}

TEST_F(TapeLibraryTest, ErrorsNameTheOperationAndValues) {
  // Every validation failure must say which operation, which value, and
  // what the valid range was — a CHECK crash or a bare "error" is useless
  // in a store log.
  Status bad_tape = library_.Mount(7);
  EXPECT_EQ(bad_tape.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_tape.message().find("Mount"), std::string::npos);
  EXPECT_NE(bad_tape.message().find("7"), std::string::npos);
  EXPECT_NE(bad_tape.message().find("[0, 3)"), std::string::npos);
  EXPECT_EQ(library_.Mount(-1).code(), StatusCode::kInvalidArgument);

  Status unmounted = library_.Unmount();
  EXPECT_EQ(unmounted.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(unmounted.message().find("Unmount"), std::string::npos);
  EXPECT_NE(unmounted.message().find("no cartridge mounted"),
            std::string::npos);
  EXPECT_NE(unmounted.message().find("3 cartridges"), std::string::npos);
}

// ---------------------------------------------------------------------------
// TertiaryStore.
// ---------------------------------------------------------------------------

TertiaryStore MakeStore(StoreOptions options = {}, int cartridges = 2) {
  return TertiaryStore(
      options, TapeLibrary(Dlt4000TapeParams(), cartridges,
                           Dlt4000Timings()));
}

TEST(TertiaryStoreTest, ValidatesSubmissions) {
  TertiaryStore store = MakeStore();
  EXPECT_FALSE(store.SubmitRead(5, 0).ok());
  EXPECT_FALSE(store.SubmitRead(0, -1).ok());
  EXPECT_FALSE(store.SubmitRead(0, 0, 0).ok());
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  EXPECT_FALSE(store.SubmitRead(0, total - 1, 2).ok());
  EXPECT_FALSE(store.SubmitRead(0, total, 1).ok());
  // segment + count overflows int64 here; the span must still be refused
  // rather than reach the scheduler.
  ASSERT_EQ(store.SubmitRead(0, 5, std::numeric_limits<int64_t>::max())
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(store.SubmitRead(0, total - 1, 1).ok());
  EXPECT_TRUE(store.Flush().ok());
}

TEST(TertiaryStoreTest, DuplicateReadsAnswerOldestFirst) {
  // Two reads of one span, submitted 100 s apart around a third read: the
  // batch reads the span twice, and the earlier read of it answers the
  // older request.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store = MakeStore(options, 1);
  auto older = store.SubmitRead(0, 40000, 4);
  store.library().Idle(100.0);
  ASSERT_TRUE(store.SubmitRead(0, 90000).ok());
  store.library().Idle(100.0);
  auto newer = store.SubmitRead(0, 40000, 4);
  ASSERT_TRUE(older.ok());
  ASSERT_TRUE(newer.ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), 3u);
  double older_done = 0.0, newer_done = 0.0;
  for (const CompletedRead& c : report->completed) {
    if (c.id == *older) older_done = c.complete_seconds;
    if (c.id == *newer) newer_done = c.complete_seconds;
  }
  EXPECT_GT(older_done, 0.0);
  EXPECT_LT(older_done, newer_done);
}

TEST(TertiaryStoreTest, StampsWithTheFlushingDrivesClock) {
  // Every flush runs on bay 0. Bay 1 of this two-drive library has idled
  // to 10,000 s, which makes it the library-wide now(); the stamps, the
  // elapsed time and the responses must still come from bay 0's clock.
  StoreOptions options;
  options.cache_segments = 0;
  TertiaryStore store(options,
                      TapeLibrary(Dlt4000TapeParams(), 1, Dlt4000Timings(),
                                  /*first_seed=*/1, /*drives=*/2));
  store.library().Idle(1, 10000.0);
  Lrand48 rng(17);
  SegmentId total = store.library().model(0).geometry().total_segments();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  }
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), 12u);
  const TapeLibrary& library = store.library();
  EXPECT_EQ(library.now(1), 10000.0);
  // Bay 0 started at 0 and did all the work: the mount, the locates and
  // the reads.
  EXPECT_GT(library.now(0), 100.0);
  EXPECT_LT(library.now(0), 10000.0);
  EXPECT_EQ(report->elapsed_seconds, library.now(0));
  double sum = 0.0;
  double latest = 0.0;
  for (const CompletedRead& c : report->completed) {
    EXPECT_EQ(c.submit_seconds, 0.0);
    EXPECT_GT(c.complete_seconds, 0.0);
    EXPECT_LE(c.complete_seconds, library.now(0));
    sum += c.response_seconds();
    latest = std::max(latest, c.complete_seconds);
  }
  EXPECT_EQ(report->max_response_seconds, latest);
  EXPECT_DOUBLE_EQ(report->mean_response_seconds, sum / 12);
}

TEST(TertiaryStoreTest, FailedFlushLosesNoRead) {
  // Bay 1 holds cartridge 2, so a flush on bay 0 cannot mount it. The
  // flush serves cartridge 0 (the busiest) and then fails on cartridge 2;
  // no read may be lost on the way.
  TertiaryStore store({}, TapeLibrary(Dlt4000TapeParams(), 3, Dlt4000Timings(),
                                      /*first_seed=*/1, /*drives=*/2));
  ASSERT_TRUE(store.library().Mount(1, 2).ok());
  std::vector<uint64_t> ids;
  for (auto [tape, segment] :
       {std::pair<int, SegmentId>{0, 1000}, {0, 50000}, {0, 90000},
        {2, 2000}, {2, 70000}, {1, 30000}}) {
    auto id = store.SubmitRead(tape, segment);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  auto failed = store.Flush();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(store.library().now(0), 0.0);  // cartridge 0 was served
  EXPECT_EQ(store.pending(), 3u);          // cartridges 2 and 1 were not

  // Once bay 1 lets cartridge 2 go, the next flush reports every read
  // exactly once: cartridge 0's from the failed flush, the rest now.
  ASSERT_TRUE(store.library().Unmount(1).ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<uint64_t> reported;
  for (const CompletedRead& c : report->completed) {
    EXPECT_FALSE(c.cache_hit);
    EXPECT_GT(c.complete_seconds, c.submit_seconds);
    reported.push_back(c.id);
  }
  std::sort(reported.begin(), reported.end());
  EXPECT_EQ(reported, ids);
  EXPECT_EQ(store.pending(), 0u);
  auto empty = store.Flush();
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->completed.empty());
}

TEST(TertiaryStoreTest, FlushCompletesAllPending) {
  TertiaryStore store = MakeStore();
  Lrand48 rng(3);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.SubmitRead(i % 2, rng.NextBounded(total)).ok());
  }
  EXPECT_EQ(store.pending(), 20u);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed.size(), 20u);
  EXPECT_EQ(store.pending(), 0u);
  EXPECT_EQ(report->mounts, 2);
  EXPECT_GT(report->elapsed_seconds, 0.0);
  EXPECT_GT(report->mean_response_seconds, 0.0);
  EXPECT_GE(report->max_response_seconds, report->mean_response_seconds);
  EXPECT_EQ(report->segments_read, 20);
  for (const auto& c : report->completed) {
    EXPECT_GE(c.complete_seconds, c.submit_seconds);
  }
}

TEST(TertiaryStoreTest, RepeatReadHitsCache) {
  TertiaryStore store = MakeStore();
  ASSERT_TRUE(store.SubmitRead(0, 12345).ok());
  ASSERT_TRUE(store.Flush().ok());
  auto id = store.SubmitRead(0, 12345);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(store.pending(), 0u);  // served from cache
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->completed.size(), 1u);
  EXPECT_TRUE(report->completed[0].cache_hit);
  EXPECT_DOUBLE_EQ(report->completed[0].response_seconds(), 0.0);
}

TEST(TertiaryStoreTest, MountsBusiestTapeFirst) {
  TertiaryStore store = MakeStore({}, 3);
  Lrand48 rng(7);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  // Tape 2 has far more pending requests than tape 0.
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(store.SubmitRead(2, rng.NextBounded(total)).ok());
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->completed.front().tape, 2);
}

TEST(TertiaryStoreTest, SmallBatchesUseOpt) {
  StoreOptions options;
  options.opt_cutoff = 10;
  TertiaryStore store = MakeStore(options, 1);
  Lrand48 rng(9);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < 8; ++i)
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  // OPT handles 8 requests; the flush must succeed (an oversize OPT batch
  // would fail InvalidArgument).
  EXPECT_TRUE(store.Flush().ok());
}

TEST(TertiaryStoreTest, BatchingImprovesPerRequestService) {
  // The paper's headline: scheduling a batch beats FIFO-style one-at-a-
  // time service. Compare drive-busy time per request.
  Lrand48 rng(11);
  StoreOptions options;
  options.cache_segments = 0;

  TertiaryStore batched = MakeStore(options, 1);
  SegmentId total =
      batched.library().model(0).geometry().total_segments();
  std::vector<SegmentId> segments;
  for (int i = 0; i < 64; ++i) segments.push_back(rng.NextBounded(total));

  for (SegmentId s : segments) ASSERT_TRUE(batched.SubmitRead(0, s).ok());
  ASSERT_TRUE(batched.Flush().ok());
  double batched_busy = batched.library().busy_seconds();

  TertiaryStore serial = MakeStore(options, 1);
  for (SegmentId s : segments) {
    ASSERT_TRUE(serial.SubmitRead(0, s).ok());
    ASSERT_TRUE(serial.Flush().ok());  // one-request batches: FIFO order
  }
  double serial_busy = serial.library().busy_seconds();
  EXPECT_LT(batched_busy, serial_busy * 0.6);
}

/// Submits a uniform batch big enough that a LOSS schedule is slower than
/// one full pass (the paper's >1536-request regime).
void UniformSubmit(TertiaryStore& store, int n = 2000) {
  Lrand48 rng(13);
  SegmentId total =
      store.library().model(0).geometry().total_segments();
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(store.SubmitRead(0, rng.NextBounded(total)).ok());
  }
}

TEST(TertiaryStoreTest, HugeBatchFallsBackToFullScan) {
  StoreOptions options;
  options.cache_segments = 0;
  options.auto_full_read = true;
  TertiaryStore store = MakeStore(options, 1);
  UniformSubmit(store);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_scans, 1);
  // All requests complete within one ~4 h pass.
  EXPECT_LT(report->max_response_seconds, 16000.0);
}

TEST(TertiaryStoreTest, FullScanDisabledKeepsScheduling) {
  StoreOptions options;
  options.cache_segments = 0;
  options.auto_full_read = false;
  TertiaryStore store = MakeStore(options, 1);
  UniformSubmit(store);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_scans, 0);
}

TEST(TertiaryStoreTest, ReadAlgorithmReadsTheWholeTape) {
  // READ means one sequential pass over the cartridge, not a seek through
  // the requests in sorted order.
  StoreOptions options;
  options.cache_segments = 0;
  options.algorithm = sched::Algorithm::kRead;
  TertiaryStore store = MakeStore(options, 1);
  UniformSubmit(store, 40);
  auto report = store.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->full_scans, 1);
  EXPECT_EQ(report->completed.size(), 40u);
}

}  // namespace
}  // namespace serpentine::store
