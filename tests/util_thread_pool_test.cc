#include "serpentine/util/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serpentine/util/replicate.h"

#include <gtest/gtest.h>

namespace serpentine {
namespace {

TEST(ThreadPoolTest, SizeClampsToAtLeastOneWorker) {
  ThreadPool one(0);
  EXPECT_EQ(one.size(), 1);
  ThreadPool also_one(-4);
  EXPECT_EQ(also_one.size(), 1);
  ThreadPool three(3);
  EXPECT_EQ(three.size(), 3);
}

TEST(ThreadPoolTest, DestructorFinishesEveryQueuedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.Schedule([&ran] { ran.fetch_add(1); });
    }
    // Destruction must drain the queue, not drop it.
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, TasksRunOffTheCallingThread) {
  ThreadPool pool(1);
  std::atomic<bool> done{false};
  std::thread::id worker_id;
  pool.Schedule([&] {
    worker_id = std::this_thread::get_id();
    done.store(true);
  });
  while (!done.load()) std::this_thread::yield();
  EXPECT_NE(worker_id, std::this_thread::get_id());
}

TEST(ThreadPoolTest, SharedPoolIsAProcessSingleton) {
  EXPECT_EQ(&ThreadPool::Shared(), &ThreadPool::Shared());
  EXPECT_GE(ThreadPool::Shared().size(), 1);
}

TEST(ParallelForTest, VisitsEveryShardExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kShards = 1000;  // far more shards than workers
  std::vector<int> visits(kShards, 0);
  ParallelFor(&pool, kShards, 4, [&](int64_t s) { ++visits[s]; });
  for (int64_t s = 0; s < kShards; ++s) EXPECT_EQ(visits[s], 1) << s;
}

TEST(ParallelForTest, RunsInlineWithoutAPool) {
  std::atomic<int64_t> sum{0};
  ParallelFor(nullptr, 10, 8, [&](int64_t s) { sum.fetch_add(s); });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ParallelForTest, MaxWorkersOneStaysOnTheCallingThread) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::set<std::thread::id> seen;
  ParallelFor(&pool, 8, 1,
              [&](int64_t) { seen.insert(std::this_thread::get_id()); });
  EXPECT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), caller);
}

TEST(ParallelForTest, ZeroShardsIsANoOp) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, 2, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, RethrowsTheFirstExceptionAndStaysUsable) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 100, 4,
                           [&](int64_t s) {
                             if (s == 37) {
                               throw std::runtime_error("shard 37");
                             }
                           }),
               std::runtime_error);

  // The pool must survive a throwing batch.
  std::atomic<int> ran{0};
  ParallelFor(&pool, 50, 4, [&](int64_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
}

TEST(ParallelForTest, ResultIndependentOfWorkerCount) {
  // The shard loop writes only its own slot, so any worker count must
  // produce identical output.
  constexpr int64_t kShards = 64;
  std::vector<std::vector<double>> runs;
  for (int workers : {1, 2, 8}) {
    ThreadPool pool(workers);
    std::vector<double> out(kShards, 0.0);
    ParallelFor(&pool, kShards, workers, [&](int64_t s) {
      double v = 0.0;
      for (int i = 0; i < 100; ++i) v += static_cast<double>(s * i) * 1e-3;
      out[s] = v;
    });
    runs.push_back(std::move(out));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ReplicateTest, ZeroReplicationsNameTheDriver) {
  int runs = 0;
  auto run = [&](int32_t seed) {
    ++runs;
    return seed;
  };
  for (int replications : {0, -3}) {
    StatusOr<std::vector<int32_t>> none =
        Replicate("RunSomething", /*seed=*/7, replications, /*threads=*/1,
                  /*concurrent=*/true, run);
    EXPECT_EQ(none.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(none.status().message().find("RunSomething"),
              std::string::npos)
        << none.status().message();
  }
  EXPECT_EQ(runs, 0);
}

}  // namespace
}  // namespace serpentine
