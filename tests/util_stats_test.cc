#include "serpentine/util/stats.h"

#include <cmath>

#include <gtest/gtest.h>

#include "serpentine/util/table.h"

namespace serpentine {
namespace {

TEST(AccumulatorTest, EmptyIsZero) {
  Accumulator a;
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.stddev(), 0.0);
}

TEST(AccumulatorTest, SingleValue) {
  Accumulator a;
  a.Add(3.5);
  EXPECT_EQ(a.count(), 1);
  EXPECT_DOUBLE_EQ(a.mean(), 3.5);
  EXPECT_DOUBLE_EQ(a.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(a.min(), 3.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.5);
}

TEST(AccumulatorTest, KnownMeanAndStddev) {
  Accumulator a;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a.Add(x);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  // Sample variance of this classic set is 32/7.
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
  EXPECT_NEAR(a.sum(), 40.0, 1e-9);
}

TEST(AccumulatorTest, MergeMatchesConcatenation) {
  Accumulator whole, left, right;
  for (int i = 0; i < 100; ++i) {
    double x = std::sin(i) * 10 + i * 0.1;
    whole.Add(x);
    (i < 37 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(AccumulatorTest, ShardedMergeIsDeterministic) {
  // The parallel harness's contract: fold the same shard accumulators in
  // the same order and the result is bit-identical, run after run —
  // regardless of which threads filled the shards.
  constexpr int kShards = 7;
  auto run = [] {
    Accumulator shards[kShards];
    for (int i = 0; i < 1000; ++i) {
      shards[i % kShards].Add(std::sin(i) * 100 + i * 0.01);
    }
    Accumulator total;
    for (const Accumulator& s : shards) total.Merge(s);
    return total;
  };
  Accumulator a = run();
  Accumulator b = run();
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());      // bitwise, not approximately
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(AccumulatorTest, MergeWithEmpty) {
  Accumulator a, empty;
  a.Add(1.0);
  a.Add(2.0);
  Accumulator b = a;
  b.Merge(empty);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(TableTest, AlignsColumns) {
  Table t;
  t.SetHeader({"N", "mean", "sd"});
  t.AddRow({"1", "72.40", "30.1"});
  t.AddRow({"2048", "6.80", "0.2"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("N     mean   sd"), std::string::npos);
  EXPECT_NE(s.find("2048"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, NumAndIntFormat) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(3.0, 0), "3");
  EXPECT_EQ(Table::Int(-12), "-12");
}

}  // namespace
}  // namespace serpentine
