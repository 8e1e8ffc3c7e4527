#include "serpentine/tsp/locate_cost.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "counting_locate_model.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/lrand48.h"

namespace serpentine::tsp {
namespace {

using tape::SegmentId;

using tape::CountingLocateModel;

class LocateCostSoATest : public ::testing::Test {
 protected:
  LocateCostSoATest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// Random out/in endpoint vectors of n cities each.
  void RandomEndpoints(int n, int32_t seed, std::vector<SegmentId>* out,
                       std::vector<SegmentId>* in) const {
    Lrand48 rng(seed);
    SegmentId total = model_.geometry().total_segments();
    out->clear();
    in->clear();
    for (int i = 0; i < n; ++i) {
      out->push_back(rng.NextBounded(total));
      in->push_back(rng.NextBounded(total));
    }
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(LocateCostSoATest, KernelActivatesOnDlt4000) {
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(8, 1, &out, &in);
  LocateCostSoA soa(model_, out, in);
  EXPECT_TRUE(soa.fast_kernel());
  EXPECT_TRUE(soa.thread_safe());
  EXPECT_EQ(soa.size(), 8);
}

TEST_F(LocateCostSoATest, KernelIsBitIdenticalToTheModel) {
  // The kernel claims to replay Dlt4000LocateModel::LocateSeconds exactly
  // — same expressions, same evaluation order — so every edge must match
  // with EXPECT_EQ, not EXPECT_NEAR. 128 cities x 128 cities covers the
  // case-1 fast path, track switches, key-point clamps, and reversals.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(128, 7, &out, &in);
  LocateCostSoA soa(model_, out, in);
  ASSERT_TRUE(soa.fast_kernel());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]))
          << "i=" << i << " j=" << j << " src=" << out[i] << " dst=" << in[j];
    }
  }
}

TEST_F(LocateCostSoATest, AdjacentAndIdenticalEndpointsMatch) {
  // Deliberately degenerate endpoints: src == dst (zero cost), adjacent
  // segments within one reading section (case 1), and a same-position
  // out/in pair per city.
  std::vector<SegmentId> out = {0, 100, 101, 5000, 5000};
  std::vector<SegmentId> in = {0, 100, 102, 5000, 5001};
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]));
    }
  }
}

TEST_F(LocateCostSoATest, CostForbidsSelfLoopsAndStartInEdges) {
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(6, 3, &out, &in);
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < soa.size(); ++i) {
    EXPECT_EQ(soa.cost(i, i), kInfiniteCost);
    if (i != 0) {
      EXPECT_EQ(soa.cost(i, 0), kInfiniteCost);
      EXPECT_EQ(soa.cost(0, i), soa.LocateSeconds(0, i));
    }
  }
}

TEST_F(LocateCostSoATest, WrappedModelFallsBackToForwarding) {
  // Kernel detection is by exact dynamic type: a wrapper over the Dlt4000
  // model must take the forwarding path even though every answer it gives
  // is the Dlt4000's.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(16, 5, &out, &in);
  CountingLocateModel counting(model_);
  LocateCostSoA soa(counting, out, in);
  EXPECT_FALSE(soa.fast_kernel());
  // The fallback fills its memo under const calls.
  EXPECT_FALSE(soa.thread_safe());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]));
      EXPECT_EQ(soa.Price(i, j), model_.LocateSeconds(out[i], in[j]));
    }
  }
}

// The locate cache lives on as the fallback path's memo: for a model the
// kernel does not recognise, LocateSeconds asks the model once per distinct
// (src, dst) segment pair and answers repeats from the memo.
class LocateCacheTest : public LocateCostSoATest {};

TEST_F(LocateCacheTest, ValuesMatchTheBaseModel) {
  // The first ask and every repeat return the model's own answer.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(24, 3, &out, &in);
  CountingLocateModel counting(model_);
  LocateCostSoA soa(counting, out, in);
  ASSERT_FALSE(soa.fast_kernel());
  for (int rep = 0; rep < 2; ++rep) {
    for (int i = 0; i < soa.size(); ++i) {
      for (int j = 0; j < soa.size(); ++j) {
        EXPECT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]))
            << out[i] << "->" << in[j] << " rep=" << rep;
      }
    }
  }
}

TEST_F(LocateCacheTest, RepeatQueriesPlanOnce) {
  // City 1 sits at segment 100, and cities 2 and 3 both at 50000: edges
  // (1, 2) and (1, 3) are one segment pair, so the memo is keyed by
  // segments, not cities.
  std::vector<SegmentId> at = {0, 100, 50000, 50000};
  CountingLocateModel counting(model_);
  LocateCostSoA soa(counting, at, at);
  for (int rep = 0; rep < 10; ++rep) {
    EXPECT_EQ(soa.LocateSeconds(1, 2), model_.LocateSeconds(100, 50000));
    EXPECT_EQ(soa.LocateSeconds(1, 3), model_.LocateSeconds(100, 50000));
    EXPECT_EQ(soa.LocateSeconds(2, 1), model_.LocateSeconds(50000, 100));
  }
  EXPECT_EQ(counting.total_calls(), 2);  // one per distinct ordered pair
  // Price never remembers, so it asks again.
  EXPECT_EQ(soa.Price(1, 2), model_.LocateSeconds(100, 50000));
  EXPECT_EQ(counting.calls().at({100, 50000}), 2);
}

TEST_F(LocateCacheTest, DirectionMatters) {
  // (a, b) and (b, a) are distinct memo entries; serpentine locates are
  // asymmetric.
  std::vector<SegmentId> at = {0, 100, 50000};
  CountingLocateModel counting(model_);
  LocateCostSoA soa(counting, at, at);
  soa.LocateSeconds(1, 2);
  soa.LocateSeconds(2, 1);
  EXPECT_EQ(counting.calls().at({100, 50000}), 1);
  EXPECT_EQ(counting.calls().at({50000, 100}), 1);
  EXPECT_NE(soa.LocateSeconds(1, 2), soa.LocateSeconds(2, 1));
  EXPECT_EQ(counting.total_calls(), 2);
}

TEST_F(LocateCostSoATest, FallbackMemoSurvivesGrowth) {
  // 400 x 400 distinct pairs outgrow the memo's first table several times
  // over; every answer must survive, and a second pass must not ask the
  // model again.
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  RandomEndpoints(400, 11, &out, &in);
  CountingLocateModel counting(model_);
  LocateCostSoA soa(counting, out, in);
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) soa.LocateSeconds(i, j);
  }
  const int asked = counting.total_calls();
  EXPECT_LE(asked, 400 * 400);
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      ASSERT_EQ(soa.LocateSeconds(i, j), model_.LocateSeconds(out[i], in[j]))
          << "i=" << i << " j=" << j;
    }
  }
  EXPECT_EQ(counting.total_calls(), asked);
}

TEST_F(LocateCostSoATest, HelicalModelUsesFallback) {
  tape::HelicalLocateModel helical(100000);
  std::vector<SegmentId> out = {0, 10, 99999, 50000};
  std::vector<SegmentId> in = {0, 20, 1, 50000};
  LocateCostSoA soa(helical, out, in);
  EXPECT_FALSE(soa.fast_kernel());
  for (int i = 0; i < soa.size(); ++i) {
    for (int j = 0; j < soa.size(); ++j) {
      EXPECT_EQ(soa.LocateSeconds(i, j), helical.LocateSeconds(out[i], in[j]));
    }
  }
}

// RowCosts and ColumnCosts, the calls LossSolver prices through: each
// entry must be cost() of its edge, which is the model's own LocateSeconds
// off the diagonal and off column 0, and kInfiniteCost on them.
struct Family {
  const char* name;
  tape::TapeParams params;
  tape::DriveTimings timings;
};

std::vector<Family> KernelFamilies() {
  return {{"dlt4000", tape::Dlt4000TapeParams(), tape::Dlt4000Timings()},
          {"dlt7000", tape::Dlt7000TapeParams(), tape::Dlt7000Timings()},
          {"ibm3590", tape::Ibm3590TapeParams(), tape::Ibm3590Timings()}};
}

/// Cities as a LOSS batch lays them out, entered at a segment and left one
/// past it: random segments, plus twins and near neighbours of earlier
/// ones, so rows hold zero-cost, read-forward (case 1) and reversing edges.
void BatchEndpoints(SegmentId total, int n, int32_t seed,
                    std::vector<SegmentId>* out, std::vector<SegmentId>* in) {
  Lrand48 rng(seed);
  out->clear();
  in->clear();
  for (int c = 0; c < n; ++c) {
    SegmentId at = rng.NextBounded(total);
    if (c >= 4 && c % 4 == 0) at = (*in)[rng.NextBounded(c)];
    if (c >= 4 && c % 4 == 1) {
      at = std::min<SegmentId>((*in)[rng.NextBounded(c)] + rng.NextBounded(900),
                               total - 1);
    }
    in->push_back(at);
    out->push_back(std::min<SegmentId>(at + 1, total - 1));
  }
}

/// Every row and every column of `soa`, priced over `open`, against cost()
/// and against `model` itself.
void ExpectRowsAndColumnsMatchEveryEdge(const LocateCostSoA& soa,
                                        const tape::LocateModel& model,
                                        const std::vector<SegmentId>& out,
                                        const std::vector<SegmentId>& in,
                                        const std::vector<int>& open,
                                        const std::string& label) {
  const int count = static_cast<int>(open.size());
  auto want = [&](int i, int j) {
    return i == j || j == 0 ? kInfiniteCost
                            : model.LocateSeconds(out[i], in[j]);
  };
  std::vector<double> got(count);
  for (int i = 0; i < soa.size(); ++i) {
    soa.RowCosts(i, open.data(), count, got.data());
    for (int k = 0; k < count; ++k) {
      const int j = open[k];
      EXPECT_EQ(got[k], soa.cost(i, j)) << label << " row " << i << "->" << j;
      EXPECT_EQ(got[k], want(i, j)) << label << " row " << i << "->" << j;
    }
  }
  for (int j = 0; j < soa.size(); ++j) {
    soa.ColumnCosts(open.data(), count, j, got.data());
    for (int k = 0; k < count; ++k) {
      const int i = open[k];
      EXPECT_EQ(got[k], soa.cost(i, j)) << label << " column " << i << "->"
                                        << j;
      EXPECT_EQ(got[k], want(i, j)) << label << " column " << i << "->" << j;
    }
  }
}

TEST(LocateCostRowsTest, KernelRowsAndColumnsPriceEveryEdgeAsCost) {
  for (const Family& f : KernelFamilies()) {
    const tape::Dlt4000LocateModel model(
        tape::TapeGeometry::Generate(f.params, 3), f.timings);
    std::vector<SegmentId> out;
    std::vector<SegmentId> in;
    BatchEndpoints(model.geometry().total_segments(), 160, 29, &out, &in);
    LocateCostSoA soa(model, out, in);
    ASSERT_TRUE(soa.fast_kernel()) << f.name;
    // Open lists as a solve leaves them: ascending with gaps, still holding
    // city 0 (a row list) and the priced city itself. Then every city.
    std::vector<int> gaps;
    for (int c = 0; c < soa.size(); ++c) {
      if (c % 3 != 1 && c % 7 != 5) gaps.push_back(c);
    }
    std::vector<int> all(soa.size());
    for (int c = 0; c < soa.size(); ++c) all[c] = c;
    ExpectRowsAndColumnsMatchEveryEdge(soa, model, out, in, gaps,
                                       std::string(f.name) + " gaps");
    ExpectRowsAndColumnsMatchEveryEdge(soa, model, out, in, all,
                                       std::string(f.name) + " all");
  }
}

TEST(LocateCostRowsTest, ForbiddenEdgesPriceAsInfinite) {
  const tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  // Every city at one segment: each edge's locate is zero seconds, so only
  // the self-loop and the edge into city 0 are infinite.
  const std::vector<SegmentId> at(5, 7000);
  LocateCostSoA soa(model, at, at);
  const std::vector<int> to = {0, 1, 2, 3, 4};
  std::vector<double> got(5);
  for (int i = 0; i < 5; ++i) {
    soa.RowCosts(i, to.data(), 5, got.data());
    for (int j = 0; j < 5; ++j) {
      EXPECT_EQ(got[j], i == j || j == 0 ? kInfiniteCost : 0.0) << i << j;
    }
    soa.ColumnCosts(to.data(), 5, i, got.data());
    for (int k = 0; k < 5; ++k) {
      EXPECT_EQ(got[k], k == i || i == 0 ? kInfiniteCost : 0.0) << k << i;
    }
  }
}

TEST(LocateCostRowsTest, FallbackRowsAndColumnsPriceEveryEdgeAsCost) {
  // A model the kernel does not recognise answers through cost(), memo and
  // all.
  const tape::Dlt4000LocateModel base(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  CountingLocateModel counting(base);
  std::vector<SegmentId> out;
  std::vector<SegmentId> in;
  BatchEndpoints(base.geometry().total_segments(), 40, 31, &out, &in);
  LocateCostSoA soa(counting, out, in);
  ASSERT_FALSE(soa.fast_kernel());
  std::vector<int> gaps;
  for (int c = 0; c < soa.size(); c += 2) gaps.push_back(c);
  ExpectRowsAndColumnsMatchEveryEdge(soa, base, out, in, gaps, "fallback");
}

TEST_F(LocateCostSoATest, ExposesEndpointPositions) {
  std::vector<SegmentId> out = {3, 40, 500};
  std::vector<SegmentId> in = {1, 41, 501};
  LocateCostSoA soa(model_, out, in);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(soa.out_position(i), out[i]);
    EXPECT_EQ(soa.in_position(i), in[i]);
  }
}

}  // namespace
}  // namespace serpentine::tsp
