#include "serpentine/stress/stress.h"

#include <cstdint>
#include <vector>

#include "gtest/gtest.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/replicate.h"

namespace serpentine::stress {
namespace {

/// A tiny helical tape: 64 segments, so a few thousand uniform requests
/// hit every segment many times — exactly what the cache and coalescing
/// paths need exercised.
tape::HelicalLocateModel TinyModel() { return tape::HelicalLocateModel(64); }

fleet::Fleet OneLibrary(const tape::LocateModel& m) {
  fleet::Fleet fleet;
  fleet.models = {{&m}};
  return fleet;
}

StressConfig BaseConfig() {
  StressConfig config;
  config.serving.arrival_rate_per_hour = 600.0;
  config.serving.total_requests = 2000;
  config.serving.seed = 5;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = 64;
  config.serving.dispatch_max_batch = 16;
  return config;
}

TEST(StressTest, ConservationHoldsWithEveryFeatureOn) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
  config.cache_capacity = 16;
  config.coalesce_duplicates = true;
  config.serving.arrival_rate_per_hour = 5000.0;  // deep overload: sheds

  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StressResult& r = *result;
  EXPECT_EQ(r.arrivals, config.serving.total_requests);
  EXPECT_EQ(r.cache_hits + r.coalesced + r.completed + r.failed + r.shed,
            r.arrivals);
  EXPECT_EQ(r.engine.arrivals, r.dispatched);
  EXPECT_GT(r.shed, 0);       // overload actually shed
  EXPECT_GT(r.cache_hits, 0);  // tiny segment space actually hit
  EXPECT_GT(r.coalesced, 0);   // duplicates actually coalesced

  // Per-tenant terminal paths conserve, and sum to the totals.
  int64_t arrivals = 0, hits = 0, coalesced = 0, completed = 0, failed = 0,
          shed = 0;
  for (const TenantStats& t : r.tenants) {
    EXPECT_EQ(t.cache_hits + t.coalesced + t.completed + t.failed + t.shed,
              t.arrivals)
        << t.name;
    arrivals += t.arrivals;
    hits += t.cache_hits;
    coalesced += t.coalesced;
    completed += t.completed;
    failed += t.failed;
    shed += t.shed;
  }
  EXPECT_EQ(arrivals, r.arrivals);
  EXPECT_EQ(hits, r.cache_hits);
  EXPECT_EQ(coalesced, r.coalesced);
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(failed, r.failed);
  EXPECT_EQ(shed, r.shed);
}

TEST(StressTest, DeterministicPerSeed) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.cache_capacity = 8;
  config.coalesce_duplicates = true;

  auto a = RunStress(OneLibrary(model), config);
  auto b = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->completed, b->completed);
  EXPECT_EQ(a->shed, b->shed);
  EXPECT_EQ(a->cache_hits, b->cache_hits);
  EXPECT_EQ(a->coalesced, b->coalesced);
  EXPECT_DOUBLE_EQ(a->p99_response_seconds, b->p99_response_seconds);
  EXPECT_DOUBLE_EQ(a->makespan_seconds, b->makespan_seconds);

  config.serving.seed = 6;
  auto c = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->makespan_seconds, a->makespan_seconds);
}

TEST(StressTest, TenantSharesTrackWeights) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.serving.total_requests = 6000;
  config.tenants = {{"big", 3.0}, {"small", 1.0}};

  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  double share = static_cast<double>(result->tenants[0].arrivals) /
                 result->arrivals;
  EXPECT_NEAR(share, 0.75, 0.03);
  // Everyone is answered in proportion, so fairness sits near 1.
  EXPECT_GT(result->fairness_jain, 0.95);
  EXPECT_LE(result->fairness_jain, 1.0 + 1e-12);
}

TEST(StressTest, CacheDisabledMeansNoHits) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.cache_capacity = 0;
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->cache_hits, 0);
}

TEST(StressTest, CoalescingOffMeansEveryMissDispatches) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.coalesce_duplicates = false;
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->coalesced, 0);
  EXPECT_EQ(result->dispatched, result->arrivals - result->cache_hits);
}

TEST(StressTest, QuantilesAreOrderedAndBoundedByMax) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  auto result = RunStress(OneLibrary(model), config);
  ASSERT_TRUE(result.ok());
  const StressResult& r = *result;
  EXPECT_LE(r.p50_response_seconds, r.p95_response_seconds);
  EXPECT_LE(r.p95_response_seconds, r.p99_response_seconds);
  EXPECT_LE(r.p99_response_seconds, r.p999_response_seconds);
  EXPECT_LE(r.p999_response_seconds, r.max_response_seconds);
  EXPECT_DOUBLE_EQ(r.latency.Quantile(1.0), r.max_response_seconds);
}

TEST(StressTest, EachArrivalProcessRunsDeterministically) {
  tape::HelicalLocateModel model = TinyModel();
  for (const char* process : {"poisson", "diurnal", "bursty"}) {
    StressConfig config = BaseConfig();
    config.process = process;
    auto a = RunStress(OneLibrary(model), config);
    auto b = RunStress(OneLibrary(model), config);
    ASSERT_TRUE(a.ok() && b.ok()) << process;
    EXPECT_DOUBLE_EQ(a->makespan_seconds, b->makespan_seconds) << process;
    EXPECT_EQ(a->completed, b->completed) << process;
  }
}

TEST(StressTest, FleetRunConservesAcrossLibraries) {
  tape::HelicalLocateModel m0 = TinyModel();
  tape::HelicalLocateModel m1 = TinyModel();
  tape::HelicalLocateModel m2 = TinyModel();
  StressConfig config = BaseConfig();
  config.coalesce_duplicates = true;
  config.cache_capacity = 8;
  fleet::Fleet three;
  three.models = {{&m0}, {&m1}, {&m2}};
  auto result = RunStress(three, config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->cache_hits + result->coalesced + result->completed +
                result->failed + result->shed,
            result->arrivals);
  EXPECT_EQ(result->engine.arrivals, result->dispatched);
}

TEST(StressTest, ReplicatedStatsAreThreadCountInvariant) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  config.serving.total_requests = 500;
  auto replicated = [&](int threads) {
    auto run = [&](int32_t seed) {
      StressConfig replica = config;
      replica.serving.seed = seed;
      return RunStress(OneLibrary(model), replica).value();
    };
    return Replicate("RunStress", config.serving.seed, 6, threads,
                     model.SupportsConcurrentUse(), run);
  };
  auto serial = replicated(/*threads=*/1);
  auto parallel = replicated(/*threads=*/4);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ(serial->size(), 6u);
  ASSERT_EQ(parallel->size(), 6u);
  for (int r = 0; r < 6; ++r) {
    const StressResult& a = (*serial)[r];
    const StressResult& b = (*parallel)[r];
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.p99_response_seconds, b.p99_response_seconds);
    EXPECT_EQ(a.throughput_per_hour, b.throughput_per_hour);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.fairness_jain, b.fairness_jain);
  }
}

TEST(StressTest, RejectsAnInvalidFleet) {
  tape::HelicalLocateModel model = TinyModel();
  StressConfig config = BaseConfig();
  fleet::Fleet holed;
  holed.models = {{&model}, {}};
  EXPECT_EQ(RunStress(holed, config).status().code(),
            StatusCode::kInvalidArgument);
  fleet::Fleet null_model;
  null_model.models = {{nullptr}};
  EXPECT_EQ(RunStress(null_model, config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StressTest, ValidationRejectsGarbage) {
  StressConfig config = BaseConfig();
  config.process = "sawtooth";
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  config = BaseConfig();
  config.tenants = {{"zero", 0.0}};
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  config = BaseConfig();
  config.cache_capacity = -1;
  EXPECT_FALSE(ValidateStressConfig(config).ok());

  // The id-packing bound flows through from ValidateOnlineServerConfig:
  // 2^32 arrivals would wrap the 32-bit index field of (seed << 32) | index.
  config = BaseConfig();
  config.serving.total_requests = int64_t{1} << 32;
  Status s = ValidateStressConfig(config);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("2^32"), std::string::npos);
}

}  // namespace
}  // namespace serpentine::stress
