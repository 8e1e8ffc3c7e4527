// Fleet layer tests: the catalog's placement invariants, the router's
// pure-arithmetic decisions, the bids a ServingCore prices against a
// from-scratch FIFO reference, and the determinism pin — a fleet of one
// library, one cartridge, replication 1 driven through Catalog + Router +
// ServingCore must reproduce RunOnlineServer field for field, bit for
// bit, across every serving extension and for any thread count.
#include "serpentine/fleet/fleet_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/router.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/replicate.h"

#include "catalog_reference.h"

namespace serpentine::fleet {
namespace {

// ---------------------------------------------------------------- catalog

FleetTopology UniformTopology(int libraries, int cartridges,
                              tape::SegmentId segments_each) {
  FleetTopology t;
  t.capacity.assign(libraries,
                    std::vector<tape::SegmentId>(cartridges, segments_each));
  return t;
}

TEST(CatalogTest, SingleLibraryReplicationOneIsTheIdentityMapping) {
  // Sequential fill across cartridges: logical i IS physical segment i,
  // the property the determinism pin stands on.
  FleetTopology t;
  t.capacity = {{4, 3}};
  PlacementOptions options;
  auto catalog = Catalog::Build(t, 7, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  ASSERT_EQ(catalog->num_logical(), 7);
  for (int64_t i = 0; i < 7; ++i) {
    const std::vector<ReplicaLocation>& r = catalog->replicas(i);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].library, 0);
    EXPECT_EQ(r[0].cartridge, i < 4 ? 0 : 1);
    EXPECT_EQ(r[0].segment, i < 4 ? i : i - 4);
  }
  EXPECT_EQ(catalog->placed_per_library()[0], 7);
}

TEST(CatalogTest, RoundRobinBalancesAndSeparatesReplicas) {
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.replication = 2;
  auto catalog = Catalog::Build(t, 15, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  int64_t lo = std::numeric_limits<int64_t>::max(), hi = 0;
  for (int64_t n : catalog->placed_per_library()) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  EXPECT_LE(hi - lo, 1);
  for (int64_t i = 0; i < catalog->num_logical(); ++i) {
    const std::vector<ReplicaLocation>& r = catalog->replicas(i);
    ASSERT_EQ(r.size(), 2u);
    EXPECT_NE(r[0].library, r[1].library)
        << "replicas of logical " << i << " share a library";
  }
}

TEST(CatalogTest, RandomPlacementIsSeedDeterministic) {
  FleetTopology t = UniformTopology(3, 2, 25);
  PlacementOptions options;
  options.policy = PlacementPolicy::kRandom;
  options.replication = 2;
  options.seed = 42;
  auto a = Catalog::Build(t, 30, options);
  auto b = Catalog::Build(t, 30, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t i = 0; i < a->num_logical(); ++i) {
    ASSERT_EQ(a->replicas(i), b->replicas(i)) << "logical " << i;
  }
}

TEST(CatalogTest, WeightedPlacementFollowsTheWeights) {
  // All the weight on library 0: every first replica lands there.
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {1.0, 0.0, 0.0};
  auto catalog = Catalog::Build(t, 12, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->placed_per_library()[0], 12);
  EXPECT_EQ(catalog->placed_per_library()[1], 0);
  EXPECT_EQ(catalog->placed_per_library()[2], 0);
}

TEST(CatalogTest, SingleNonzeroWeightCollapsesToThatLibrary) {
  // Zero-weight libraries must never be drawn, even when they are the
  // majority of the fleet.
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {0.0, 1.0, 0.0};
  auto catalog = Catalog::Build(t, 15, options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->placed_per_library()[0], 0);
  EXPECT_EQ(catalog->placed_per_library()[1], 15);
  EXPECT_EQ(catalog->placed_per_library()[2], 0);
}

TEST(CatalogTest, AllZeroWeightsFailWithActionableMessage) {
  FleetTopology t = UniformTopology(3, 1, 20);
  PlacementOptions options;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {0.0, 0.0, 0.0};
  Status s = Catalog::Build(t, 5, options).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The message should say what is wrong (zero total mass), not just that
  // the weights are "invalid".
  EXPECT_NE(s.ToString().find("sum to zero"), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.ToString().find("positive weight"), std::string::npos)
      << s.ToString();
}

TEST(CatalogTest, RejectsImpossibleRequests) {
  FleetTopology empty;
  PlacementOptions options;
  EXPECT_EQ(Catalog::Build(empty, 1, options).status().code(),
            StatusCode::kInvalidArgument);

  FleetTopology t = UniformTopology(2, 1, 10);
  options.replication = 3;  // more replicas than libraries
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.replication = 0;
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.replication = 1;
  options.policy = PlacementPolicy::kWeighted;
  options.weights = {1.0};  // wrong arity for 2 libraries
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.weights = {0.0, 0.0};  // no positive mass
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);

  options.weights = {-1.0, 2.0};
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CatalogTest, RunsOutOfCapacityWithResourceExhausted) {
  FleetTopology t = UniformTopology(1, 1, 4);
  PlacementOptions options;
  EXPECT_EQ(Catalog::Build(t, 5, options).status().code(),
            StatusCode::kResourceExhausted);

  // 2^62 segments x 2 replicas is 2^63, one past INT64_MAX: a capacity
  // check that multiplies wraps negative and lets the build through.
  options.replication = 2;
  EXPECT_EQ(
      Catalog::Build(UniformTopology(2, 1, 10), int64_t{1} << 62, options)
          .status()
          .code(),
      StatusCode::kResourceExhausted);
}

TEST(CatalogTest, RejectsCapacitiesThatOverflowALibrary) {
  // Two 2^62-segment cartridges sum to 2^63, one past INT64_MAX: the
  // library's total must be refused before anything sums it.
  FleetTopology t = UniformTopology(1, 2, int64_t{1} << 62);
  EXPECT_EQ(ValidateCapacities(t).code(), StatusCode::kInvalidArgument);
  Status s = Catalog::Build(t, 1, PlacementOptions{}).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("library 0"), std::string::npos)
      << s.ToString();
}

TEST(CatalogTest, RejectsCapacitiesThatOverflowTheFleet) {
  // Every library fits, and so do the first two together; only the third
  // takes the fleet total past INT64_MAX.
  FleetTopology t;
  t.capacity = {{int64_t{1} << 62}, {int64_t{1} << 61}, {int64_t{1} << 62}};
  EXPECT_EQ(ValidateCapacities(t).code(), StatusCode::kInvalidArgument);
  Status s = Catalog::Build(t, 1, PlacementOptions{}).status();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("fleet"), std::string::npos) << s.ToString();
  EXPECT_NE(s.message().find("library 2"), std::string::npos)
      << s.ToString();

  t.capacity.pop_back();
  EXPECT_TRUE(ValidateCapacities(t).ok());
  EXPECT_EQ(t.total_segments(), int64_t{3} << 61);
  EXPECT_TRUE(Catalog::Build(t, 1, PlacementOptions{}).ok());
}

// Holds every replica(), replicas() and placed_per_library() of the
// catalog to the placement loop in catalog_reference.h. Returns nothing
// when the reference rejects the input, and otherwise whether it placed
// every replica r of logical i on library (i + r) mod L, never skipping a
// full one: the round-robin case Build computes instead of storing.
std::optional<bool> ExpectMatchesReference(const FleetTopology& t,
                                           int64_t logical,
                                           const PlacementOptions& options,
                                           const std::string& label) {
  auto want = reference::Build(t, logical, options);
  auto got = Catalog::Build(t, logical, options);
  EXPECT_EQ(got.status().code(), want.status().code())
      << label << ": " << got.status().ToString() << " vs "
      << want.status().ToString();
  if (!want.ok() || !got.ok()) return std::nullopt;
  EXPECT_EQ(got->num_logical(), logical) << label;
  EXPECT_EQ(got->replication(), options.replication) << label;
  EXPECT_EQ(got->placed_per_library(), want->placed_per_library_) << label;
  bool unskipped = true;
  for (int64_t i = 0; i < logical; ++i) {
    const std::vector<ReplicaLocation>& expected = want->replicas_[i];
    for (int r = 0; r < options.replication; ++r) {
      const ReplicaLocation loc = got->replica(i, r);
      if (!(loc == expected[r])) {
        ADD_FAILURE() << label << ": logical " << i << " replica " << r
                      << " is (" << loc.library << ", " << loc.cartridge
                      << ", " << loc.segment << "), reference ("
                      << expected[r].library << ", " << expected[r].cartridge
                      << ", " << expected[r].segment << ")";
        return unskipped;
      }
      unskipped = unskipped && loc.library == (i + r) % t.libraries();
    }
    if (got->replicas(i) != expected) {
      ADD_FAILURE() << label << ": replicas(" << i << ") differs";
      return unskipped;
    }
  }
  return unskipped;
}

TEST(CatalogTest, MatchesTheReferencePlacement) {
  // Seeded topologies: 1-6 libraries of 1-4 cartridges with uneven
  // capacities, every replication, all three policies, and logical counts
  // from 1 to past the fleet's capacity, so round-robin both fits and
  // overfills some library.
  Lrand48 rng(20261018);
  int fitting = 0;
  int overfilling = 0;
  for (int trial = 0; trial < 2400; ++trial) {
    FleetTopology t;
    t.capacity.resize(1 + rng.NextBounded(6));
    for (std::vector<tape::SegmentId>& lib : t.capacity) {
      lib.resize(1 + rng.NextBounded(4));
      for (tape::SegmentId& c : lib) c = 1 + rng.NextBounded(12);
    }
    const int libraries = t.libraries();
    PlacementOptions options;
    options.policy = static_cast<PlacementPolicy>(trial % 3);
    options.replication = 1 + static_cast<int>(rng.NextBounded(libraries));
    options.seed = static_cast<int32_t>(rng.Next31());
    if (options.policy == PlacementPolicy::kWeighted && trial % 2 == 0) {
      options.weights.resize(libraries);
      for (double& w : options.weights) w = 0.5 * rng.NextBounded(5);
      options.weights[rng.NextBounded(libraries)] = 1.0;
    }
    const int64_t logical =
        1 + rng.NextBounded(t.total_segments() / options.replication + 2);
    const std::optional<bool> unskipped = ExpectMatchesReference(
        t, logical, options, "trial " + std::to_string(trial));
    if (HasFailure()) return;
    if (options.policy == PlacementPolicy::kRoundRobin &&
        unskipped.has_value()) {
      ++(*unskipped ? fitting : overfilling);
    }
  }
  // Both round-robin paths, computed and stored, saw hundreds of cases.
  EXPECT_GE(fitting, 300);
  EXPECT_GE(overfilling, 100);

  // fleet-replicated's fleet: 3 libraries x 2 DLT4000 cartridges,
  // replication 2, the smallest library's capacity of logical segments.
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/3, /*cartridges_per_library=*/2);
  const FleetTopology topology = uniform.fleet().Topology();
  int64_t logical = topology.library_segments(0);
  for (int lib = 1; lib < topology.libraries(); ++lib) {
    logical = std::min(logical, topology.library_segments(lib));
  }
  PlacementOptions options;
  options.replication = 2;
  EXPECT_EQ(ExpectMatchesReference(topology, logical, options, "3x2"),
            std::optional<bool>(true));
}

TEST(CatalogTest, RoundRobinHoldsNoPerSegmentState) {
  // 2^40-segment cartridges: one pointer per logical segment would be
  // 8 TiB, so this builds only if round-robin placement is computed.
  constexpr tape::SegmentId kCartridge = tape::SegmentId{1} << 40;

  // 1 x 1: the identity mapping, up to its last segment.
  auto one = Catalog::Build(UniformTopology(1, 1, kCartridge), kCartridge,
                            PlacementOptions{});
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->replica(kCartridge - 1, 0),
            (ReplicaLocation{0, 0, kCartridge - 1}));
  EXPECT_EQ(one->placed_per_library(), std::vector<int64_t>{kCartridge});

  // 3 x 2 at the smallest library's capacity, 2^41 logical segments. The
  // last logical segment's replicas are the last each of their libraries
  // took, so each sits at its library's placed count minus one, in
  // cartridge-major order.
  const int64_t logical = 2 * kCartridge;
  for (int replication = 1; replication <= 3; ++replication) {
    PlacementOptions options;
    options.replication = replication;
    auto three = Catalog::Build(UniformTopology(3, 2, kCartridge), logical,
                                options);
    ASSERT_TRUE(three.ok()) << three.status().ToString();
    const std::vector<int64_t>& placed = three->placed_per_library();
    ASSERT_EQ(placed.size(), 3u);
    EXPECT_EQ(placed[0] + placed[1] + placed[2], logical * replication);
    for (int r = 0; r < replication; ++r) {
      const int library = static_cast<int>((logical - 1 + r) % 3);
      const int64_t position = placed[library] - 1;
      EXPECT_EQ(three->replica(logical - 1, r),
                (ReplicaLocation{library,
                                 static_cast<int>(position / kCartridge),
                                 position % kCartridge}))
          << "replication " << replication << " replica " << r;
    }
  }
  // Worked by hand for replication 2: 2^41 = 3q + 2, and logical 2^41 - 1
  // = 3q + 1 puts replica 1 on library 2, which takes 2q + 1 segments.
  PlacementOptions options;
  options.replication = 2;
  auto two = Catalog::Build(UniformTopology(3, 2, kCartridge), logical,
                            options);
  ASSERT_TRUE(two.ok());
  const int64_t q = (logical - 2) / 3;
  EXPECT_EQ(two->placed_per_library(),
            (std::vector<int64_t>{2 * q + 1, 2 * q + 2, 2 * q + 1}));
  EXPECT_EQ(two->replica(logical - 1, 1),
            (ReplicaLocation{2, 1, 2 * q - kCartridge}));
}

TEST(CatalogDeathTest, ReplicaChecksItsBounds) {
  // Both storage forms: computed round-robin and the stored table.
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kRandom}) {
    PlacementOptions options;
    options.policy = policy;
    options.replication = 2;
    auto catalog = Catalog::Build(UniformTopology(3, 1, 8), 8, options);
    ASSERT_TRUE(catalog.ok());
    EXPECT_DEATH((void)catalog->replica(8, 0), "CHECK failed");
    EXPECT_DEATH((void)catalog->replica(-1, 0), "CHECK failed");
    EXPECT_DEATH((void)catalog->replica(0, 2), "CHECK failed");
    EXPECT_DEATH((void)catalog->replica(0, -1), "CHECK failed");
  }
}

TEST(CatalogTest, PolicyNamesRoundTrip) {
  for (PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kRandom,
        PlacementPolicy::kWeighted}) {
    auto parsed = PlacementPolicyFromString(PlacementPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_TRUE(PlacementPolicyFromString("roundrobin").ok());
  EXPECT_EQ(PlacementPolicyFromString("banana").status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- router

class RouterTest : public ::testing::Test {
 protected:
  RouterTest() {
    PlacementOptions options;
    options.replication = 3;
    auto built = Catalog::Build(UniformTopology(3, 1, 8), 8, options);
    SERPENTINE_CHECK(built.ok());
    catalog_ = std::make_unique<Catalog>(std::move(built).value());
  }

  std::unique_ptr<Catalog> catalog_;
};

TEST_F(RouterTest, PicksTheCheapestReplica) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(0, {{5.0, false}, {3.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 1);
  EXPECT_EQ(d.location, catalog_->replicas(0)[1]);
  EXPECT_EQ(d.score_seconds, 3.0);
  EXPECT_FALSE(d.failover);
}

TEST_F(RouterTest, TiesBreakTowardTheLowerIndex) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(2, {{3.0, false}, {3.0, false}, {5.0, false}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
}

TEST_F(RouterTest, FailsOverPastAnOpenBreaker) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(1, {{2.0, true}, {4.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 1);
  EXPECT_TRUE(d.failover);
  EXPECT_EQ(d.score_seconds, 4.0);
  EXPECT_EQ(router.failovers(), 1);
}

TEST_F(RouterTest, AllBreakersOpenFallsBackToScoreOrder) {
  Router router(catalog_.get(), 3);
  RouteDecision d = router.Route(3, {{2.0, true}, {4.0, true}, {9.0, true}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
  EXPECT_EQ(router.failovers(), 0);
}

TEST_F(RouterTest, FailoverCanBeDisabled) {
  RouterOptions options;
  options.failover_on_open_breaker = false;
  Router router(catalog_.get(), 3, options);
  RouteDecision d = router.Route(4, {{2.0, true}, {4.0, false}, {9.0, false}});
  EXPECT_EQ(d.replica, 0);
  EXPECT_FALSE(d.failover);
  EXPECT_EQ(router.failovers(), 0);
}

TEST_F(RouterTest, CountsDispatchesPerLibrary) {
  Router router(catalog_.get(), 3);
  // Round-robin catalog: logical i's replica 0 lives on library i mod 3.
  for (int64_t logical = 0; logical < 6; ++logical) {
    (void)router.Route(logical, {{1.0, false}, {2.0, false}, {3.0, false}});
  }
  EXPECT_EQ(router.dispatches(), 6);
  const std::vector<int64_t>& per = router.dispatches_per_library();
  ASSERT_EQ(per.size(), 3u);
  EXPECT_EQ(per[0] + per[1] + per[2], 6);
  EXPECT_EQ(per[0], 2);
  EXPECT_EQ(per[1], 2);
  EXPECT_EQ(per[2], 2);
}

// ------------------------------------------------- the determinism pin

class FleetPinTest : public ::testing::Test {
 protected:
  FleetPinTest()
      : one_(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
             /*libraries=*/1, /*cartridges_per_library=*/1, /*first_seed=*/1),
        model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  /// RunFleet(1 library) == RunOnlineServer, every field, bit for bit.
  void ExpectPinned(const sim::OnlineServerConfig& serving) {
    FleetConfig config;
    config.serving = serving;
    StatusOr<FleetResult> via_fleet = RunFleet(one_.fleet(), config);
    StatusOr<sim::OnlineServerResult> direct =
        sim::RunOnlineServer(model_, serving);
    ASSERT_TRUE(via_fleet.ok()) << via_fleet.status().ToString();
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    ExpectIdentical(via_fleet->total, *direct);
    // The per-library view of a 1-library fleet is the fleet total.
    ASSERT_EQ(via_fleet->per_library.size(), 1u);
    ExpectIdentical(via_fleet->per_library[0], *direct);
    EXPECT_EQ(via_fleet->routed_per_library[0], direct->arrivals);
    EXPECT_EQ(via_fleet->failovers, 0);
    EXPECT_EQ(via_fleet->cartridge_mounts, 0);  // one cartridge, no switches
  }

  static void ExpectIdentical(const sim::OnlineServerResult& a,
                              const sim::OnlineServerResult& b) {
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.failed, b.failed);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.deadline_missed, b.deadline_missed);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.mean_batch_size, b.mean_batch_size);
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    EXPECT_EQ(a.drive_busy_seconds, b.drive_busy_seconds);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.mean_response_seconds, b.mean_response_seconds);
    EXPECT_EQ(a.p95_response_seconds, b.p95_response_seconds);
    EXPECT_EQ(a.p99_response_seconds, b.p99_response_seconds);
    EXPECT_EQ(a.max_response_seconds, b.max_response_seconds);
    EXPECT_EQ(a.throughput_per_hour, b.throughput_per_hour);
    EXPECT_EQ(a.fault_retries, b.fault_retries);
    EXPECT_EQ(a.drive_resets, b.drive_resets);
    EXPECT_EQ(a.reschedules, b.reschedules);
    EXPECT_EQ(a.permanent_errors, b.permanent_errors);
    EXPECT_EQ(a.recovery_seconds, b.recovery_seconds);
    EXPECT_EQ(a.max_wait_cycles_observed, b.max_wait_cycles_observed);
    EXPECT_EQ(a.degraded_batches, b.degraded_batches);
    EXPECT_EQ(a.degradation_max_rung, b.degradation_max_rung);
    EXPECT_EQ(a.breaker_fast_fails, b.breaker_fast_fails);
    EXPECT_EQ(a.breaker_wait_seconds, b.breaker_wait_seconds);
    ASSERT_EQ(a.breaker_transitions.size(), b.breaker_transitions.size());
    for (size_t i = 0; i < a.breaker_transitions.size(); ++i) {
      EXPECT_EQ(a.breaker_transitions[i].at_seconds,
                b.breaker_transitions[i].at_seconds);
      EXPECT_EQ(a.breaker_transitions[i].from, b.breaker_transitions[i].from);
      EXPECT_EQ(a.breaker_transitions[i].to, b.breaker_transitions[i].to);
    }
    ASSERT_EQ(a.shed_records.size(), b.shed_records.size());
    for (size_t i = 0; i < a.shed_records.size(); ++i) {
      EXPECT_EQ(a.shed_records[i].id, b.shed_records[i].id);
      EXPECT_EQ(a.shed_records[i].arrival_seconds,
                b.shed_records[i].arrival_seconds);
      EXPECT_EQ(a.shed_records[i].priority, b.shed_records[i].priority);
      EXPECT_EQ(a.shed_records[i].status.code(), b.shed_records[i].status.code());
    }
  }

  UniformFleet one_;
  tape::Dlt4000LocateModel model_;
};

TEST_F(FleetPinTest, PinnedWithDefaults) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 120;
  serving.arrival_rate_per_hour = 60.0;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithAdmissionAndDeadlines) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 100;
  serving.arrival_rate_per_hour = 120.0;  // past saturation: sheds happen
  serving.deadline_seconds = 900.0;
  serving.deadline_spread = 0.5;
  serving.admission.enabled = true;
  serving.admission.max_queue_depth = 12;
  serving.seed = 7;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedUnderFaults) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 80;
  serving.arrival_rate_per_hour = 70.0;
  serving.faults = drive::FaultProfile::Heavy();
  serving.seed = 21;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithBreakerCycling) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 120;
  serving.arrival_rate_per_hour = 60.0;
  serving.faults = drive::FaultProfile::Heavy().Scaled(4.0);
  serving.breaker_enabled = true;
  serving.breaker.window_ops = 8;
  serving.breaker.failure_threshold = 3;
  serving.breaker.cooldown_seconds = 120.0;
  serving.breaker.half_open_successes = 1;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedWithCappedPriorityBatchesAndAging) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 90;
  serving.arrival_rate_per_hour = 100.0;
  serving.dispatch_max_batch = 6;
  serving.priority_classes = 3;
  serving.max_wait_cycles = 4;
  serving.seed = 11;
  ExpectPinned(serving);
}

TEST_F(FleetPinTest, PinnedUnderDegradation) {
  sim::OnlineServerConfig serving;
  serving.total_requests = 90;
  serving.arrival_rate_per_hour = 150.0;
  serving.degradation.enabled = true;
  serving.degradation.queue_depth_step = 8;
  serving.seed = 3;
  ExpectPinned(serving);
}

// ------------------------------------------------- the service estimate

/// The FIFO estimate of `chain` from `cartridge` with the head at `head`,
/// built from scratch: each same-cartridge run priced by
/// sched::EstimateScheduleSeconds, and each cartridge change charged the
/// rewind of the tape it leaves plus the exchange.
double ChainEstimateSeconds(
    const std::vector<const tape::LocateModel*>& models, int cartridge,
    tape::SegmentId head,
    const std::vector<std::pair<int, tape::SegmentId>>& chain,
    double exchange_seconds) {
  double total = 0.0;
  size_t i = 0;
  while (i < chain.size()) {
    if (chain[i].first != cartridge) {
      total += models[cartridge]->RewindSeconds(head) + exchange_seconds;
      cartridge = chain[i].first;
      head = 0;
    }
    sched::Schedule plan;
    plan.algorithm = sched::Algorithm::kFifo;
    plan.initial_position = head;
    for (; i < chain.size() && chain[i].first == cartridge; ++i) {
      plan.order.push_back(sched::Request{chain[i].second, 1});
    }
    total += sched::EstimateScheduleSeconds(*models[cartridge], plan);
    head = sched::OutPosition(models[cartridge]->geometry(),
                              plan.order.back());
  }
  return total;
}

TEST(ServingCoreEstimateTest, BidsEqualTheFromScratchFifoChain) {
  for (int cartridges : {1, 2}) {
    SCOPED_TRACE(std::to_string(cartridges) + " cartridge(s)");
    UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                         /*libraries=*/1, cartridges);
    const std::vector<const tape::LocateModel*>& models =
        uniform.fleet().models[0];
    constexpr int kRequests = 40;
    constexpr double kExchangeSeconds = 45.0;
    sim::OnlineServerConfig config;
    config.algorithm = sched::Algorithm::kFifo;
    config.dispatch_min_batch = kRequests + 1;  // held back until the end
    sim::ServingCore core(models, config, /*fault_stream=*/1,
                          kExchangeSeconds);
    const tape::SegmentId total = models[0]->geometry().total_segments();

    // Every bid, for a probe read on each cartridge, against the
    // from-scratch chain from cartridge `from_cart` at `from_head`.
    std::vector<std::pair<int, tape::SegmentId>> queued;
    auto expect_bids = [&](int from_cart, tape::SegmentId from_head) {
      for (int c = 0; c < cartridges; ++c) {
        for (tape::SegmentId probe : {tape::SegmentId{0}, total / 2}) {
          std::vector<std::pair<int, tape::SegmentId>> chain = queued;
          chain.emplace_back(c, probe);
          EXPECT_EQ(core.EstimateServiceSeconds(c, probe),
                    ChainEstimateSeconds(models, from_cart, from_head, chain,
                                         kExchangeSeconds))
              << "after " << queued.size() << " requests, probe (" << c
              << ", " << probe << ")";
        }
      }
    };

    Lrand48 rng(5);
    double t = 0.0;
    for (int i = 0; i < kRequests; ++i) {
      sim::ServingRequest r;
      t += 1.0 + rng.NextDouble();
      r.time = t;
      r.id = i;
      r.cartridge = static_cast<int>(rng.NextBounded(cartridges));
      r.segment = rng.NextBounded(total);
      core.Push(r);
      queued.emplace_back(r.cartridge, r.segment);
      expect_bids(/*from_cart=*/0, /*from_head=*/0);  // r still undelivered
      while (core.Step() == sim::ServingStep::kRan) {
      }
      ASSERT_EQ(core.queue_depth(), i + 1);
      expect_bids(/*from_cart=*/0, /*from_head=*/0);  // r admitted
    }

    // One FIFO dispatch of everything queued: cartridge 0's group first,
    // then cartridge 1's when there are two. The estimate restarts over an
    // empty queue from the last read's out-position.
    core.FinishInput();
    ASSERT_EQ(core.Step(), sim::ServingStep::kRan);
    ASSERT_EQ(core.result().batches, 1);
    ASSERT_EQ(core.queue_depth(), 0);
    const int last_cart = cartridges - 1;
    tape::SegmentId last_segment = -1;
    for (const auto& [cart, segment] : queued) {
      if (cart == last_cart) last_segment = segment;
    }
    ASSERT_GE(last_segment, 0);
    queued.clear();
    expect_bids(last_cart,
                sched::OutPosition(models[last_cart]->geometry(),
                                   sched::Request{last_segment, 1}));
    EXPECT_EQ(core.Step(), sim::ServingStep::kDone);
  }
}

// ------------------------------------------------------- multi-library

class FleetServerTest : public ::testing::Test {
 protected:
  static FleetConfig BaseConfig(int libraries) {
    FleetConfig config;
    config.serving.total_requests = 90;
    config.serving.arrival_rate_per_hour = 40.0 * libraries;
    config.placement.replication = std::min(libraries, 2);
    config.mount_exchange_seconds = 75.0;
    return config;
  }
};

TEST_F(FleetServerTest, ConservesEveryArrivalAcrossLibraries) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/3, /*cartridges_per_library=*/2);
  FleetConfig config = BaseConfig(3);
  StatusOr<FleetResult> result = RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->total.arrivals, config.serving.total_requests);
  EXPECT_EQ(result->total.shed + result->total.completed + result->total.failed,
            result->total.arrivals);
  ASSERT_EQ(result->per_library.size(), 3u);
  ASSERT_EQ(result->routed_per_library.size(), 3u);
  int64_t routed = 0;
  int served = 0;
  for (int lib = 0; lib < 3; ++lib) {
    routed += result->routed_per_library[lib];
    served += result->per_library[lib].arrivals;
    EXPECT_EQ(result->per_library[lib].arrivals,
              static_cast<int>(result->routed_per_library[lib]));
  }
  EXPECT_EQ(routed, result->total.arrivals);
  EXPECT_EQ(served, result->total.arrivals);
  // Two cartridges per library and interleaved segments: switches happen.
  EXPECT_GT(result->cartridge_mounts, 0);
  EXPECT_GT(result->mount_seconds, 0.0);
}

TEST_F(FleetServerTest, MultiLibraryRunsAreDeterministic) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/2);
  FleetConfig config = BaseConfig(2);
  config.placement.policy = PlacementPolicy::kRandom;
  StatusOr<FleetResult> a = RunFleet(uniform.fleet(), config);
  StatusOr<FleetResult> b = RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total.completed, b->total.completed);
  EXPECT_EQ(a->total.makespan_seconds, b->total.makespan_seconds);
  EXPECT_EQ(a->total.p99_response_seconds, b->total.p99_response_seconds);
  EXPECT_EQ(a->routed_per_library, b->routed_per_library);
  EXPECT_EQ(a->cartridge_mounts, b->cartridge_mounts);
  EXPECT_EQ(a->mount_seconds, b->mount_seconds);
}

TEST_F(FleetServerTest, ReplicatedFleetIsThreadCountInvariant) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/1);
  FleetConfig config = BaseConfig(2);
  config.serving.total_requests = 50;
  config.serving.faults = drive::FaultProfile::Light();

  // Placement (ingest state) is not re-drawn: only the serving seed moves.
  auto replicated = [&](int threads) {
    auto run = [&](int32_t seed) {
      FleetConfig replica = config;
      replica.serving.seed = seed;
      return RunFleet(uniform.fleet(), replica).value();
    };
    return Replicate("RunFleet", config.serving.seed, 5, threads,
                     /*concurrent=*/true, run);
  };
  auto serial = replicated(/*threads=*/1);
  auto two = replicated(/*threads=*/2);
  auto eight = replicated(/*threads=*/8);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(two.ok());
  ASSERT_TRUE(eight.ok());
  ASSERT_EQ(serial->size(), 5u);
  for (const std::vector<FleetResult>* other : {&*two, &*eight}) {
    ASSERT_EQ(serial->size(), other->size());
    for (size_t r = 0; r < serial->size(); ++r) {
      const FleetResult& a = (*serial)[r];
      const FleetResult& b = (*other)[r];
      EXPECT_EQ(a.total.completed, b.total.completed);
      EXPECT_EQ(a.total.p99_response_seconds, b.total.p99_response_seconds);
      EXPECT_EQ(a.total.makespan_seconds, b.total.makespan_seconds);
      EXPECT_EQ(a.routed_per_library, b.routed_per_library);
      EXPECT_EQ(a.total.mean_response_seconds,
                b.total.mean_response_seconds);
      EXPECT_EQ(a.total.utilization, b.total.utilization);
      EXPECT_EQ(a.total.shed, b.total.shed);
      EXPECT_EQ(a.failovers, b.failovers);
    }
  }
}

TEST_F(FleetServerTest, ValidateRejectsGarbage) {
  UniformFleet uniform(tape::Dlt4000TapeParams(), tape::Dlt4000Timings(),
                       /*libraries=*/2, /*cartridges_per_library=*/1);
  FleetConfig ok = BaseConfig(2);
  EXPECT_TRUE(ValidateFleetConfig(uniform.fleet(), ok).ok());

  Fleet empty;
  EXPECT_EQ(ValidateFleetConfig(empty, ok).code(),
            StatusCode::kInvalidArgument);

  Fleet holed;
  holed.models = {{uniform.fleet().models[0][0]}, {}};
  EXPECT_EQ(ValidateFleetConfig(holed, ok).code(),
            StatusCode::kInvalidArgument);

  FleetConfig bad = ok;
  bad.mount_exchange_seconds = -1.0;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.logical_segments = -5;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  bad = ok;
  bad.serving.arrival_rate_per_hour = -3.0;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);

  // Replication past the library count surfaces from Catalog::Build.
  bad = ok;
  bad.placement.replication = 5;
  EXPECT_EQ(RunFleet(uniform.fleet(), bad).status().code(),
            StatusCode::kInvalidArgument);

  // The serving validator's OPT batch bound applies per library.
  bad = ok;
  bad.serving.algorithm = sched::Algorithm::kOpt;
  EXPECT_EQ(ValidateFleetConfig(uniform.fleet(), bad).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serpentine::fleet
