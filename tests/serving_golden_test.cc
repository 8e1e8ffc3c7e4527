// Golden trajectories of the multi-library serving drivers: RunFleet with
// replication, with one replica per segment, and with capped dispatches
// over three replicas; RunStress with tenants, cache and coalescing under
// overload (poisson and bursty arrivals); and the default interleaved
// migration. Every scalar result field is pinned
// exactly, to hex-float literals recorded from the drivers, so a refactor
// of the serving loop that moves any simulated value by one ulp fails
// here. The other pins compare two entry points with each other; these
// compare each entry point with its recorded past.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/layout/heat_map.h"
#include "serpentine/layout/migration.h"
#include "serpentine/layout/placement.h"
#include "serpentine/sched/registry.h"
#include "serpentine/stress/stress.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/tape/params.h"
#include "serpentine/workload/generators.h"

namespace serpentine {
namespace {

/// The scalar fields of sim::OnlineServerResult, plus the lengths of its
/// two record vectors.
struct OnlineGolden {
  int64_t arrivals;
  int64_t admitted;
  int64_t completed;
  int64_t failed;
  int64_t shed;
  int64_t deadline_missed;
  int64_t batches;
  double mean_batch_size;
  double makespan_seconds;
  double drive_busy_seconds;
  double utilization;
  double mean_response_seconds;
  double p95_response_seconds;
  double p99_response_seconds;
  double max_response_seconds;
  double throughput_per_hour;
  int64_t fault_retries;
  int64_t drive_resets;
  int64_t reschedules;
  int64_t permanent_errors;
  double recovery_seconds;
  int max_wait_cycles_observed;
  int64_t degraded_batches;
  int degradation_max_rung;
  int64_t breaker_fast_fails;
  double breaker_wait_seconds;
  int64_t breaker_transitions;
  int64_t shed_records;
};

void ExpectOnline(const sim::OnlineServerResult& r, const OnlineGolden& g) {
  EXPECT_EQ(r.arrivals, g.arrivals);
  EXPECT_EQ(r.admitted, g.admitted);
  EXPECT_EQ(r.completed, g.completed);
  EXPECT_EQ(r.failed, g.failed);
  EXPECT_EQ(r.shed, g.shed);
  EXPECT_EQ(r.deadline_missed, g.deadline_missed);
  EXPECT_EQ(r.batches, g.batches);
  EXPECT_EQ(r.mean_batch_size, g.mean_batch_size);
  EXPECT_EQ(r.makespan_seconds, g.makespan_seconds);
  EXPECT_EQ(r.drive_busy_seconds, g.drive_busy_seconds);
  EXPECT_EQ(r.utilization, g.utilization);
  EXPECT_EQ(r.mean_response_seconds, g.mean_response_seconds);
  EXPECT_EQ(r.p95_response_seconds, g.p95_response_seconds);
  EXPECT_EQ(r.p99_response_seconds, g.p99_response_seconds);
  EXPECT_EQ(r.max_response_seconds, g.max_response_seconds);
  EXPECT_EQ(r.throughput_per_hour, g.throughput_per_hour);
  EXPECT_EQ(r.fault_retries, g.fault_retries);
  EXPECT_EQ(r.drive_resets, g.drive_resets);
  EXPECT_EQ(r.reschedules, g.reschedules);
  EXPECT_EQ(r.permanent_errors, g.permanent_errors);
  EXPECT_EQ(r.recovery_seconds, g.recovery_seconds);
  EXPECT_EQ(r.max_wait_cycles_observed, g.max_wait_cycles_observed);
  EXPECT_EQ(r.degraded_batches, g.degraded_batches);
  EXPECT_EQ(r.degradation_max_rung, g.degradation_max_rung);
  EXPECT_EQ(r.breaker_fast_fails, g.breaker_fast_fails);
  EXPECT_EQ(r.breaker_wait_seconds, g.breaker_wait_seconds);
  EXPECT_EQ(static_cast<int64_t>(r.breaker_transitions.size()),
            g.breaker_transitions);
  EXPECT_EQ(static_cast<int64_t>(r.shed_records.size()), g.shed_records);
}

struct FleetGolden {
  OnlineGolden total;
  std::vector<OnlineGolden> per_library;
  std::vector<int64_t> routed_per_library;
  std::vector<int64_t> placed_per_library;
  int64_t failovers;
  int64_t cartridge_mounts;
  double mount_seconds;
};

void ExpectFleet(const fleet::FleetResult& r, const FleetGolden& g) {
  {
    SCOPED_TRACE("total");
    ExpectOnline(r.total, g.total);
  }
  ASSERT_EQ(r.per_library.size(), g.per_library.size());
  for (size_t lib = 0; lib < g.per_library.size(); ++lib) {
    SCOPED_TRACE("library " + std::to_string(lib));
    ExpectOnline(r.per_library[lib], g.per_library[lib]);
  }
  EXPECT_EQ(r.routed_per_library, g.routed_per_library);
  EXPECT_EQ(r.placed_per_library, g.placed_per_library);
  EXPECT_EQ(r.failovers, g.failovers);
  EXPECT_EQ(r.cartridge_mounts, g.cartridge_mounts);
  EXPECT_EQ(r.mount_seconds, g.mount_seconds);
}

TEST(ServingGoldenTest, FleetReplicatedWithAdmissionDeadlinesAndBreaker) {
  fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                              tape::Dlt4000Timings(), /*libraries=*/3,
                              /*cartridges_per_library=*/2);
  fleet::FleetConfig config;
  config.serving.total_requests = 400;
  config.serving.arrival_rate_per_hour = 320.0;
  config.serving.seed = 13;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = 16;
  config.serving.deadline_seconds = 900.0;
  config.serving.deadline_spread = 0.5;
  config.serving.faults = drive::FaultProfile::Light().Scaled(3.0);
  config.serving.breaker_enabled = true;
  config.serving.breaker.window_ops = 4;
  config.serving.breaker.failure_threshold = 1;
  config.serving.breaker.cooldown_seconds = 60.0;
  config.serving.breaker.half_open_successes = 1;
  config.placement.replication = 2;
  config.mount_exchange_seconds = 30.0;
  StatusOr<fleet::FleetResult> result = fleet::RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFleet(*result, {
      .total = {
          .arrivals = 400,
          .admitted = 217,
          .completed = 217,
          .failed = 0,
          .shed = 183,
          .deadline_missed = 30,
          .batches = 26,
          .mean_batch_size = 0x1.0b13b13b13b14p+3,
          .makespan_seconds = 0x1.48a0e55d5e541p+12,
          .drive_busy_seconds = 0x1.d411f66e947fp+13,
          .utilization = 0x1.6c9fd74af7e8ep+1,
          .mean_response_seconds = 0x1.8beff9fb4c0f4p+9,
          .p95_response_seconds = 0x1.62e9a36d6c2a4p+10,
          .p99_response_seconds = 0x1.7b359b08acdc4p+10,
          .max_response_seconds = 0x1.9d0ba9efb7f36p+10,
          .throughput_per_hour = 0x1.2924dfc930899p+7,
          .fault_retries = 14,
          .drive_resets = 1,
          .reschedules = 7,
          .permanent_errors = 0,
          .recovery_seconds = 0x1.486963317935ap+10,
          .max_wait_cycles_observed = 0,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 15,
          .breaker_wait_seconds = 0x1.c2p+9,
          .breaker_transitions = 45,
          .shed_records = 183,
      },
      .per_library = {
          {
              .arrivals = 156,
              .admitted = 79,
              .completed = 79,
              .failed = 0,
              .shed = 77,
              .deadline_missed = 6,
              .batches = 9,
              .mean_batch_size = 0x1.18e38e38e38e4p+3,
              .makespan_seconds = 0x1.43833cdd1cdb7p+12,
              .drive_busy_seconds = 0x1.34833cdd1cdb7p+12,
              .utilization = 0x1.e842b5e67816ap-1,
              .mean_response_seconds = 0x1.7c35859481998p+9,
              .p95_response_seconds = 0x1.372ba71c06de8p+10,
              .p99_response_seconds = 0x1.60080818a04d8p+10,
              .max_response_seconds = 0x1.617bfbaabb86cp+10,
              .throughput_per_hour = 0x1.b78cd000b87cfp+5,
              .fault_retries = 4,
              .drive_resets = 0,
              .reschedules = 3,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.7f4f1d24d9716p+8,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 4,
              .breaker_wait_seconds = 0x1.ep+7,
              .breaker_transitions = 12,
              .shed_records = 77,
          },
          {
              .arrivals = 125,
              .admitted = 69,
              .completed = 69,
              .failed = 0,
              .shed = 56,
              .deadline_missed = 8,
              .batches = 9,
              .mean_batch_size = 0x1.eaaaaaaaaaaabp+2,
              .makespan_seconds = 0x1.48a0e55d5e541p+12,
              .drive_busy_seconds = 0x1.39a0e55d5e541p+12,
              .utilization = 0x1.e8a15142adc53p-1,
              .mean_response_seconds = 0x1.709253d59bc39p+9,
              .p95_response_seconds = 0x1.6130efa29ca04p+10,
              .p99_response_seconds = 0x1.76fe841a6f2bcp+10,
              .max_response_seconds = 0x1.847a8e3d7f691p+10,
              .throughput_per_hour = 0x1.79ef31ddadceep+5,
              .fault_retries = 5,
              .drive_resets = 0,
              .reschedules = 1,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.9812c2f80a3d6p+8,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 5,
              .breaker_wait_seconds = 0x1.2cp+8,
              .breaker_transitions = 15,
              .shed_records = 56,
          },
          {
              .arrivals = 119,
              .admitted = 69,
              .completed = 69,
              .failed = 0,
              .shed = 50,
              .deadline_missed = 16,
              .batches = 8,
              .mean_batch_size = 0x1.14p+3,
              .makespan_seconds = 0x1.453fcaa2adce8p+12,
              .drive_busy_seconds = 0x1.39ffcaa2adce8p+12,
              .utilization = 0x1.ee4a5e4cb1c43p-1,
              .mean_response_seconds = 0x1.b94f9fd5bf0e9p+9,
              .p95_response_seconds = 0x1.6c248767105f4p+10,
              .p99_response_seconds = 0x1.809f04c739aaep+10,
              .max_response_seconds = 0x1.9d0ba9efb7f36p+10,
              .throughput_per_hour = 0x1.7ddc6eaa46e94p+5,
              .fault_retries = 5,
              .drive_resets = 1,
              .reschedules = 3,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.0521d6548093ep+9,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 6,
              .breaker_wait_seconds = 0x1.68p+8,
              .breaker_transitions = 18,
              .shed_records = 50,
          }},
      .routed_per_library = {156, 125, 119},
      .placed_per_library = {829008, 829008, 829008},
      .failovers = 0,
      .cartridge_mounts = 22,
      .mount_seconds = 0x1.f57cecbb85276p+10,
  });
}

TEST(ServingGoldenTest, FleetOneReplicaPerSegment) {
  fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                              tape::Dlt4000Timings(), /*libraries=*/3,
                              /*cartridges_per_library=*/1);
  fleet::FleetConfig config;
  config.serving.total_requests = 240;
  config.serving.arrival_rate_per_hour = 120.0;
  config.serving.seed = 17;
  StatusOr<fleet::FleetResult> result = fleet::RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFleet(*result, {
      .total = {
          .arrivals = 240,
          .admitted = 240,
          .completed = 240,
          .failed = 0,
          .shed = 0,
          .deadline_missed = 0,
          .batches = 154,
          .mean_batch_size = 0x1.8ef606a63bd82p+0,
          .makespan_seconds = 0x1.e17f05dd09f61p+12,
          .drive_busy_seconds = 0x1.1f0913246cc0ap+14,
          .utilization = 0x1.313842334aaefp+1,
          .mean_response_seconds = 0x1.49fb44523f1c2p+7,
          .p95_response_seconds = 0x1.475209ef69f1ep+8,
          .p99_response_seconds = 0x1.85bd2de7a8f78p+8,
          .max_response_seconds = 0x1.d9a5bfff1e54p+8,
          .throughput_per_hour = 0x1.c09a08261d024p+6,
          .fault_retries = 0,
          .drive_resets = 0,
          .reschedules = 0,
          .permanent_errors = 0,
          .recovery_seconds = 0x0p+0,
          .max_wait_cycles_observed = 0,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 0,
          .breaker_wait_seconds = 0x0p+0,
          .breaker_transitions = 0,
          .shed_records = 0,
      },
      .per_library = {
          {
              .arrivals = 80,
              .admitted = 80,
              .completed = 80,
              .failed = 0,
              .shed = 0,
              .deadline_missed = 0,
              .batches = 51,
              .mean_batch_size = 0x1.9191919191919p+0,
              .makespan_seconds = 0x1.de59191fcccd2p+12,
              .drive_busy_seconds = 0x1.89814905d7f58p+12,
              .utilization = 0x1.a53030b67b24cp-1,
              .mean_response_seconds = 0x1.44d521e83325bp+7,
              .p95_response_seconds = 0x1.4a332cde3f3ep+8,
              .p99_response_seconds = 0x1.76f00d11db1ap+8,
              .max_response_seconds = 0x1.d37a59ce7ed2p+8,
              .throughput_per_hour = 0x1.2d0939f954ffcp+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 0,
          },
          {
              .arrivals = 83,
              .admitted = 83,
              .completed = 83,
              .failed = 0,
              .shed = 0,
              .deadline_missed = 0,
              .batches = 50,
              .mean_batch_size = 0x1.a8f5c28f5c28fp+0,
              .makespan_seconds = 0x1.dea4746eaad46p+12,
              .drive_busy_seconds = 0x1.8ab09c51aaf62p+12,
              .utilization = 0x1.a63258074afa5p-1,
              .mean_response_seconds = 0x1.5a9c9e78b5ac6p+7,
              .p95_response_seconds = 0x1.4041949029d68p+8,
              .p99_response_seconds = 0x1.58a535b6988ap+8,
              .max_response_seconds = 0x1.85bd2de7a8f78p+8,
              .throughput_per_hour = 0x1.382200231e486p+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 0,
          },
          {
              .arrivals = 77,
              .admitted = 77,
              .completed = 77,
              .failed = 0,
              .shed = 0,
              .deadline_missed = 0,
              .batches = 53,
              .mean_batch_size = 0x1.73ecade304d48p+0,
              .makespan_seconds = 0x1.d79056c04d67fp+12,
              .drive_busy_seconds = 0x1.67f2673a3016fp+12,
              .utilization = 0x1.86cfdffb19567p-1,
              .mean_response_seconds = 0x1.3d67a9cf7bf2p+7,
              .p95_response_seconds = 0x1.2ec762a4fp+8,
              .p99_response_seconds = 0x1.a7dd533780dbp+8,
              .max_response_seconds = 0x1.d9a5bfff1e54p+8,
              .throughput_per_hour = 0x1.25ea69bd2417ep+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 0,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 0,
          }},
      .routed_per_library = {80, 83, 77},
      .placed_per_library = {207235, 207234, 207234},
      .failovers = 0,
      .cartridge_mounts = 0,
      .mount_seconds = 0x0p+0,
  });
}

/// Three libraries of two cartridges with every segment on all three, so
/// each arrival takes three bids, at about twice what the fleet serves.
/// Dispatches take at most 6 of up to 24 queued requests, so each one
/// leaves requests behind, and three priority classes under an aging bound
/// take the sorted, non-prefix removal path. The depth cap and the spread
/// deadlines shed both ways.
fleet::FleetConfig CappedReplicatedConfig() {
  fleet::FleetConfig config;
  config.serving.total_requests = 600;
  config.serving.arrival_rate_per_hour = 280.0;
  config.serving.seed = 29;
  config.serving.dispatch_max_batch = 6;
  config.serving.priority_classes = 3;
  config.serving.max_wait_cycles = 3;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = 24;
  config.serving.deadline_seconds = 1800.0;
  config.serving.deadline_spread = 1.0;
  config.placement.replication = 3;
  config.mount_exchange_seconds = 30.0;
  return config;
}

TEST(ServingGoldenTest, FleetCappedDispatchThreeReplicas) {
  fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                              tape::Dlt4000Timings(), /*libraries=*/3,
                              /*cartridges_per_library=*/2);
  StatusOr<fleet::FleetResult> result =
      fleet::RunFleet(uniform.fleet(), CappedReplicatedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFleet(*result, {
      .total = {
          .arrivals = 600,
          .admitted = 414,
          .completed = 414,
          .failed = 0,
          .shed = 186,
          .deadline_missed = 2,
          .batches = 62,
          .mean_batch_size = 0x1.ab5ad6b5ad6b6p+2,
          .makespan_seconds = 0x1.3561ac2fa410dp+13,
          .drive_busy_seconds = 0x1.b64c2b5f08bbap+14,
          .utilization = 0x1.6aac27f00b85dp+1,
          .mean_response_seconds = 0x1.6b7dab7f9bc63p+10,
          .p95_response_seconds = 0x1.06884d68c3094p+11,
          .p99_response_seconds = 0x1.1561428d274b3p+11,
          .max_response_seconds = 0x1.33449749787fap+11,
          .throughput_per_hour = 0x1.2d15a51b3aabfp+7,
          .fault_retries = 0,
          .drive_resets = 0,
          .reschedules = 0,
          .permanent_errors = 0,
          .recovery_seconds = 0x0p+0,
          .max_wait_cycles_observed = 2,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 0,
          .breaker_wait_seconds = 0x0p+0,
          .breaker_transitions = 0,
          .shed_records = 186,
      },
      .per_library = {
          {
              .arrivals = 177,
              .admitted = 129,
              .completed = 129,
              .failed = 0,
              .shed = 48,
              .deadline_missed = 1,
              .batches = 19,
              .mean_batch_size = 0x1.b286bca1af287p+2,
              .makespan_seconds = 0x1.32269294415a5p+13,
              .drive_busy_seconds = 0x1.24169294415a4p+13,
              .utilization = 0x1.e87b6f634b9c2p-1,
              .mean_response_seconds = 0x1.83bf276e3d5b1p+10,
              .p95_response_seconds = 0x1.07bb8adf4d7bep+11,
              .p99_response_seconds = 0x1.24a36843e3a7cp+11,
              .max_response_seconds = 0x1.33449749787fap+11,
              .throughput_per_hour = 0x1.7b399bdedcc94p+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 48,
          },
          {
              .arrivals = 216,
              .admitted = 147,
              .completed = 147,
              .failed = 0,
              .shed = 69,
              .deadline_missed = 0,
              .batches = 23,
              .mean_batch_size = 0x1.990b21642c859p+2,
              .makespan_seconds = 0x1.2f89bd125f74bp+13,
              .drive_busy_seconds = 0x1.2449bd125f74ap+13,
              .utilization = 0x1.ed0617732bae4p-1,
              .mean_response_seconds = 0x1.4d353c49eae44p+10,
              .p95_response_seconds = 0x1.c6c53453d89bcp+10,
              .p99_response_seconds = 0x1.ec4bde75682e8p+10,
              .max_response_seconds = 0x1.08cf63c8ccb6p+11,
              .throughput_per_hour = 0x1.b3dc1562acb3ep+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 69,
          },
          {
              .arrivals = 207,
              .admitted = 138,
              .completed = 138,
              .failed = 0,
              .shed = 69,
              .deadline_missed = 1,
              .batches = 20,
              .mean_batch_size = 0x1.b99999999999ap+2,
              .makespan_seconds = 0x1.3518071770a83p+13,
              .drive_busy_seconds = 0x1.2438071770a85p+13,
              .utilization = 0x1.e40c1d869843bp-1,
              .mean_response_seconds = 0x1.75132e1c83edep+10,
              .p95_response_seconds = 0x1.0c381ea120ffbp+11,
              .p99_response_seconds = 0x1.12557d0319796p+11,
              .max_response_seconds = 0x1.1bbf816b163a2p+11,
              .throughput_per_hour = 0x1.91d1d7913335ep+5,
              .fault_retries = 0,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x0p+0,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 0,
              .breaker_wait_seconds = 0x0p+0,
              .breaker_transitions = 0,
              .shed_records = 69,
          }},
      .routed_per_library = {177, 216, 207},
      .placed_per_library = {1243512, 1243512, 1243512},
      .failovers = 0,
      .cartridge_mounts = 45,
      .mount_seconds = 0x1.125484e605faep+12,
  });
}

TEST(ServingGoldenTest, FleetCappedDispatchThreeReplicasUnderFaults) {
  fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                              tape::Dlt4000Timings(), /*libraries=*/3,
                              /*cartridges_per_library=*/2);
  fleet::FleetConfig config = CappedReplicatedConfig();
  config.serving.faults = drive::FaultProfile::Light().Scaled(3.0);
  config.serving.breaker_enabled = true;
  config.serving.breaker.window_ops = 4;
  config.serving.breaker.failure_threshold = 1;
  config.serving.breaker.cooldown_seconds = 60.0;
  config.serving.breaker.half_open_successes = 1;
  StatusOr<fleet::FleetResult> result = fleet::RunFleet(uniform.fleet(), config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectFleet(*result, {
      .total = {
          .arrivals = 600,
          .admitted = 392,
          .completed = 392,
          .failed = 0,
          .shed = 208,
          .deadline_missed = 6,
          .batches = 58,
          .mean_batch_size = 0x1.b08d3dcb08d3ep+2,
          .makespan_seconds = 0x1.336cd59ccd073p+13,
          .drive_busy_seconds = 0x1.b443ff21bf35ap+14,
          .utilization = 0x1.6b49d70292fe7p+1,
          .mean_response_seconds = 0x1.84f2fe3658e33p+10,
          .p95_response_seconds = 0x1.149ffc2e2d37ep+11,
          .p99_response_seconds = 0x1.3c8e78a7a8716p+11,
          .max_response_seconds = 0x1.67ef64cbfa9f7p+11,
          .throughput_per_hour = 0x1.1ee62c9cb80f6p+7,
          .fault_retries = 22,
          .drive_resets = 0,
          .reschedules = 5,
          .permanent_errors = 0,
          .recovery_seconds = 0x1.ac3adff05ec99p+10,
          .max_wait_cycles_observed = 2,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 22,
          .breaker_wait_seconds = 0x1.4ap+10,
          .breaker_transitions = 66,
          .shed_records = 208,
      },
      .per_library = {
          {
              .arrivals = 224,
              .admitted = 130,
              .completed = 130,
              .failed = 0,
              .shed = 94,
              .deadline_missed = 1,
              .batches = 19,
              .mean_batch_size = 0x1.b5e50d79435e5p+2,
              .makespan_seconds = 0x1.3307ad61de993p+13,
              .drive_busy_seconds = 0x1.26d7ad61de994p+13,
              .utilization = 0x1.ebad1ee11764ap-1,
              .mean_response_seconds = 0x1.886de4ef7de4dp+10,
              .p95_response_seconds = 0x1.145b8b17a8f7cp+11,
              .p99_response_seconds = 0x1.287b6e76360c6p+11,
              .max_response_seconds = 0x1.30d085435690ap+11,
              .throughput_per_hour = 0x1.7d11fd038962bp+5,
              .fault_retries = 8,
              .drive_resets = 0,
              .reschedules = 2,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.452862540c159p+9,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 8,
              .breaker_wait_seconds = 0x1.ep+8,
              .breaker_transitions = 24,
              .shed_records = 94,
          },
          {
              .arrivals = 169,
              .admitted = 127,
              .completed = 127,
              .failed = 0,
              .shed = 42,
              .deadline_missed = 4,
              .batches = 19,
              .mean_batch_size = 0x1.abca1af286bcap+2,
              .makespan_seconds = 0x1.2b438c76b51ap+13,
              .drive_busy_seconds = 0x1.1f138c76b51a1p+13,
              .utilization = 0x1.eb261a1643b86p-1,
              .mean_response_seconds = 0x1.8db9413f1edbcp+10,
              .p95_response_seconds = 0x1.2ff5ae85eeed8p+11,
              .p99_response_seconds = 0x1.577d0d8f6137ap+11,
              .max_response_seconds = 0x1.67ef64cbfa9f7p+11,
              .throughput_per_hour = 0x1.7defec00ca03dp+5,
              .fault_retries = 9,
              .drive_resets = 0,
              .reschedules = 3,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.76ffb843633f4p+9,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 9,
              .breaker_wait_seconds = 0x1.0ep+9,
              .breaker_transitions = 27,
              .shed_records = 42,
          },
          {
              .arrivals = 207,
              .admitted = 135,
              .completed = 135,
              .failed = 0,
              .shed = 72,
              .deadline_missed = 1,
              .batches = 20,
              .mean_batch_size = 0x1.bp+2,
              .makespan_seconds = 0x1.30acc46aeab7ep+13,
              .drive_busy_seconds = 0x1.229cc46aeab7fp+13,
              .utilization = 0x1.e85e45b84b4f7p-1,
              .mean_response_seconds = 0x1.7957f02493aa8p+10,
              .p95_response_seconds = 0x1.061658327615ap+11,
              .p99_response_seconds = 0x1.16e09610538p+11,
              .max_response_seconds = 0x1.388b0be265b1fp+11,
              .throughput_per_hour = 0x1.8ec9277a0924dp+5,
              .fault_retries = 5,
              .drive_resets = 0,
              .reschedules = 0,
              .permanent_errors = 0,
              .recovery_seconds = 0x1.389b4a929c7ccp+8,
              .max_wait_cycles_observed = 2,
              .degraded_batches = 0,
              .degradation_max_rung = 0,
              .breaker_fast_fails = 5,
              .breaker_wait_seconds = 0x1.2cp+8,
              .breaker_transitions = 15,
              .shed_records = 72,
          }},
      .routed_per_library = {224, 169, 207},
      .placed_per_library = {1243512, 1243512, 1243512},
      .failovers = 0,
      .cartridge_mounts = 41,
      .mount_seconds = 0x1.ead95bcd07df2p+11,
  });
}

/// A tenant's terminal counts, answered requests and summed latency.
struct TenantGolden {
  const char* name;
  int64_t arrivals;
  int64_t cache_hits;
  int64_t coalesced;
  int64_t completed;
  int64_t failed;
  int64_t shed;
  int64_t answered;
  double response_total_seconds;
};

struct StressGolden {
  int64_t arrivals;
  int64_t cache_hits;
  int64_t coalesced;
  int64_t completed;
  int64_t failed;
  int64_t shed;
  int64_t dispatched;
  int64_t latency_count;
  double mean_response_seconds;
  double p50_response_seconds;
  double p95_response_seconds;
  double p99_response_seconds;
  double p999_response_seconds;
  double max_response_seconds;
  double makespan_seconds;
  double throughput_per_hour;
  double offered_rate_per_hour;
  double utilization;
  double fairness_jain;
  std::vector<TenantGolden> tenants;
  OnlineGolden engine;
};

void ExpectStress(const stress::StressResult& r, const StressGolden& g) {
  EXPECT_EQ(r.arrivals, g.arrivals);
  EXPECT_EQ(r.cache_hits, g.cache_hits);
  EXPECT_EQ(r.coalesced, g.coalesced);
  EXPECT_EQ(r.completed, g.completed);
  EXPECT_EQ(r.failed, g.failed);
  EXPECT_EQ(r.shed, g.shed);
  EXPECT_EQ(r.dispatched, g.dispatched);
  EXPECT_EQ(r.latency.count(), g.latency_count);
  EXPECT_EQ(r.mean_response_seconds, g.mean_response_seconds);
  EXPECT_EQ(r.p50_response_seconds, g.p50_response_seconds);
  EXPECT_EQ(r.p95_response_seconds, g.p95_response_seconds);
  EXPECT_EQ(r.p99_response_seconds, g.p99_response_seconds);
  EXPECT_EQ(r.p999_response_seconds, g.p999_response_seconds);
  EXPECT_EQ(r.max_response_seconds, g.max_response_seconds);
  EXPECT_EQ(r.makespan_seconds, g.makespan_seconds);
  EXPECT_EQ(r.throughput_per_hour, g.throughput_per_hour);
  EXPECT_EQ(r.offered_rate_per_hour, g.offered_rate_per_hour);
  EXPECT_EQ(r.utilization, g.utilization);
  EXPECT_EQ(r.fairness_jain, g.fairness_jain);
  ASSERT_EQ(r.tenants.size(), g.tenants.size());
  for (size_t i = 0; i < g.tenants.size(); ++i) {
    const stress::TenantStats& t = r.tenants[i];
    const TenantGolden& want = g.tenants[i];
    SCOPED_TRACE(want.name);
    EXPECT_EQ(t.name, want.name);
    EXPECT_EQ(t.arrivals, want.arrivals);
    EXPECT_EQ(t.cache_hits, want.cache_hits);
    EXPECT_EQ(t.coalesced, want.coalesced);
    EXPECT_EQ(t.completed, want.completed);
    EXPECT_EQ(t.failed, want.failed);
    EXPECT_EQ(t.shed, want.shed);
    EXPECT_EQ(t.response.count(), want.answered);
    EXPECT_EQ(t.response.total_seconds(), want.response_total_seconds);
  }
  SCOPED_TRACE("engine");
  ExpectOnline(r.engine, g.engine);
}

/// Three 64-segment libraries under ~5000 requests/hour from three
/// weighted tenants: sheds, cache hits and coalesced reads all happen.
StatusOr<stress::StressResult> RunOverloadedMix(const char* process) {
  tape::HelicalLocateModel m0(64), m1(64), m2(64);
  stress::StressConfig config;
  config.process = process;
  config.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
  config.cache_capacity = 12;
  config.coalesce_duplicates = true;
  config.serving.arrival_rate_per_hour = 5000.0;
  config.serving.total_requests = 1500;
  config.serving.seed = 9;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = 32;
  config.serving.dispatch_max_batch = 16;
  fleet::Fleet fleet;
  fleet.models = {{&m0}, {&m1}, {&m2}};
  return stress::RunStress(fleet, config);
}

TEST(ServingGoldenTest, StressPoissonMixWithCacheAndCoalescing) {
  StatusOr<stress::StressResult> result = RunOverloadedMix("poisson");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectStress(*result, {
      .arrivals = 1500,
      .cache_hits = 19,
      .coalesced = 140,
      .completed = 773,
      .failed = 0,
      .shed = 568,
      .dispatched = 1341,
      .latency_count = 932,
      .mean_response_seconds = 0x1.1c672ffae5921p+7,
      .p50_response_seconds = 0x1.4d69c5bf9de46p+7,
      .p95_response_seconds = 0x1.d03af23440d74p+7,
      .p99_response_seconds = 0x1.d03af23440d74p+7,
      .p999_response_seconds = 0x1.d03af23440d74p+7,
      .max_response_seconds = 0x1.d03af23440d74p+7,
      .makespan_seconds = 0x1.3c0195810624dp+10,
      .throughput_per_hour = 0x1.4bcc1be5288cep+11,
      .offered_rate_per_hour = 0x1.3ab78f2ff7e0dp+12,
      .utilization = 0x1.7a53b96766e7ep+1,
      .fairness_jain = 0x1.fd0cc6ee84cb4p-1,
      .tenants = {
          {"gold", 779, 9, 77, 406, 0, 287, 492, 0x1.0ea83aedb06e6p+16},
          {"silver", 494, 8, 44, 252, 0, 190, 304, 0x1.50a9ff6b236ep+15},
          {"bronze", 227, 2, 19, 115, 0, 91, 136, 0x1.3ada6acdcefb3p+14},
      },
      .engine = {
          .arrivals = 1341,
          .admitted = 773,
          .completed = 773,
          .failed = 0,
          .shed = 568,
          .deadline_missed = 0,
          .batches = 56,
          .mean_batch_size = 0x1.b9b6db6db6db7p+3,
          .makespan_seconds = 0x0p+0,
          .drive_busy_seconds = 0x1.d301b020c49bap+11,
          .utilization = 0x0p+0,
          .mean_response_seconds = 0x0p+0,
          .p95_response_seconds = 0x0p+0,
          .p99_response_seconds = 0x0p+0,
          .max_response_seconds = 0x0p+0,
          .throughput_per_hour = 0x0p+0,
          .fault_retries = 0,
          .drive_resets = 0,
          .reschedules = 0,
          .permanent_errors = 0,
          .recovery_seconds = 0x0p+0,
          .max_wait_cycles_observed = 1,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 0,
          .breaker_wait_seconds = 0x0p+0,
          .breaker_transitions = 0,
          .shed_records = 0,
      },
  });
}

TEST(ServingGoldenTest, StressBurstyMixWithCacheAndCoalescing) {
  StatusOr<stress::StressResult> result = RunOverloadedMix("bursty");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectStress(*result, {
      .arrivals = 1500,
      .cache_hits = 22,
      .coalesced = 147,
      .completed = 337,
      .failed = 0,
      .shed = 994,
      .dispatched = 1331,
      .latency_count = 506,
      .mean_response_seconds = 0x1.dbf875fa00c41p+6,
      .p50_response_seconds = 0x1.03p+7,
      .p95_response_seconds = 0x1.dbdb0b724b57p+7,
      .p99_response_seconds = 0x1.dbdb0b724b57p+7,
      .p999_response_seconds = 0x1.dbdb0b724b57p+7,
      .max_response_seconds = 0x1.dbdb0b724b57p+7,
      .makespan_seconds = 0x1.63bab366116ecp+11,
      .throughput_per_hour = 0x1.400bf6a503ab3p+9,
      .offered_rate_per_hour = 0x1.fda58ac86463dp+10,
      .utilization = 0x1.22853ce52ce98p-1,
      .fairness_jain = 0x1.f9529387231a8p-1,
      .tenants = {
          {"gold", 779, 11, 63, 187, 0, 518, 261, 0x1.e52b9dedaf7dp+14},
          {"silver", 494, 8, 61, 108, 0, 317, 177, 0x1.46f902ab6c977p+14},
          {"bronze", 227, 3, 23, 42, 0, 159, 68, 0x1.0148f12e12dfap+13},
      },
      .engine = {
          .arrivals = 1331,
          .admitted = 337,
          .completed = 337,
          .failed = 0,
          .shed = 994,
          .deadline_missed = 0,
          .batches = 32,
          .mean_batch_size = 0x1.51p+3,
          .makespan_seconds = 0x0p+0,
          .drive_busy_seconds = 0x1.93b2a3d70a3d8p+10,
          .utilization = 0x0p+0,
          .mean_response_seconds = 0x0p+0,
          .p95_response_seconds = 0x0p+0,
          .p99_response_seconds = 0x0p+0,
          .max_response_seconds = 0x0p+0,
          .throughput_per_hour = 0x0p+0,
          .fault_retries = 0,
          .drive_resets = 0,
          .reschedules = 0,
          .permanent_errors = 0,
          .recovery_seconds = 0x0p+0,
          .max_wait_cycles_observed = 1,
          .degraded_batches = 0,
          .degradation_max_rung = 0,
          .breaker_fast_fails = 0,
          .breaker_wait_seconds = 0x0p+0,
          .breaker_transitions = 0,
          .shed_records = 0,
      },
  });
}

TEST(ServingGoldenTest, DefaultInterleavedMigration) {
  tape::Dlt4000LocateModel model(
      tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
      tape::Dlt4000Timings());
  layout::HeatMap heat(model.geometry().total_segments(), 8192);
  workload::ZipfGenerator zipf(model.geometry().total_segments(), 128, 0.95,
                               5);
  for (int b = 0; b < 6; ++b) heat.RecordBatch(zipf.Batch(96));
  layout::Placement target = layout::PlacementOptimizer(model).Optimize(heat);
  StatusOr<layout::MigrationPlan> plan =
      layout::PlanMigration(model, target, sched::Registry::Default());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  StatusOr<layout::InterleavedResult> result = layout::RunInterleavedMigration(
      model, *plan, target, sched::Registry::Default());
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const layout::InterleavedResult golden = {
      .foreground_completed = 200,
      .mean_response_seconds = 0x1.30556f754acf7p+9,
      .p99_response_seconds = 0x1.4abcf0bdc1f51p+11,
      .max_response_seconds = 0x1.58a716c43691ap+11,
      .makespan_seconds = 0x1.5783f72b30cc1p+15,
      .migration_seconds = 0x1.044b5530c76fdp+15,
      .foreground_seconds = 0x1.4ce287e9a5711p+13,
      .full_slices = 0,
      .half_slices = 0,
      .quarter_slices = 18,
      .migration_complete = true,
  };
  const layout::InterleavedResult& r = *result;
  EXPECT_EQ(r.foreground_completed, golden.foreground_completed);
  EXPECT_EQ(r.mean_response_seconds, golden.mean_response_seconds);
  EXPECT_EQ(r.p99_response_seconds, golden.p99_response_seconds);
  EXPECT_EQ(r.max_response_seconds, golden.max_response_seconds);
  EXPECT_EQ(r.makespan_seconds, golden.makespan_seconds);
  EXPECT_EQ(r.migration_seconds, golden.migration_seconds);
  EXPECT_EQ(r.foreground_seconds, golden.foreground_seconds);
  EXPECT_EQ(r.full_slices, golden.full_slices);
  EXPECT_EQ(r.half_slices, golden.half_slices);
  EXPECT_EQ(r.quarter_slices, golden.quarter_slices);
  EXPECT_EQ(r.migration_complete, golden.migration_complete);
}

}  // namespace
}  // namespace serpentine
