// The dispatch queue (Poisson arrivals, a batch policy of minimum size
// and maximum wait, every pending request boarding) through
// RunOnlineServer with every online extension off.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/sim/online_server.h"
#include "serpentine/util/replicate.h"

namespace serpentine::sim {

// The fault subsystem lives in drive/ since PR 3; pull the names these
// tests predate the move with into scope.
using drive::FaultInjector;
using drive::FaultProfile;
using drive::FaultType;
using drive::LoadFaultProfile;
using drive::ValidateFaultProfile;
namespace {

class QueueSimTest : public ::testing::Test {
 protected:
  QueueSimTest()
      : model_(tape::TapeGeometry::Generate(tape::Dlt4000TapeParams(), 1),
               tape::Dlt4000Timings()) {}

  OnlineServerResult Run(const OnlineServerConfig& config) const {
    StatusOr<OnlineServerResult> r = RunOnlineServer(model_, config);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : OnlineServerResult{};
  }

  /// Replica r of `config` on the seed Replicate derives for it.
  std::vector<OnlineServerResult> Replicated(const OnlineServerConfig& config,
                                             int replications,
                                             int threads) const {
    auto run = [&](int32_t seed) {
      OnlineServerConfig replica = config;
      replica.seed = seed;
      return RunOnlineServer(model_, replica).value();
    };
    return Replicate("RunOnlineServer", config.seed, replications, threads,
                     model_.SupportsConcurrentUse(), run)
        .value();
  }

  tape::Dlt4000LocateModel model_;
};

TEST_F(QueueSimTest, CompletesEveryRequestAndInvariantsHold) {
  OnlineServerConfig config;
  config.total_requests = 120;
  config.arrival_rate_per_hour = 40.0;
  OnlineServerResult r = Run(config);
  EXPECT_EQ(r.completed + r.failed, 120);
  EXPECT_GT(r.batches, 0);
  EXPECT_GE(r.mean_batch_size, 1.0);
  EXPECT_GT(r.makespan_seconds, 0.0);
  EXPECT_LE(r.drive_busy_seconds, r.makespan_seconds + 1e-6);
  EXPECT_GE(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0 + 1e-9);
  EXPECT_LE(r.mean_response_seconds, r.p95_response_seconds + 1e-9);
  EXPECT_LE(r.p95_response_seconds, r.max_response_seconds + 1e-9);
}

TEST_F(QueueSimTest, DeterministicPerSeed) {
  OnlineServerConfig config;
  config.total_requests = 60;
  OnlineServerResult a = Run(config);
  OnlineServerResult b = Run(config);
  EXPECT_DOUBLE_EQ(a.mean_response_seconds, b.mean_response_seconds);
  EXPECT_EQ(a.batches, b.batches);
}

TEST_F(QueueSimTest, LightLoadImmediateDispatchHasSmallBatches) {
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 10.0;  // far below saturation
  config.total_requests = 60;
  OnlineServerResult r = Run(config);
  EXPECT_LT(r.mean_batch_size, 2.0);
  // Response ≈ one random locate + read: around 80 s, plus rare queueing.
  EXPECT_LT(r.mean_response_seconds, 250.0);
}

TEST_F(QueueSimTest, OverloadWithFifoQueuesUnboundedly) {
  // 80/hour exceeds FIFO's ~44/hour service rate: waits blow up.
  OnlineServerConfig fifo;
  fifo.arrival_rate_per_hour = 80.0;
  fifo.total_requests = 200;
  fifo.algorithm = sched::Algorithm::kFifo;
  OnlineServerResult r_fifo = Run(fifo);

  // LOSS with dispatch batching sustains it comfortably.
  OnlineServerConfig loss = fifo;
  loss.algorithm = sched::Algorithm::kLoss;
  loss.dispatch_min_batch = 16;
  OnlineServerResult r_loss = Run(loss);

  EXPECT_LT(r_loss.mean_response_seconds,
            r_fifo.mean_response_seconds * 0.5);
  EXPECT_LT(r_loss.drive_busy_seconds, r_fifo.drive_busy_seconds);
}

TEST_F(QueueSimTest, MinBatchRaisesBatchSizeAndEfficiency) {
  OnlineServerConfig small;
  small.arrival_rate_per_hour = 60.0;
  small.total_requests = 150;
  small.dispatch_min_batch = 1;
  OnlineServerConfig large = small;
  large.dispatch_min_batch = 32;
  OnlineServerResult r_small = Run(small);
  OnlineServerResult r_large = Run(large);
  EXPECT_GT(r_large.mean_batch_size, r_small.mean_batch_size);
  EXPECT_LT(r_large.drive_busy_seconds, r_small.drive_busy_seconds);
}

TEST_F(QueueSimTest, MaxWaitBoundsResponseUnderLightLoad) {
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 20.0;
  config.total_requests = 80;
  config.dispatch_min_batch = 1000;          // never fires on size...
  config.dispatch_max_wait_seconds = 1800.0;  // ...so the wait bound rules
  OnlineServerResult r = Run(config);
  EXPECT_EQ(r.completed + r.failed, 80);
  // The oldest request in each batch waited ~1800 s plus service.
  EXPECT_GT(r.mean_batch_size, 5.0);
  EXPECT_LT(r.p95_response_seconds, 1800.0 + 4000.0);
}

TEST_F(QueueSimTest, DenseOverloadFallsBackSanely) {
  // Very high arrival rate: batches grow huge; the system must still
  // complete everything with bounded per-request busy time.
  OnlineServerConfig config;
  config.arrival_rate_per_hour = 2000.0;
  config.total_requests = 600;
  config.dispatch_min_batch = 64;
  config.scheduler_options.loss_coalesce_threshold =
      sched::kDefaultCoalesceThreshold;
  OnlineServerResult r = Run(config);
  EXPECT_EQ(r.completed + r.failed, 600);
  EXPECT_LT(r.drive_busy_seconds / (r.completed + r.failed), 40.0);
}

// ---------------------------------------------------------------------------
// Fault injection through the dispatch queue.
// ---------------------------------------------------------------------------

TEST_F(QueueSimTest, ZeroFaultProfileKeepsTheFaultFreePath) {
  OnlineServerConfig clean;
  clean.total_requests = 100;
  OnlineServerConfig with_none = clean;
  with_none.faults = FaultProfile::None();
  OnlineServerResult a = Run(clean);
  OnlineServerResult b = Run(with_none);
  EXPECT_EQ(a.mean_response_seconds, b.mean_response_seconds);
  EXPECT_EQ(a.drive_busy_seconds, b.drive_busy_seconds);
  EXPECT_EQ(b.fault_retries, 0);
  EXPECT_EQ(b.failed, 0);
}

TEST_F(QueueSimTest, FaultsCompleteEveryRequestAndOnlyAddTime) {
  OnlineServerConfig clean;
  clean.total_requests = 150;
  clean.dispatch_min_batch = 8;
  OnlineServerConfig faulty = clean;
  faulty.faults = FaultProfile::Heavy();
  OnlineServerResult c = Run(clean);
  OnlineServerResult f = Run(faulty);
  // Every request still gets an answer (served or reported failed)...
  EXPECT_EQ(f.completed + f.failed, 150);
  EXPECT_LE(f.failed, f.completed + f.failed);
  // ...and faults can only cost drive time, never save it.
  EXPECT_GT(f.drive_busy_seconds, c.drive_busy_seconds);
  EXPECT_GT(f.fault_retries + f.drive_resets + f.permanent_errors, 0);
  EXPECT_GE(f.recovery_seconds, 0.0);
}

TEST_F(QueueSimTest, FaultStatisticsAreThreadCountInvariant) {
  OnlineServerConfig config;
  config.total_requests = 60;
  config.dispatch_min_batch = 8;
  config.faults = FaultProfile::Heavy();
  std::vector<OnlineServerResult> serial =
      Replicated(config, 6, /*threads=*/1);
  std::vector<OnlineServerResult> parallel =
      Replicated(config, 6, /*threads=*/4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t r = 0; r < serial.size(); ++r) {
    EXPECT_EQ(serial[r].mean_response_seconds,
              parallel[r].mean_response_seconds)
        << "replication " << r;
    EXPECT_EQ(serial[r].drive_busy_seconds, parallel[r].drive_busy_seconds)
        << "replication " << r;
    EXPECT_EQ(serial[r].fault_retries, parallel[r].fault_retries)
        << "replication " << r;
    EXPECT_EQ(serial[r].failed, parallel[r].failed) << "replication " << r;
    EXPECT_EQ(serial[r].utilization, parallel[r].utilization)
        << "replication " << r;
  }
}

TEST_F(QueueSimTest, ReplicationsDrawDecorrelatedFaultStreams) {
  OnlineServerConfig config;
  config.total_requests = 80;
  config.dispatch_min_batch = 8;
  config.faults = FaultProfile::Heavy();
  std::vector<OnlineServerResult> results = Replicated(config, 4, 1);
  // Different replications see different arrival AND fault streams; their
  // recovery accounting should not be identical across the board.
  bool any_difference = false;
  for (size_t r = 1; r < results.size(); ++r) {
    if (results[r].fault_retries != results[0].fault_retries ||
        results[r].recovery_seconds != results[0].recovery_seconds) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST_F(QueueSimTest, RejectsRequestCountsThatOverflowSpanIds) {
  // Async-span ids pack the arrival index into the low 32 bits of
  // (seed << 32) | index; 2^32 arrivals would wrap into the seed field.
  OnlineServerConfig config;
  config.total_requests = (int64_t{1} << 32) - 1;
  EXPECT_TRUE(ValidateOnlineServerConfig(config).ok());

  config.total_requests = int64_t{1} << 32;
  Status s = ValidateOnlineServerConfig(config);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("2^32"), std::string::npos);
}

}  // namespace
}  // namespace serpentine::sim
