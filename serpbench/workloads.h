// The serpbench workload catalogue: four fixed operating points of the
// serving stack, each run through the public entry point a user calls
// (sim::SimulatePoint for the paper's batch scenario, fleet::RunFleet for
// open-loop serving). The seed picks the request stream only; the tapes
// are always the same DLT4000 cartridges, first seed 1 ("tape A").
#ifndef SERPBENCH_WORKLOADS_H_
#define SERPBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/sched/request.h"
#include "serpentine/sim/experiment.h"
#include "serpentine/util/statusor.h"

namespace serpbench {

enum class Kind {
  /// sim::SimulatePoint: closed loop, every trial one batch of requests
  /// that all arrive at once, from a random head position.
  kBatch,
  /// fleet::RunFleet: open-loop Poisson arrivals in virtual time, latency
  /// measured from each request's scheduled arrival.
  kServing,
};

struct Workload {
  const char* name = "";
  Kind kind = Kind::kBatch;
  serpentine::sched::Algorithm algorithm = serpentine::sched::Algorithm::kLoss;

  // kBatch
  int batch_size = 0;
  int64_t trials = 0;

  // kServing
  int libraries = 1;
  int cartridges = 1;
  int replication = 1;
  double mount_exchange_seconds = 0.0;
  double rate_per_hour = 0.0;
  int64_t requests = 0;
  /// Offered rates (req/h) searched for slo_rate_per_h; empty = none.
  std::vector<double> slo_rates;
};

/// Every serving workload runs with this admission depth cap and batch
/// cap; the SLO search uses runs of kSloRequests requests and asks for
/// p99 <= kSloP99Seconds with at most kSloMaxFailedFraction shed/failed.
inline constexpr int kAdmissionDepthCap = 256;
inline constexpr int kDispatchMaxBatch = 64;
inline constexpr int64_t kSloRequests = 50000;
inline constexpr double kSloP99Seconds = 3600.0;
inline constexpr double kSloMaxFailedFraction = 0.01;

const std::vector<Workload>& Catalogue();

/// The catalogue entry named `name`, or nullptr.
const Workload* FindWorkload(std::string_view name);

/// `w` with trials / requests multiplied by `scale` (floors keep every
/// output check meaningful: 2 trials, 5000 requests).
Workload Scaled(Workload w, double scale);

/// Requests one run of `w` simulates.
int64_t SimulatedRequests(const Workload& w);

/// The tapes `w` runs on: libraries x cartridges DLT4000 models.
std::unique_ptr<serpentine::fleet::UniformFleet> MakeSystem(const Workload& w);

/// The fleet configuration of a serving workload at `rate_per_hour`.
serpentine::fleet::FleetConfig ServingConfig(const Workload& w, int32_t seed,
                                             double rate_per_hour,
                                             int64_t requests);

/// One run's simulated result; `point` for kBatch, `fleet` for kServing.
struct Outcome {
  serpentine::sim::PointStats point;
  serpentine::fleet::FleetResult fleet;
};

/// Runs `w` once through its public entry point, single-threaded.
serpentine::StatusOr<Outcome> RunEntryPoint(
    const Workload& w, const serpentine::fleet::Fleet& system, int32_t seed);

/// Highest rate in w.slo_rates whose kSloRequests-request run meets the
/// SLO, or 0 when none does.
serpentine::StatusOr<double> SloRatePerHour(
    const Workload& w, const serpentine::fleet::Fleet& system, int32_t seed);

}  // namespace serpbench

#endif  // SERPBENCH_WORKLOADS_H_
