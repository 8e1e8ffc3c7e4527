#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <string_view>

#include "serpentine/tape/params.h"

namespace serpbench {

using serpentine::StatusOr;
using serpentine::sched::Algorithm;
namespace fleet = serpentine::fleet;
namespace sim = serpentine::sim;
namespace tape = serpentine::tape;

const std::vector<Workload>& Catalogue() {
  static const std::vector<Workload> kCatalogue = [] {
    std::vector<Workload> c;

    // The paper's Fig. 4 / section 8 operating point. Schedule builds are
    // nearly all of the wall time and no serving or fleet code runs, so a
    // serving-layer change must leave this workload flat.
    Workload batch;
    batch.name = "batch-loss-1024";
    batch.kind = Kind::kBatch;
    batch.algorithm = Algorithm::kLoss;
    batch.batch_size = 1024;
    batch.trials = 20;
    c.push_back(batch);

    // The paper's online scenario at the latency knee: 85/h is the highest
    // rate of the SLO grid whose p99 stays under an hour (0.91x LOSS
    // saturation). LOSS builds on small batches from arbitrary head
    // positions dominate dispatch.
    Workload knee;
    knee.name = "knee-loss";
    knee.kind = Kind::kServing;
    knee.algorithm = Algorithm::kLoss;
    knee.rate_per_hour = 85.0;
    knee.requests = 100000;
    knee.slo_rates = {60, 70, 80, 85, 90, 95, 100, 110, 120};
    c.push_back(knee);

    // 3x FIFO saturation: schedule builds are trivial; the per-arrival
    // service estimate over a full admission queue and the shed path
    // (one Status per refusal) take the wall time.
    Workload overload;
    overload.name = "overload-fifo";
    overload.kind = Kind::kServing;
    overload.algorithm = Algorithm::kFifo;
    overload.rate_per_hour = 130.0;
    overload.requests = 8000;
    c.push_back(overload);

    // The only workload with two real bids per arrival, cross-library
    // routing and cartridge switches (drives ~98% busy).
    Workload replicated;
    replicated.name = "fleet-replicated";
    replicated.kind = Kind::kServing;
    replicated.algorithm = Algorithm::kLoss;
    replicated.libraries = 3;
    replicated.cartridges = 2;
    replicated.replication = 2;
    replicated.mount_exchange_seconds = 30.0;
    replicated.rate_per_hour = 230.0;
    replicated.requests = 50000;
    c.push_back(replicated);
    return c;
  }();
  return kCatalogue;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : Catalogue()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Workload Scaled(Workload w, double scale) {
  w.trials = std::max<int64_t>(2, std::llround(w.trials * scale));
  w.requests = std::max<int64_t>(5000, std::llround(w.requests * scale));
  return w;
}

int64_t SimulatedRequests(const Workload& w) {
  return w.kind == Kind::kBatch ? w.trials * w.batch_size : w.requests;
}

std::unique_ptr<fleet::UniformFleet> MakeSystem(const Workload& w) {
  return std::make_unique<fleet::UniformFleet>(
      tape::Dlt4000TapeParams(), tape::Dlt4000Timings(), w.libraries,
      w.cartridges, /*first_seed=*/1);
}

fleet::FleetConfig ServingConfig(const Workload& w, int32_t seed,
                                 double rate_per_hour, int64_t requests) {
  fleet::FleetConfig config;
  config.serving.arrival_rate_per_hour = rate_per_hour;
  config.serving.total_requests = requests;
  config.serving.algorithm = w.algorithm;
  config.serving.seed = seed;
  config.serving.dispatch_max_batch = kDispatchMaxBatch;
  config.serving.admission.enabled = true;
  config.serving.admission.max_queue_depth = kAdmissionDepthCap;
  config.placement.replication = w.replication;
  config.mount_exchange_seconds = w.mount_exchange_seconds;
  return config;
}

StatusOr<Outcome> RunEntryPoint(const Workload& w, const fleet::Fleet& system,
                                int32_t seed) {
  Outcome out;
  if (w.kind == Kind::kBatch) {
    const tape::LocateModel& model = *system.models[0][0];
    out.point = sim::SimulatePoint(model, model, w.algorithm, w.batch_size,
                                   w.trials, /*start_at_bot=*/false, seed, {},
                                   sim::ParallelOptions{.threads = 1});
    return out;
  }
  SERPENTINE_ASSIGN_OR_RETURN(
      out.fleet,
      fleet::RunFleet(system,
                      ServingConfig(w, seed, w.rate_per_hour, w.requests)));
  return out;
}

StatusOr<double> SloRatePerHour(const Workload& w, const fleet::Fleet& system,
                                int32_t seed) {
  double best = 0.0;
  for (double rate : w.slo_rates) {
    SERPENTINE_ASSIGN_OR_RETURN(
        fleet::FleetResult r,
        fleet::RunFleet(system, ServingConfig(w, seed, rate, kSloRequests)));
    const double failed =
        static_cast<double>(r.total.shed + r.total.failed) / r.total.arrivals;
    if (r.total.p99_response_seconds <= kSloP99Seconds &&
        failed <= kSloMaxFailedFraction) {
      best = std::max(best, rate);
    }
  }
  return best;
}

}  // namespace serpbench
