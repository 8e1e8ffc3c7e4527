#include "serpentine/fleet/fleet_server.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/util/check.h"

namespace serpentine::fleet {
namespace {

/// Stream stride decorrelating library l's fault process: library 0 keeps
/// the single-library stream (fault_stream == serving.seed, the pin),
/// library l > 0 uses serving.seed + l * stride. Prime, and distinct from
/// the online extras stream; must never change — pinned tests depend on
/// the fault draws.
constexpr int64_t kLibraryFaultStride = 1000033;

}  // namespace

FleetTopology Fleet::Topology() const {
  FleetTopology topology;
  topology.capacity.reserve(models.size());
  for (const std::vector<const tape::LocateModel*>& lib : models) {
    std::vector<tape::SegmentId> caps;
    caps.reserve(lib.size());
    for (const tape::LocateModel* m : lib) {
      caps.push_back(m->geometry().total_segments());
    }
    topology.capacity.push_back(std::move(caps));
  }
  return topology;
}

UniformFleet::UniformFleet(const tape::TapeParams& params,
                           tape::DriveTimings timings, int libraries,
                           int cartridges_per_library, int32_t first_seed) {
  SERPENTINE_CHECK_GE(libraries, 1);
  SERPENTINE_CHECK_GE(cartridges_per_library, 1);
  fleet_.models.resize(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    for (int cart = 0; cart < cartridges_per_library; ++cart) {
      int32_t seed = first_seed + lib * cartridges_per_library + cart;
      owned_.push_back(std::make_unique<tape::Dlt4000LocateModel>(
          tape::TapeGeometry::Generate(params, seed), timings));
      fleet_.models[lib].push_back(owned_.back().get());
    }
  }
}

Status ValidateFleetConfig(const Fleet& fleet, const FleetConfig& config) {
  if (fleet.libraries() < 1) {
    return InvalidArgumentError("FleetConfig: fleet has no libraries");
  }
  for (int lib = 0; lib < fleet.libraries(); ++lib) {
    if (fleet.models[lib].empty()) {
      return InvalidArgumentError("FleetConfig: library " +
                                  std::to_string(lib) + " has no cartridges");
    }
    for (const tape::LocateModel* m : fleet.models[lib]) {
      if (m == nullptr) {
        return InvalidArgumentError("FleetConfig: library " +
                                    std::to_string(lib) +
                                    " holds a null model");
      }
    }
  }
  SERPENTINE_RETURN_IF_ERROR(
      AnnotateStatus(ValidateCapacities(fleet.Topology()), "FleetConfig"));
  SERPENTINE_RETURN_IF_ERROR(
      sim::ValidateOnlineServerConfig(config.serving));
  if (config.logical_segments < 0) {
    return InvalidArgumentError(
        "FleetConfig: logical_segments must be >= 0 (0 = capacity / "
        "replication), got " +
        std::to_string(config.logical_segments));
  }
  if (!std::isfinite(config.mount_exchange_seconds) ||
      config.mount_exchange_seconds < 0.0) {
    return InvalidArgumentError(
        "FleetConfig: mount_exchange_seconds must be finite and >= 0, "
        "got " +
        std::to_string(config.mount_exchange_seconds));
  }
  // Placement knobs (replication bounds, weights) are validated by
  // Catalog::Build against the actual topology.
  return OkStatus();
}

StatusOr<std::unique_ptr<FleetEngine>> FleetEngine::Create(
    const Fleet& fleet, const FleetConfig& config) {
  SERPENTINE_RETURN_IF_ERROR(ValidateFleetConfig(fleet, config));
  FleetTopology topology = fleet.Topology();
  int64_t logical = config.logical_segments;
  if (logical == 0) {
    // Default catalog: the smallest library's capacity. A library never
    // holds more than one replica per logical segment, so no library can
    // overflow and placement succeeds under every policy — unlike packing
    // to total/replication, which the distinct-library constraint can make
    // infeasible when capacities are uneven.
    logical = topology.library_segments(0);
    for (int lib = 1; lib < fleet.libraries(); ++lib) {
      logical = std::min(logical, topology.library_segments(lib));
    }
  }
  SERPENTINE_ASSIGN_OR_RETURN(
      Catalog catalog, Catalog::Build(topology, logical, config.placement));
  return std::unique_ptr<FleetEngine>(
      new FleetEngine(fleet, config, std::move(catalog)));
}

FleetEngine::FleetEngine(const Fleet& fleet, const FleetConfig& config,
                         Catalog catalog)
    : catalog_(std::move(catalog)),
      router_(&catalog_, fleet.libraries(), config.router),
      first_routed_(fleet.libraries(),
                    std::numeric_limits<double>::infinity()) {
  cores_.reserve(fleet.libraries());
  for (int lib = 0; lib < fleet.libraries(); ++lib) {
    int64_t fault_stream =
        static_cast<int64_t>(config.serving.seed) + kLibraryFaultStride * lib;
    cores_.push_back(std::make_unique<sim::ServingCore>(
        fleet.models[lib], config.serving, fault_stream,
        config.mount_exchange_seconds));
  }
}

void FleetEngine::CrankTo(double t) {
  for (std::unique_ptr<sim::ServingCore>& core : cores_) {
    core->AdvanceInputBound(t);
    while (core->Step() == sim::ServingStep::kRan) {
    }
  }
}

void FleetEngine::Submit(const sim::ServingRequest& request) {
  const int replication = catalog_.replication();
  scores_.resize(replication);
  for (int r = 0; r < replication; ++r) {
    const ReplicaLocation replica = catalog_.replica(request.segment, r);
    const sim::ServingCore& core = *cores_[replica.library];
    // With one replica the route is decided; skip the estimate.
    scores_[r].seconds =
        replication == 1
            ? 0.0
            : std::max(core.clock() - request.time, 0.0) +
                  core.EstimateServiceSeconds(replica.cartridge,
                                              replica.segment);
    scores_[r].breaker_open = core.breaker_open();
  }

  RouteDecision decision = router_.Route(request.segment, scores_);
  const int lib = decision.location.library;
  sim::ServingRequest routed = request;
  routed.segment = decision.location.segment;
  routed.cartridge = decision.location.cartridge;
  cores_[lib]->Push(routed);
  first_routed_[lib] = std::min(first_routed_[lib], request.time);
  if (obs::MetricsRegistry::active() != nullptr) {
    obs::SetGauge("fleet.lib" + std::to_string(lib) + ".depth",
                  static_cast<double>(cores_[lib]->queue_depth()));
  }
}

void FleetEngine::Finish() {
  for (std::unique_ptr<sim::ServingCore>& core : cores_) {
    core->FinishInput();
    while (core->Step() == sim::ServingStep::kRan) {
    }
    SERPENTINE_CHECK(core->Step() == sim::ServingStep::kDone);
    core->FinishResult();
  }
}

sim::OnlineServerResult FleetEngine::Tallies() const {
  sim::OnlineServerResult total;
  double batch_sum = 0.0;
  for (const std::unique_ptr<sim::ServingCore>& core : cores_) {
    sim::AccumulateOnlineServerTallies(core->result(), &total);
    batch_sum += core->batch_sum();
  }
  if (total.batches > 0) total.mean_batch_size = batch_sum / total.batches;
  return total;
}

double FleetEngine::end_clock() const {
  double end = 0.0;
  for (const std::unique_ptr<sim::ServingCore>& core : cores_) {
    end = std::max(end, core->clock());
  }
  return end;
}

FleetResult FleetEngine::Result() {
  FleetResult out;
  out.total = Tallies();
  out.per_library.resize(libraries());
  out.routed_per_library = router_.dispatches_per_library();
  out.placed_per_library = catalog_.placed_per_library();
  out.failovers = router_.failovers();

  std::vector<double> all_responses;
  double batch_sum = 0.0;
  for (int lib = 0; lib < libraries(); ++lib) {
    sim::ServingCore& core = *cores_[lib];
    const sim::OnlineServerResult& r = core.result();

    // Per-library view: the library's own clock span.
    sim::OnlineServerResult own = r;
    std::vector<double> responses = core.responses();
    FinalizeOnlineServerResult(
        &own, &responses, core.batch_sum(), core.clock(),
        std::isfinite(first_routed_[lib]) ? first_routed_[lib]
                                          : core.clock());
    out.per_library[lib] = std::move(own);

    // Fleet totals: the raw tallies are folded; concatenate the records
    // and responses, then finalize once with the single-library
    // expressions (for one library this IS RunOnlineServer's arithmetic,
    // value for value).
    out.total.breaker_transitions.insert(out.total.breaker_transitions.end(),
                                         r.breaker_transitions.begin(),
                                         r.breaker_transitions.end());
    out.total.shed_records.insert(out.total.shed_records.end(),
                                  r.shed_records.begin(),
                                  r.shed_records.end());
    all_responses.insert(all_responses.end(), core.responses().begin(),
                         core.responses().end());
    batch_sum += core.batch_sum();
    out.cartridge_mounts += core.cartridge_mounts();
    out.mount_seconds += core.mount_seconds();
  }
  // The first arrival submitted is the earliest any library saw.
  const double first_arrival =
      *std::min_element(first_routed_.begin(), first_routed_.end());
  FinalizeOnlineServerResult(
      &out.total, &all_responses, batch_sum, end_clock(),
      std::isfinite(first_arrival) ? first_arrival : 0.0);
  return out;
}

StatusOr<FleetResult> RunFleet(const Fleet& fleet, const FleetConfig& config) {
  SERPENTINE_ASSIGN_OR_RETURN(std::unique_ptr<FleetEngine> engine,
                              FleetEngine::Create(fleet, config));
  // The fleet-wide arrival stream draws logical segments with the exact
  // generator of RunOnlineServer; with the identity catalog of a
  // 1-library / replication-1 fleet these are already physical segments.
  for (const sim::ServingRequest& a :
       GenerateOnlineArrivals(config.serving, engine->logical_segments())) {
    engine->CrankTo(a.time);
    engine->Submit(a);
  }
  engine->Finish();

  FleetResult out = engine->Result();
  SERPENTINE_CHECK_EQ(out.total.shed + out.total.completed + out.total.failed,
                      config.serving.total_requests);
  SERPENTINE_CHECK_EQ(out.total.arrivals, config.serving.total_requests);
  return out;
}

}  // namespace serpentine::fleet
