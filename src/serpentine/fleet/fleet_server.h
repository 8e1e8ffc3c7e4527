// The fleet serving layer: L libraries, each running the exact
// single-library serving engine (sim::ServingCore), fed by a replica
// router. Arrivals name *logical* segments; the catalog (catalog.h) says
// which libraries hold a copy, each candidate library bids its estimated
// service time (queue backlog + cartridge exchanges + locate-model
// estimate) and breaker state, and the router (router.h) picks — hedging
// away from libraries whose drive breaker is open.
//
// FleetEngine is that machinery as one object; RunFleet feeds it the
// generated Poisson stream, and the stress harness (stress/stress.h)
// feeds it the primaries its cache and coalescing layer lets through.
//
// Determinism pin: a fleet of one library with one cartridge and
// replication 1 routes every request to the only replica of the identity
// catalog, so RunFleet degenerates to exactly RunOnlineServer — same
// arrival draws, same engine, same aggregation arithmetic — and the
// pinned test holds `total` equal field for field, for any thread count.
#ifndef SERPENTINE_FLEET_FLEET_SERVER_H_
#define SERPENTINE_FLEET_FLEET_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/router.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::fleet {

/// A fleet as the serving layer sees it: per-library, per-cartridge locate
/// models, borrowed from the caller (who keeps them alive — see
/// UniformFleet for the common owning case).
struct Fleet {
  /// models[lib][cart] — every pointer non-null.
  std::vector<std::vector<const tape::LocateModel*>> models;

  int libraries() const { return static_cast<int>(models.size()); }
  /// Per-cartridge segment capacities, as the catalog wants them.
  FleetTopology Topology() const;
};

/// The common fleet: L identical libraries of C cartridges each, all DLT
/// 4000 geometry from consecutive seeds (cartridge (l, c) uses seed
/// first_seed + l * C + c, the TapeLibrary idiom). Owns the models;
/// `fleet()` borrows from it.
class UniformFleet {
 public:
  UniformFleet(const tape::TapeParams& params, tape::DriveTimings timings,
               int libraries, int cartridges_per_library,
               int32_t first_seed = 1);

  UniformFleet(const UniformFleet&) = delete;
  UniformFleet& operator=(const UniformFleet&) = delete;

  const Fleet& fleet() const { return fleet_; }

 private:
  std::vector<std::unique_ptr<tape::LocateModel>> owned_;
  Fleet fleet_;
};

struct FleetConfig {
  /// The per-library serving engine's knobs (arrival process, admission,
  /// deadlines, degradation, faults, breaker). The arrival stream is drawn
  /// once, fleet-wide, over the logical segment space; the fault process is
  /// decorrelated per library (library 0 keeps the single-library stream so
  /// the determinism pin covers faulty configs too).
  sim::OnlineServerConfig serving;
  /// How logical segments were placed at ingest.
  PlacementOptions placement;
  RouterOptions router;
  /// Logical segments in the catalog; 0 (default) = the smallest
  /// library's capacity, which every placement policy can always satisfy
  /// (no library ever exceeds one replica per logical segment). For a
  /// 1-library fleet this is that library's full capacity, preserving the
  /// determinism pin.
  int64_t logical_segments = 0;
  /// Virtual seconds a cartridge exchange costs inside a library (robot +
  /// load; the single-reel rewind is charged separately by the engine).
  double mount_exchange_seconds = 0.0;
};

Status ValidateFleetConfig(const Fleet& fleet, const FleetConfig& config);

struct FleetResult {
  /// Fleet-wide totals, aggregated with the exact arithmetic of
  /// RunOnlineServer (makespan = last drive clock − first arrival;
  /// utilization = summed busy / makespan, so it can exceed 1 with several
  /// libraries — divide by libraries() for a per-drive figure). Shed
  /// records and breaker transitions concatenate in library order.
  sim::OnlineServerResult total;
  /// Each library's own results; makespan runs from the first arrival
  /// *routed there*. Libraries that served nothing report zeros.
  std::vector<sim::OnlineServerResult> per_library;

  /// Requests the router sent to each library.
  std::vector<int64_t> routed_per_library;
  /// Physical segments placed on each library at ingest.
  std::vector<int64_t> placed_per_library;
  /// Requests that skipped the score-optimal replica on an open breaker.
  int64_t failovers = 0;
  /// Cartridge switches across all libraries, and the virtual seconds they
  /// cost (rewind + exchange).
  int64_t cartridge_mounts = 0;
  double mount_seconds = 0.0;
};

/// The serving engine of a fleet: the catalog, one sim::ServingCore per
/// library, and the router. The caller cranks every core to each arrival
/// instant (CrankTo), hands the arrival over (Submit), and drains the
/// cores once the stream ends (Finish). Because each core only acts at
/// instants the submitted prefix covers, the trajectory is a pure function
/// of the submitted stream.
class FleetEngine {
 public:
  /// Fails on an invalid configuration or an unplaceable catalog.
  /// `fleet`'s models must outlive the engine.
  static StatusOr<std::unique_ptr<FleetEngine>> Create(
      const Fleet& fleet, const FleetConfig& config);

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  int libraries() const { return static_cast<int>(cores_.size()); }
  int64_t logical_segments() const { return catalog_.num_logical(); }
  /// One library's engine, for observers (callbacks, shed records).
  sim::ServingCore& core(int library) { return *cores_[library]; }

  /// Lets every core serve up to virtual time `t`: no arrival before `t`
  /// can still be submitted anywhere.
  void CrankTo(double t);

  /// Routes one arrival (`request.segment` is logical) to the replica with
  /// the lowest bid (see fleet.md; a lone replica is not bid on) and
  /// pushes it there. Call CrankTo(request.time) first.
  void Submit(const sim::ServingRequest& request);

  /// Declares the stream finished and runs every core to completion.
  void Finish();

  /// Raw tallies folded across libraries (AccumulateOnlineServerTallies),
  /// with the fleet-wide mean batch size. After Finish.
  sim::OnlineServerResult Tallies() const;
  /// The latest library clock: when the last request was answered.
  double end_clock() const;

  /// Fleet totals, per-library views and router/catalog counters. After
  /// Finish.
  FleetResult Result();

 private:
  FleetEngine(const Fleet& fleet, const FleetConfig& config,
              Catalog catalog);

  Catalog catalog_;
  Router router_;
  std::vector<std::unique_ptr<sim::ServingCore>> cores_;
  /// First arrival routed to each library (infinity until one is).
  std::vector<double> first_routed_;
  std::vector<ReplicaScore> scores_;
};

/// Runs the fleet to completion: every arrival is scored against its
/// replicas, routed, and answered or shed. Fails on an invalid
/// configuration or an unplaceable catalog.
StatusOr<FleetResult> RunFleet(const Fleet& fleet, const FleetConfig& config);

}  // namespace serpentine::fleet

#endif  // SERPENTINE_FLEET_FLEET_SERVER_H_
