#include "replica.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "serpentine/drive/drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/fleet/catalog.h"
#include "serpentine/fleet/router.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/stats.h"

namespace serpbench {

using serpentine::StatusOr;
namespace drive = serpentine::drive;
namespace fleet = serpentine::fleet;
namespace obs = serpentine::obs;
namespace sched = serpentine::sched;
namespace sim = serpentine::sim;
namespace tape = serpentine::tape;

namespace {

/// RunFleet's fault-stream stride (fleet_server.cc). No workload injects
/// faults, so the stream is never drawn, but the replica builds its cores
/// exactly as RunFleet does.
constexpr int64_t kLibraryFaultStride = 1000033;

/// Pass-through drive that keeps one batch's virtual clock and stamps
/// every completed read with it.
class ClockedDrive : public drive::Drive {
 public:
  /// `inner` and `completions` must outlive the decorator.
  ClockedDrive(drive::Drive* inner, std::vector<double>* completions)
      : inner_(inner), completions_(completions) {}

  drive::OpResult Locate(tape::SegmentId dst) override {
    return Tick(inner_->Locate(dst));
  }
  drive::OpResult ReadSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    drive::OpResult r = Tick(inner_->ReadSegments(from, to));
    completions_->push_back(clock_);
    return r;
  }
  drive::OpResult ScanSegments(tape::SegmentId from,
                               tape::SegmentId to) override {
    return Tick(inner_->ScanSegments(from, to));
  }
  drive::OpResult Rewind() override { return Tick(inner_->Rewind()); }

  tape::SegmentId Position() const override { return inner_->Position(); }
  void SetPosition(tape::SegmentId position) override {
    inner_->SetPosition(position);
  }
  const tape::LocateModel& model() const override { return inner_->model(); }

  /// A new batch is submitted: its clock starts at zero.
  void Restart() { clock_ = 0.0; }

 private:
  drive::OpResult Tick(drive::OpResult r) {
    clock_ += r.times.total();
    return r;
  }

  drive::Drive* inner_;
  std::vector<double>* completions_;
  double clock_ = 0.0;
};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kGen:
      return "workload.gen";
    case Layer::kCatalogBuild:
      return "fleet.catalog_build";
    case Layer::kAdmit:
      return "sim.admit";
    case Layer::kEstimate:
      return "fleet.estimate";
    case Layer::kRoute:
      return "fleet.route";
    case Layer::kDispatch:
      return "sim.dispatch";
    case Layer::kBuild:
      return "sched.build";
    case Layer::kExecute:
      return "drive.execute";
    case Layer::kFinalize:
      return "sim.finalize";
  }
  return "?";
}

bool LayerClock::Charge(Layer layer, double start, double end,
                        int64_t calls) {
  const int i = static_cast<int>(layer);
  seconds_[i] += end - start;
  calls_[i] += calls;
  if (recorder_ == nullptr || !(call_spans_ || layer == Layer::kDispatch)) {
    return false;
  }
  recorder_->CompleteEvent(obs::TraceClock::kWall, "serpbench",
                           LayerName(layer), start, end);
  return true;
}

void LayerClock::Span(const char* name, double start, double end,
                      std::string args_json) {
  if (recorder_ != nullptr) {
    recorder_->CompleteEvent(obs::TraceClock::kWall, "serpbench", name, start,
                             end, std::move(args_json));
  }
}

BatchReplicaResult ReplaySimulatePoint(const tape::LocateModel& model,
                                       sched::Algorithm algorithm, int n,
                                       int64_t trials, int32_t seed,
                                       LayerClock& clock) {
  SERPENTINE_CHECK_GT(trials, 0);
  BatchReplicaResult out;
  const tape::SegmentId total = model.geometry().total_segments();

  // SimulatePoint's shard layout: min(trials, 256) shards, trial t drawing
  // from DeriveRand48State(seed, t), shard accumulators merged in order.
  const int64_t shards = std::min<int64_t>(trials, 256);
  std::vector<serpentine::Accumulator> shard_seconds(shards);
  out.responses.reserve(static_cast<size_t>(trials) * n);
  drive::ModelDrive base(model);
  ClockedDrive stack(&base, &out.responses);
  serpentine::Lrand48 rng(0);
  clock.set_call_spans(true);

  clock.Mark();
  for (int64_t s = 0; s < shards; ++s) {
    const int64_t first = s * trials / shards;
    const int64_t last = (s + 1) * trials / shards;
    for (int64_t t = first; t < last; ++t) {
      rng.SeedState(serpentine::DeriveRand48State(seed, t));
      const tape::SegmentId initial = rng.NextBounded(total);
      std::vector<sched::Request> requests =
          sim::GenerateUniformRequests(rng, n, total);
      clock.Lap(Layer::kGen);

      StatusOr<sched::Schedule> schedule = sched::BuildSchedule(
          model, initial, std::move(requests), algorithm);
      SERPENTINE_CHECK(schedule.ok());
      clock.Lap(Layer::kBuild);

      stack.Restart();
      sim::ExecutionResult r = sim::ExecuteSchedule(stack, schedule.value());
      shard_seconds[s].Add(r.total_seconds);
      clock.Lap(Layer::kExecute);
      out.locate_seconds += r.locate_seconds;
      out.read_seconds += r.read_seconds;
      out.busy_seconds += r.total_seconds;
    }
  }

  serpentine::Accumulator total_seconds;
  for (int64_t s = 0; s < shards; ++s) total_seconds.Merge(shard_seconds[s]);
  out.stats.n = n;
  out.stats.trials = trials;
  out.stats.mean_total_seconds = total_seconds.mean();
  out.stats.std_total_seconds = total_seconds.stddev();
  out.stats.mean_seconds_per_locate = total_seconds.mean() / n;
  clock.Lap(Layer::kFinalize);
  out.stats.mean_schedule_cpu_seconds =
      clock.seconds(Layer::kBuild) / static_cast<double>(trials);
  return out;
}

StatusOr<fleet::FleetResult> ReplayRunFleet(const fleet::Fleet& fleet,
                                            const fleet::FleetConfig& config,
                                            LayerClock& clock) {
  const int libraries = fleet.libraries();
  clock.set_call_spans(true);
  clock.Mark();
  SERPENTINE_RETURN_IF_ERROR(fleet::ValidateFleetConfig(fleet, config));
  fleet::FleetTopology topology = fleet.Topology();
  int64_t logical = config.logical_segments;
  if (logical == 0) {
    logical = topology.library_segments(0);
    for (int lib = 1; lib < libraries; ++lib) {
      logical = std::min(logical, topology.library_segments(lib));
    }
  }
  SERPENTINE_ASSIGN_OR_RETURN(
      fleet::Catalog built,
      fleet::Catalog::Build(topology, logical, config.placement));
  // Owned apart so that its teardown, which RunFleet pays on return, is
  // timed with its build.
  auto owned_catalog = std::make_unique<fleet::Catalog>(std::move(built));
  const fleet::Catalog& catalog = *owned_catalog;
  clock.Lap(Layer::kCatalogBuild);

  std::vector<sim::ServingRequest> arrivals =
      sim::GenerateOnlineArrivals(config.serving, logical);
  clock.Lap(Layer::kGen);

  std::vector<std::unique_ptr<sim::ServingCore>> cores;
  cores.reserve(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    int64_t fault_stream =
        static_cast<int64_t>(config.serving.seed) + kLibraryFaultStride * lib;
    cores.push_back(std::make_unique<sim::ServingCore>(
        fleet.models[lib], config.serving, fault_stream,
        config.mount_exchange_seconds));
  }
  fleet::Router router(&catalog, libraries, config.router);

  // Hands `core` its input call, then Steps it until it needs input, as
  // one lap: charged to dispatch when a batch went out (the few admission
  // Steps around it ride along; a dispatch is ~1000x longer), to admit
  // otherwise. Every call that dispatched nothing counts as an admission
  // call either way. Timing each Step alone would cost more clock reads
  // than a knee arrival's admission work.
  auto crank = [&](sim::ServingCore& core, auto input) {
    const int64_t batches = core.result().batches;
    int64_t steps = 1;
    input(core);
    while (core.Step() == sim::ServingStep::kRan) ++steps;
    const int64_t dispatched = core.result().batches - batches;
    clock.Count(Layer::kAdmit, 1 + steps - dispatched);
    clock.Lap(dispatched > 0 ? Layer::kDispatch : Layer::kAdmit, dispatched);
  };

  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<double> first_routed(libraries, kNever);
  std::vector<fleet::ReplicaScore> scores;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const sim::ServingRequest& a = arrivals[i];
    const bool spanned = static_cast<int64_t>(i) < kSpannedArrivals;
    clock.set_call_spans(spanned);
    const double arrival_start = clock.Mark();

    for (std::unique_ptr<sim::ServingCore>& core : cores) {
      crank(*core, [&](sim::ServingCore& c) { c.AdvanceInputBound(a.time); });
    }

    // Every replica's bid, catalog lookup included: one call per replica.
    const std::vector<fleet::ReplicaLocation>& replicas =
        catalog.replicas(a.segment);
    scores.resize(replicas.size());
    for (size_t r = 0; r < replicas.size(); ++r) {
      const sim::ServingCore& core = *cores[replicas[r].library];
      scores[r].seconds =
          std::max(core.clock() - a.time, 0.0) +
          core.EstimateServiceSeconds(replicas[r].cartridge,
                                      replicas[r].segment);
      scores[r].breaker_open = core.breaker_open();
    }
    clock.Lap(Layer::kEstimate, static_cast<int64_t>(replicas.size()));

    fleet::RouteDecision decision = router.Route(a.segment, scores);
    clock.Lap(Layer::kRoute);

    // The hand-off, with the per-library depth gauge RunFleet publishes.
    sim::ServingRequest routed = a;
    routed.segment = decision.location.segment;
    routed.cartridge = decision.location.cartridge;
    sim::ServingCore& target = *cores[decision.location.library];
    target.Push(routed);
    first_routed[decision.location.library] =
        std::min(first_routed[decision.location.library], a.time);
    obs::SetGauge(
        "fleet.lib" + std::to_string(decision.location.library) + ".depth",
        static_cast<double>(target.queue_depth()));
    clock.Lap(Layer::kAdmit);

    if (spanned) {
      clock.Span("arrival", arrival_start, clock.Now(),
                 "{\"i\":" + std::to_string(i) + "}");
    }
  }
  clock.set_call_spans(false);
  clock.Mark();
  for (std::unique_ptr<sim::ServingCore>& core : cores) {
    crank(*core, [](sim::ServingCore& c) { c.FinishInput(); });
    SERPENTINE_CHECK(core->Step() == sim::ServingStep::kDone);
    clock.Lap(Layer::kAdmit);
    core->FinishResult();
    clock.Lap(Layer::kFinalize);
  }

  // RunFleet's aggregation, expression for expression.
  fleet::FleetResult out;
  out.per_library.resize(libraries);
  out.routed_per_library = router.dispatches_per_library();
  out.placed_per_library = catalog.placed_per_library();
  out.failovers = router.failovers();

  std::vector<double> all_responses;
  double batch_sum = 0.0;
  double end_clock = 0.0;
  for (int lib = 0; lib < libraries; ++lib) {
    sim::ServingCore& core = *cores[lib];
    const sim::OnlineServerResult& r = core.result();

    sim::OnlineServerResult own = r;
    std::vector<double> responses = core.responses();
    sim::FinalizeOnlineServerResult(
        &own, &responses, core.batch_sum(), core.clock(),
        std::isfinite(first_routed[lib]) ? first_routed[lib]
                                         : core.clock());
    out.per_library[lib] = std::move(own);

    out.total.arrivals += r.arrivals;
    out.total.admitted += r.admitted;
    out.total.completed += r.completed;
    out.total.failed += r.failed;
    out.total.shed += r.shed;
    out.total.deadline_missed += r.deadline_missed;
    out.total.batches += r.batches;
    out.total.drive_busy_seconds += r.drive_busy_seconds;
    out.total.fault_retries += r.fault_retries;
    out.total.drive_resets += r.drive_resets;
    out.total.reschedules += r.reschedules;
    out.total.permanent_errors += r.permanent_errors;
    out.total.recovery_seconds += r.recovery_seconds;
    out.total.max_wait_cycles_observed = std::max(
        out.total.max_wait_cycles_observed, r.max_wait_cycles_observed);
    out.total.degraded_batches += r.degraded_batches;
    out.total.degradation_max_rung =
        std::max(out.total.degradation_max_rung, r.degradation_max_rung);
    out.total.breaker_fast_fails += r.breaker_fast_fails;
    out.total.breaker_wait_seconds += r.breaker_wait_seconds;
    out.total.breaker_transitions.insert(
        out.total.breaker_transitions.end(), r.breaker_transitions.begin(),
        r.breaker_transitions.end());
    out.total.shed_records.insert(out.total.shed_records.end(),
                                  r.shed_records.begin(),
                                  r.shed_records.end());

    all_responses.insert(all_responses.end(), core.responses().begin(),
                         core.responses().end());
    batch_sum += core.batch_sum();
    end_clock = std::max(end_clock, core.clock());
    out.cartridge_mounts += core.cartridge_mounts();
    out.mount_seconds += core.mount_seconds();
  }

  SERPENTINE_CHECK_EQ(
      out.total.shed + out.total.completed + out.total.failed,
      config.serving.total_requests);
  SERPENTINE_CHECK_EQ(out.total.arrivals, config.serving.total_requests);

  sim::FinalizeOnlineServerResult(&out.total, &all_responses, batch_sum,
                                  end_clock,
                                  arrivals.empty() ? 0.0 : arrivals[0].time);
  clock.Lap(Layer::kFinalize);
  owned_catalog.reset();
  clock.Lap(Layer::kCatalogBuild);
  return out;
}

}  // namespace serpbench
