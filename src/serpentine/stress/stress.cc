#include "serpentine/stress/stress.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "serpentine/sim/serving_core.h"
#include "serpentine/store/segment_cache.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/workload/arrival_process.h"

namespace serpentine::stress {
namespace {

/// Stream indices deriving the tenant and segment rand48 streams from the
/// config seed. Fixed, distinct from the online-extras stream (1000003),
/// the library-fault stride (1000033), and each other; they must never
/// change — the stress determinism tests pin the draws.
constexpr int64_t kTenantStream = 1000081;
constexpr int64_t kSegmentStream = 1000099;

struct Waiter {
  int tenant = 0;
  double time = 0.0;
};

/// What the harness remembers about a pushed (primary) request.
struct PushedMeta {
  int tenant = 0;
  int64_t logical = 0;
};

double JainIndex(const std::vector<TenantStats>& tenants) {
  double sum = 0.0, sum_sq = 0.0;
  for (const TenantStats& t : tenants) {
    double answered =
        static_cast<double>(t.cache_hits + t.coalesced + t.completed +
                            t.failed);
    double x = t.weight > 0.0 ? answered / t.weight : 0.0;
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(tenants.size()) * sum_sq);
}

/// The fleet the stress config asks of the engine: the default
/// (smallest-capacity) catalog.
fleet::FleetConfig EngineConfig(const StressConfig& config) {
  fleet::FleetConfig engine;
  engine.serving = config.serving;
  engine.placement = config.placement;
  engine.router = config.router;
  engine.mount_exchange_seconds = config.mount_exchange_seconds;
  return engine;
}

}  // namespace

Status ValidateStressConfig(const StressConfig& config) {
  // Trial-build the process: MakeArrivalProcess owns the name/rate rules.
  SERPENTINE_RETURN_IF_ERROR(
      workload::MakeArrivalProcess(config.process,
                                   config.serving.arrival_rate_per_hour,
                                   config.serving.seed)
          .status());
  for (const TenantSpec& t : config.tenants) {
    if (!std::isfinite(t.weight) || t.weight <= 0.0) {
      return InvalidArgumentError(
          "StressConfig: tenant '" + t.name +
          "' weight must be finite and > 0, got " + std::to_string(t.weight));
    }
  }
  if (config.cache_capacity < 0) {
    return InvalidArgumentError(
        "StressConfig: cache_capacity must be >= 0 (0 = disabled), got " +
        std::to_string(config.cache_capacity));
  }
  // total_requests inherits ValidateOnlineServerConfig's [1, 2^32)
  // id-packing bound.
  SERPENTINE_RETURN_IF_ERROR(sim::ValidateOnlineServerConfig(config.serving));
  return OkStatus();
}

StatusOr<StressResult> RunStress(const fleet::Fleet& fleet,
                                 const StressConfig& config) {
  SERPENTINE_RETURN_IF_ERROR(ValidateStressConfig(config));
  SERPENTINE_ASSIGN_OR_RETURN(
      std::unique_ptr<fleet::FleetEngine> engine,
      fleet::FleetEngine::Create(fleet, EngineConfig(config)));
  const sim::OnlineServerConfig& serving = config.serving;

  // Decorrelated request-mix streams.
  SERPENTINE_ASSIGN_OR_RETURN(
      std::unique_ptr<workload::ArrivalProcess> process,
      workload::MakeArrivalProcess(config.process,
                                   serving.arrival_rate_per_hour,
                                   serving.seed));
  Lrand48 tenant_rng;
  tenant_rng.SeedState(DeriveRand48State(serving.seed, kTenantStream));
  Lrand48 segment_rng;
  segment_rng.SeedState(DeriveRand48State(serving.seed, kSegmentStream));

  StressResult out;
  std::vector<TenantSpec> mix = config.tenants;
  if (mix.empty()) mix.push_back(TenantSpec{"t0", 1.0});
  double weight_sum = 0.0;
  for (const TenantSpec& spec : mix) {
    out.tenants.emplace_back().name = spec.name;
    out.tenants.back().weight = spec.weight;
    weight_sum += spec.weight;
  }

  // Logical segments are one key space, so every key uses tape 0.
  store::SegmentCache cache(static_cast<size_t>(config.cache_capacity));
  // Coalescing state: logical segment → waiters riding the in-flight
  // primary. Only populated when coalescing is on (at most one in-flight
  // primary per segment then).
  std::unordered_map<int64_t, std::vector<Waiter>> inflight;
  std::unordered_map<int64_t, PushedMeta> pushed;  // primary id → meta

  auto answer = [&](int tenant, double latency) {
    out.latency.Add(latency);
    out.tenants[tenant].response.Add(latency);
  };

  // Per-core completion hook: credit the primary's tenant, fill the
  // cache, release coalesced waiters.
  for (int lib = 0; lib < engine->libraries(); ++lib) {
    engine->core(lib).set_completion_callback(
        [&](const sim::ServingRequest& req, double at, bool ok) {
          auto it = pushed.find(req.id);
          SERPENTINE_CHECK(it != pushed.end());
          PushedMeta meta = it->second;
          pushed.erase(it);
          TenantStats& t = out.tenants[meta.tenant];
          if (ok) {
            ++t.completed;
            cache.Insert(store::CacheKey{0, meta.logical});
          } else {
            ++t.failed;
          }
          answer(meta.tenant, at - req.time);
          auto fit = inflight.find(meta.logical);
          if (fit != inflight.end()) {
            for (const Waiter& w : fit->second) {
              ++out.coalesced;
              ++out.tenants[w.tenant].coalesced;
              answer(w.tenant, at - w.time);
            }
            inflight.erase(fit);
          }
        });
  }

  // Shed draining: the engine records sheds in result().shed_records but
  // fires no callback; consume the growth after every crank so waiters on
  // a shed primary are released (as sheds) promptly.
  std::vector<size_t> shed_seen(engine->libraries(), 0);
  int64_t shed_waiters = 0;
  auto drain_sheds = [&] {
    for (int c = 0; c < engine->libraries(); ++c) {
      const std::vector<sim::ShedRecord>& records =
          engine->core(c).result().shed_records;
      for (; shed_seen[c] < records.size(); ++shed_seen[c]) {
        auto it = pushed.find(records[shed_seen[c]].id);
        SERPENTINE_CHECK(it != pushed.end());
        PushedMeta meta = it->second;
        pushed.erase(it);
        ++out.tenants[meta.tenant].shed;
        auto fit = inflight.find(meta.logical);
        if (fit != inflight.end()) {
          for (const Waiter& w : fit->second) {
            ++shed_waiters;
            ++out.tenants[w.tenant].shed;
          }
          inflight.erase(fit);
        }
      }
    }
  };

  const int64_t logical = engine->logical_segments();
  double first_arrival = 0.0;
  double last_arrival = 0.0;
  for (int64_t i = 0; i < serving.total_requests; ++i) {
    double t = process->NextSeconds();
    if (i == 0) first_arrival = t;
    last_arrival = t;
    // The tenant and segment draws are consumed unconditionally, so the
    // stream of (time, tenant, segment) triples is independent of cache
    // and coalescing outcomes.
    int tenant = 0;
    {
      double u = tenant_rng.NextDouble() * weight_sum;
      double acc = 0.0;
      for (size_t k = 0; k < out.tenants.size(); ++k) {
        acc += out.tenants[k].weight;
        if (u < acc || k + 1 == out.tenants.size()) {
          tenant = static_cast<int>(k);
          break;
        }
      }
    }
    int64_t segment = segment_rng.NextBounded(logical);
    ++out.arrivals;
    ++out.tenants[tenant].arrivals;

    // Let every core serve up to the arrival instant before the request
    // looks at cache/in-flight state — the trajectory is then a pure
    // function of the config, independent of any host-side interleaving.
    engine->CrankTo(t);
    drain_sheds();

    if (cache.Lookup(store::CacheKey{0, segment})) {
      ++out.cache_hits;
      ++out.tenants[tenant].cache_hits;
      answer(tenant, 0.0);
      continue;
    }
    if (config.coalesce_duplicates) {
      auto it = inflight.find(segment);
      if (it != inflight.end()) {
        it->second.push_back(Waiter{tenant, t});
        continue;
      }
    }

    // Primary read: the engine routes it to a replica.
    sim::ServingRequest req;
    req.time = t;
    req.segment = segment;
    req.id = (static_cast<int64_t>(serving.seed) << 32) | i;
    engine->Submit(req);
    pushed[req.id] = PushedMeta{tenant, segment};
    if (config.coalesce_duplicates) inflight[segment];  // open the entry
    ++out.dispatched;
  }

  engine->Finish();
  drain_sheds();
  SERPENTINE_CHECK(pushed.empty());
  SERPENTINE_CHECK(inflight.empty());

  // ---- aggregation ----
  out.engine = engine->Tallies();
  const double end_clock = engine->end_clock();
  out.completed = out.engine.completed;
  out.failed = out.engine.failed;
  out.shed = out.engine.shed + shed_waiters;
  SERPENTINE_CHECK_EQ(out.engine.arrivals, out.dispatched);
  // The conservation identity: every arrival took exactly one terminal
  // path.
  SERPENTINE_CHECK_EQ(out.cache_hits + out.coalesced + out.completed +
                          out.failed + out.shed,
                      out.arrivals);

  out.makespan_seconds = std::max(end_clock, last_arrival) - first_arrival;
  double arrival_span = last_arrival - first_arrival;
  out.offered_rate_per_hour =
      arrival_span > 0.0 ? out.arrivals / (arrival_span / 3600.0) : 0.0;
  int64_t answered = out.arrivals - out.shed;
  out.throughput_per_hour =
      out.makespan_seconds > 0.0
          ? answered / (out.makespan_seconds / 3600.0)
          : 0.0;
  out.utilization = out.makespan_seconds > 0.0
                        ? out.engine.drive_busy_seconds / out.makespan_seconds
                        : 0.0;

  if (out.latency.count() > 0) {
    out.mean_response_seconds =
        out.latency.total_seconds() / out.latency.count();
    out.p50_response_seconds = out.latency.Quantile(0.50);
    out.p95_response_seconds = out.latency.Quantile(0.95);
    out.p99_response_seconds = out.latency.Quantile(0.99);
    out.p999_response_seconds = out.latency.Quantile(0.999);
    out.max_response_seconds = out.latency.max_seconds();
  }
  out.fairness_jain = JainIndex(out.tenants);
  return out;
}

}  // namespace serpentine::stress
