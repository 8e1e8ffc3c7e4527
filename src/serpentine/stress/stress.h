// Million-request stress harness: an open-loop, multi-tenant request
// stream (workload::ArrivalProcess) driven incrementally through the fleet
// serving engine (fleet::FleetEngine — a single library is a fleet of
// one), with two service-layer effects the sim configs don't model:
//
//   * a segment cache (store::SegmentCache over logical segments): a
//     request whose segment is cached is answered at arrival, latency 0,
//     never dispatched;
//   * cross-tenant duplicate coalescing: a request for a segment already
//     in flight piggybacks on the primary read and completes (or sheds)
//     with it instead of dispatching its own.
//
// Every arrival therefore takes exactly one of four terminal paths —
// cache hit, coalesced, answered by the engine (OK or failed), or shed —
// and RunStress checks the conservation identity
//   arrivals == cache_hits + coalesced + completed + failed + shed
// (coalesced waiters of a shed primary count under shed).
//
// Determinism: the arrival process, tenant draw, and segment draw come
// from three decorrelated rand48 streams derived from one seed; the engine
// is the pinned deterministic fleet engine; and the harness cranks it to
// each arrival instant before admitting the arrival, so the whole run is a
// pure function of the config; replicate it with util/replicate.h's
// Replicate, which keeps replicas thread-count invariant.
//
// Latencies are recorded into obs::Histogram (p50/p95/p99/p99.9 within
// one log₂ bucket, exact min/max — see Histogram::Quantile) rather than a
// sorted vector, so a million-request run costs O(buckets) memory for its
// tail statistics.
#ifndef SERPENTINE_STRESS_STRESS_H_
#define SERPENTINE_STRESS_STRESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/obs/histogram.h"
#include "serpentine/sim/online_server.h"
#include "serpentine/util/statusor.h"

namespace serpentine::stress {

/// One tenant's share of the request stream. Tenants are drawn per
/// arrival, weighted, from a stream separate from arrival timing — adding
/// a tenant never shifts when requests arrive.
struct TenantSpec {
  std::string name;
  double weight = 1.0;
};

struct StressConfig {
  /// Arrival process: "poisson", "diurnal", or "bursty"
  /// (workload::MakeArrivalProcess), at serving.arrival_rate_per_hour.
  std::string process = "poisson";

  /// The request mix. Empty = one tenant ("t0", weight 1).
  std::vector<TenantSpec> tenants;

  /// LRU segment-cache capacity in logical segments; 0 disables caching.
  int64_t cache_capacity = 0;
  /// Coalesce duplicate in-flight segment reads.
  bool coalesce_duplicates = false;

  /// Serving-engine knobs (dispatch policy, algorithm, admission,
  /// deadlines, degradation, faults, breaker). Its arrival knobs shape the
  /// stress stream: arrival_rate_per_hour is the process's long-run mean
  /// rate, total_requests the stream length, and seed seeds every stream
  /// (arrivals, tenants, segments, faults).
  sim::OnlineServerConfig serving;

  /// Fleet knobs, applied to the fleet RunStress is given.
  fleet::PlacementOptions placement;
  fleet::RouterOptions router;
  double mount_exchange_seconds = 0.0;
};

/// Per-tenant accounting. Terminal counts sum to `arrivals`; response
/// statistics cover every answered request (hits at 0 latency, coalesced
/// at the primary's completion).
struct TenantStats {
  std::string name;
  double weight = 1.0;
  int64_t arrivals = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  int64_t completed = 0;  ///< answered OK by the engine
  int64_t failed = 0;     ///< answered with an error
  int64_t shed = 0;       ///< shed at admission (or waiting on a shed read)
  obs::Histogram response;
};

struct StressResult {
  /// Terminal-path totals; arrivals == cache_hits + coalesced + completed
  /// + failed + shed (checked).
  int64_t arrivals = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t shed = 0;
  /// Requests actually pushed into the serving engine(s).
  int64_t dispatched = 0;

  /// End-to-end latency over every *answered* request (hits, coalesced,
  /// engine completions; sheds excluded).
  obs::Histogram latency;
  double mean_response_seconds = 0.0;
  double p50_response_seconds = 0.0;
  double p95_response_seconds = 0.0;
  double p99_response_seconds = 0.0;
  double p999_response_seconds = 0.0;
  double max_response_seconds = 0.0;

  double makespan_seconds = 0.0;       ///< first arrival to last core clock
  double throughput_per_hour = 0.0;    ///< answered / makespan
  double offered_rate_per_hour = 0.0;  ///< arrivals / arrival span
  /// Summed drive busy / makespan (can exceed 1 with several libraries).
  double utilization = 0.0;

  std::vector<TenantStats> tenants;
  /// Jain fairness index over per-tenant answered throughput normalized
  /// by weight: 1 = perfectly proportional, 1/n = one tenant starved.
  double fairness_jain = 1.0;

  /// Aggregated engine tallies (fleet-style fold across cores).
  sim::OnlineServerResult engine;
};

/// Rejects bad process names/rates, non-positive tenant weights, negative
/// cache capacity, and invalid nested serving/router configs.
Status ValidateStressConfig(const StressConfig& config);

/// Runs the stream to completion on `fleet`: every arrival answered or
/// shed, every core drained. Fails on an invalid configuration or fleet
/// (fleet::ValidateFleetConfig), and propagates catalog build errors for
/// unplaceable fleet shapes. A single-library single-cartridge run passes
/// a fleet whose models are {{&model}}.
StatusOr<StressResult> RunStress(const fleet::Fleet& fleet,
                                 const StressConfig& config);

}  // namespace serpentine::stress

#endif  // SERPENTINE_STRESS_STRESS_H_
