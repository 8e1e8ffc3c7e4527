// The replica router: which copy of a logical segment serves a read. Each
// replica is scored by its library's estimated service time (queue wait +
// cartridge exchanges + sched::Estimator locate/read bound — see
// sim::ServingCore::EstimateServiceSeconds) and by its library's breaker
// state. The router picks the cheapest healthy replica; when the cheapest
// replica overall sits behind an open breaker it hedges — fails over to
// the best healthy one and counts the event — rather than queueing work on
// a drive that is refusing it.
//
// The router itself is pure arithmetic over the scores the caller
// provides; it never touches a clock or a drive, which keeps it trivially
// deterministic and unit-testable.
#ifndef SERPENTINE_FLEET_ROUTER_H_
#define SERPENTINE_FLEET_ROUTER_H_

#include <cstdint>
#include <vector>

#include "serpentine/fleet/catalog.h"

namespace serpentine::fleet {

/// One replica's bid for a request, indexed by replica number (as
/// Catalog::replica(logical, r)).
struct ReplicaScore {
  /// Estimated seconds until the candidate read completes on that
  /// replica's library (from the request's arrival instant). FleetEngine
  /// leaves it 0 for a lone replica, whose route is fixed anyway.
  double seconds = 0.0;
  /// True when that library's drive breaker is open (work would be refused
  /// or stalled behind a cooldown).
  bool breaker_open = false;
};

struct RouterOptions {
  /// When true (default), a replica behind an open breaker loses to any
  /// healthy replica regardless of score; the router falls back to pure
  /// score order only when every replica's breaker is open. When false,
  /// breaker state is ignored and the cheapest replica always wins.
  bool failover_on_open_breaker = true;
};

/// The outcome of routing one request.
struct RouteDecision {
  /// The chosen replica number, r in Catalog::replica(logical, r).
  int replica = 0;
  ReplicaLocation location;
  /// The chosen replica's score.
  double score_seconds = 0.0;
  /// True when the score-optimal replica was skipped because its breaker
  /// was open (hedged failover).
  bool failover = false;
};

/// Scores → decision, with per-library dispatch counters. Borrows the
/// catalog (which is immutable after Build).
class Router {
 public:
  Router(const Catalog* catalog, int libraries, RouterOptions options = {});

  /// Routes logical segment `logical` given one score per replica (score r
  /// for catalog->replica(logical, r); one per replica). Ties on
  /// seconds break toward the lower replica index, so equal-cost fleets
  /// route deterministically.
  RouteDecision Route(int64_t logical, const std::vector<ReplicaScore>& scores);

  // ---- lifetime counters ----
  int64_t dispatches() const { return dispatches_; }
  /// Requests that skipped the score-optimal replica on an open breaker.
  int64_t failovers() const { return failovers_; }
  const std::vector<int64_t>& dispatches_per_library() const {
    return dispatches_per_library_;
  }

 private:
  const Catalog* catalog_;
  RouterOptions options_;
  int64_t dispatches_ = 0;
  int64_t failovers_ = 0;
  std::vector<int64_t> dispatches_per_library_;
};

}  // namespace serpentine::fleet

#endif  // SERPENTINE_FLEET_ROUTER_H_
