#include "serpentine/fleet/router.h"

#include "serpentine/obs/metrics.h"
#include "serpentine/util/check.h"

namespace serpentine::fleet {

Router::Router(const Catalog* catalog, int libraries, RouterOptions options)
    : catalog_(catalog), options_(options) {
  SERPENTINE_CHECK(catalog != nullptr);
  SERPENTINE_CHECK_GE(libraries, 1);
  dispatches_per_library_.assign(libraries, 0);
}

RouteDecision Router::Route(int64_t logical,
                            const std::vector<ReplicaScore>& scores) {
  SERPENTINE_CHECK_EQ(scores.size(),
                      static_cast<size_t>(catalog_->replication()));

  // Two argmins in one pass: the best replica overall and the best healthy
  // one. Strict `<` keeps ties on the lowest replica index.
  int best = -1;
  int best_healthy = -1;
  for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
    if (best < 0 || scores[i].seconds < scores[best].seconds) best = i;
    if (!scores[i].breaker_open &&
        (best_healthy < 0 ||
         scores[i].seconds < scores[best_healthy].seconds)) {
      best_healthy = i;
    }
  }

  RouteDecision decision;
  if (options_.failover_on_open_breaker && best_healthy >= 0) {
    decision.replica = best_healthy;
    // A failover is only the hedge case: the overall winner was refused on
    // breaker state. When the winner is itself healthy the two argmins
    // coincide and nothing was skipped.
    decision.failover = scores[best].breaker_open;
  } else {
    // Breaker-blind routing, or every replica is behind an open breaker —
    // someone has to take the request; the cheapest queue eats it.
    decision.replica = best;
  }
  decision.location = catalog_->replica(logical, decision.replica);
  decision.score_seconds = scores[decision.replica].seconds;

  ++dispatches_;
  ++dispatches_per_library_[decision.location.library];
  obs::IncrementCounter("fleet.router.dispatches");
  if (decision.failover) {
    ++failovers_;
    obs::IncrementCounter("fleet.router.failovers");
  }
  return decision;
}

}  // namespace serpentine::fleet
