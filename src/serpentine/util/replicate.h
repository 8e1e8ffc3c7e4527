// Independent replications of one seeded experiment, the repo-wide recipe
// for replicating any single-run entry point (sim::RunOnlineServer,
// fleet::RunFleet, stress::RunStress, ...): replica r reseeds from the
// derived stream DeriveRand48State(seed, r), replicas fan out over the
// shared pool (or run serially), and each writes only its own result slot,
// so the results — and anything folded from them in replica order — are
// bit-identical for every thread count.
#ifndef SERPENTINE_UTIL_REPLICATE_H_
#define SERPENTINE_UTIL_REPLICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/util/lrand48.h"
#include "serpentine/util/statusor.h"
#include "serpentine/util/thread_pool.h"

namespace serpentine {

/// Runs `run(replica_seed)` for r in [0, replications), with replica_seed
/// the low 31 bits of DeriveRand48State(seed, r), and returns the results
/// in replica order. Replicas fan out through RunShards, in parallel only
/// when `concurrent` (every model the run reads tolerates concurrent
/// readers). Fails with InvalidArgument, naming `driver`, unless
/// replications >= 1.
template <typename Run>
auto Replicate(const char* driver, int32_t seed, int replications,
               int threads, bool concurrent, const Run& run)
    -> StatusOr<std::vector<decltype(run(seed))>> {
  if (replications < 1) {
    return InvalidArgumentError(std::string(driver) +
                                ": replications must be >= 1, got " +
                                std::to_string(replications));
  }
  std::vector<decltype(run(seed))> results(replications);
  RunShards(replications, threads, concurrent, [&](int64_t r) {
    results[r] = run(
        static_cast<int32_t>(DeriveRand48State(seed, r) & 0x7FFFFFFF));
  });
  return results;
}

}  // namespace serpentine

#endif  // SERPENTINE_UTIL_REPLICATE_H_
