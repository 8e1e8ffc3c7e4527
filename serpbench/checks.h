// Output checks: bitwise comparison of simulated results, and the
// invariants every run of a workload must satisfy. Each returns the list
// of problems found (empty = pass), phrased for a failure report.
#ifndef SERPBENCH_CHECKS_H_
#define SERPBENCH_CHECKS_H_

#include <string>
#include <vector>

#include "serpentine/fleet/fleet_server.h"
#include "serpentine/sim/experiment.h"
#include "workloads.h"

namespace serpbench {

/// The paper's LOSS retrieval rate at n = 1024 from a random start
/// (section 8), and the tolerance the batch workload must meet.
inline constexpr double kPaperIosPerHour = 285.0;
inline constexpr double kPaperTolerance = 0.10;

/// Simulated fields of two PointStats that differ bit for bit
/// (mean_schedule_cpu_seconds is a wall measurement and is skipped).
std::vector<std::string> DiffPointStats(const serpentine::sim::PointStats& a,
                                        const serpentine::sim::PointStats& b);

/// Every field of two FleetResults that differs bit for bit, per-library
/// results and shed records included.
std::vector<std::string> DiffFleetResults(
    const serpentine::fleet::FleetResult& a,
    const serpentine::fleet::FleetResult& b);

/// Invariants of one entry-point run: request conservation (fleet-wide
/// and per library), routed == arrivals, p95 <= p99 <= max with at least
/// ten answered requests beyond p99, and for the batch workload the
/// paper's retrieval rate within kPaperTolerance.
std::vector<std::string> CheckOutcome(const Workload& w, const Outcome& o);

}  // namespace serpbench

#endif  // SERPBENCH_CHECKS_H_
