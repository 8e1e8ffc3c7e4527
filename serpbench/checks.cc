#include "checks.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

namespace serpbench {

namespace fleet = serpentine::fleet;
namespace sim = serpentine::sim;

namespace {

/// Collects the names of differing fields; doubles compare by bit pattern.
class Differ {
 public:
  explicit Differ(std::vector<std::string>* out) : out_(out) {}

  void operator()(const std::string& name, double a, double b) {
    if (std::bit_cast<uint64_t>(a) != std::bit_cast<uint64_t>(b)) {
      out_->push_back(name);
    }
  }
  void operator()(const std::string& name, int64_t a, int64_t b) {
    if (a != b) out_->push_back(name);
  }
  void operator()(const std::string& name, int a, int b) {
    (*this)(name, int64_t{a}, int64_t{b});
  }

 private:
  std::vector<std::string>* out_;
};

void DiffServing(const std::string& p, const sim::OnlineServerResult& a,
                 const sim::OnlineServerResult& b,
                 std::vector<std::string>* out) {
  Differ d(out);
  d(p + "arrivals", a.arrivals, b.arrivals);
  d(p + "admitted", a.admitted, b.admitted);
  d(p + "completed", a.completed, b.completed);
  d(p + "failed", a.failed, b.failed);
  d(p + "shed", a.shed, b.shed);
  d(p + "deadline_missed", a.deadline_missed, b.deadline_missed);
  d(p + "batches", a.batches, b.batches);
  d(p + "mean_batch_size", a.mean_batch_size, b.mean_batch_size);
  d(p + "makespan_seconds", a.makespan_seconds, b.makespan_seconds);
  d(p + "drive_busy_seconds", a.drive_busy_seconds, b.drive_busy_seconds);
  d(p + "utilization", a.utilization, b.utilization);
  d(p + "mean_response_seconds", a.mean_response_seconds,
    b.mean_response_seconds);
  d(p + "p95_response_seconds", a.p95_response_seconds,
    b.p95_response_seconds);
  d(p + "p99_response_seconds", a.p99_response_seconds,
    b.p99_response_seconds);
  d(p + "max_response_seconds", a.max_response_seconds,
    b.max_response_seconds);
  d(p + "throughput_per_hour", a.throughput_per_hour, b.throughput_per_hour);
  d(p + "fault_retries", a.fault_retries, b.fault_retries);
  d(p + "drive_resets", a.drive_resets, b.drive_resets);
  d(p + "reschedules", a.reschedules, b.reschedules);
  d(p + "permanent_errors", a.permanent_errors, b.permanent_errors);
  d(p + "recovery_seconds", a.recovery_seconds, b.recovery_seconds);
  d(p + "max_wait_cycles_observed", a.max_wait_cycles_observed,
    b.max_wait_cycles_observed);
  d(p + "degraded_batches", a.degraded_batches, b.degraded_batches);
  d(p + "degradation_max_rung", a.degradation_max_rung,
    b.degradation_max_rung);
  d(p + "breaker_fast_fails", a.breaker_fast_fails, b.breaker_fast_fails);
  d(p + "breaker_wait_seconds", a.breaker_wait_seconds,
    b.breaker_wait_seconds);

  d(p + "breaker_transitions.size",
    static_cast<int64_t>(a.breaker_transitions.size()),
    static_cast<int64_t>(b.breaker_transitions.size()));
  if (a.breaker_transitions.size() == b.breaker_transitions.size()) {
    for (size_t i = 0; i < a.breaker_transitions.size(); ++i) {
      const std::string q = p + "breaker_transitions[" + std::to_string(i) +
                            "].";
      d(q + "at_seconds", a.breaker_transitions[i].at_seconds,
        b.breaker_transitions[i].at_seconds);
      d(q + "from", static_cast<int64_t>(a.breaker_transitions[i].from),
        static_cast<int64_t>(b.breaker_transitions[i].from));
      d(q + "to", static_cast<int64_t>(a.breaker_transitions[i].to),
        static_cast<int64_t>(b.breaker_transitions[i].to));
    }
  }

  d(p + "shed_records.size", static_cast<int64_t>(a.shed_records.size()),
    static_cast<int64_t>(b.shed_records.size()));
  if (a.shed_records.size() == b.shed_records.size()) {
    for (size_t i = 0; i < a.shed_records.size(); ++i) {
      const sim::ShedRecord& x = a.shed_records[i];
      const sim::ShedRecord& y = b.shed_records[i];
      const std::string q = p + "shed_records[" + std::to_string(i) + "].";
      d(q + "id", x.id, y.id);
      d(q + "arrival_seconds", x.arrival_seconds, y.arrival_seconds);
      d(q + "priority", x.priority, y.priority);
      if (!(x.status == y.status)) out->push_back(q + "status");
    }
  }
}

void DiffCounts(const std::string& name, const std::vector<int64_t>& a,
                const std::vector<int64_t>& b,
                std::vector<std::string>* out) {
  if (a != b) out->push_back(name);
}

}  // namespace

std::vector<std::string> DiffPointStats(const sim::PointStats& a,
                                        const sim::PointStats& b) {
  std::vector<std::string> out;
  Differ d(&out);
  d("n", a.n, b.n);
  d("trials", a.trials, b.trials);
  d("mean_total_seconds", a.mean_total_seconds, b.mean_total_seconds);
  d("std_total_seconds", a.std_total_seconds, b.std_total_seconds);
  d("mean_seconds_per_locate", a.mean_seconds_per_locate,
    b.mean_seconds_per_locate);
  return out;
}

std::vector<std::string> DiffFleetResults(const fleet::FleetResult& a,
                                          const fleet::FleetResult& b) {
  std::vector<std::string> out;
  DiffServing("total.", a.total, b.total, &out);
  if (a.per_library.size() != b.per_library.size()) {
    out.push_back("per_library.size");
  } else {
    for (size_t i = 0; i < a.per_library.size(); ++i) {
      DiffServing("per_library[" + std::to_string(i) + "].", a.per_library[i],
                  b.per_library[i], &out);
    }
  }
  DiffCounts("routed_per_library", a.routed_per_library, b.routed_per_library,
             &out);
  DiffCounts("placed_per_library", a.placed_per_library, b.placed_per_library,
             &out);
  Differ d(&out);
  d("failovers", a.failovers, b.failovers);
  d("cartridge_mounts", a.cartridge_mounts, b.cartridge_mounts);
  d("mount_seconds", a.mount_seconds, b.mount_seconds);
  return out;
}

std::vector<std::string> CheckOutcome(const Workload& w, const Outcome& o) {
  std::vector<std::string> problems;
  if (w.kind == Kind::kBatch) {
    const sim::PointStats& p = o.point;
    if (p.n != w.batch_size || p.trials != w.trials) {
      problems.push_back("SimulatePoint ran n=" + std::to_string(p.n) +
                         " trials=" + std::to_string(p.trials));
    }
    const double ios_per_hour = 3600.0 / p.mean_seconds_per_locate;
    if (!(std::abs(ios_per_hour / kPaperIosPerHour - 1.0) <=
          kPaperTolerance)) {
      problems.push_back("retrieval rate " + std::to_string(ios_per_hour) +
                         " I/O/h is not within 10% of the paper's 285");
    }
    return problems;
  }

  const fleet::FleetResult& f = o.fleet;
  auto conserve = [&](const std::string& who, const sim::OnlineServerResult& r,
                      int64_t expected) {
    if (r.completed + r.failed + r.shed != r.arrivals ||
        r.arrivals != expected) {
      problems.push_back(who + ": completed " + std::to_string(r.completed) +
                         " + failed " + std::to_string(r.failed) + " + shed " +
                         std::to_string(r.shed) + " vs arrivals " +
                         std::to_string(r.arrivals) + ", expected " +
                         std::to_string(expected));
    }
  };
  conserve("fleet", f.total, w.requests);
  int64_t routed = 0;
  for (size_t lib = 0; lib < f.per_library.size(); ++lib) {
    conserve("library " + std::to_string(lib), f.per_library[lib],
             f.routed_per_library[lib]);
    routed += f.routed_per_library[lib];
  }
  if (routed != f.total.arrivals) {
    problems.push_back("routed " + std::to_string(routed) + " != arrivals " +
                       std::to_string(f.total.arrivals));
  }
  const sim::OnlineServerResult& t = f.total;
  if (!(t.p95_response_seconds <= t.p99_response_seconds &&
        t.p99_response_seconds <= t.max_response_seconds)) {
    problems.push_back("response percentiles out of order: p95 " +
                       std::to_string(t.p95_response_seconds) + ", p99 " +
                       std::to_string(t.p99_response_seconds) + ", max " +
                       std::to_string(t.max_response_seconds));
  }
  // FinalizeOnlineServerResult's p99 index is floor(0.99 * (answered - 1)).
  const int64_t answered = t.completed + t.failed;
  const int64_t beyond =
      answered - 1 - static_cast<int64_t>(0.99 * (answered - 1));
  if (beyond < 10) {
    problems.push_back("only " + std::to_string(beyond) +
                       " answered requests beyond p99");
  }
  return problems;
}

}  // namespace serpbench
