// Million-request stress harness (docs/stress.md): open-loop load against
// the serving stack with tail-latency SLO reporting.
//
// Part 1 — the knee sweep: for each scheduling policy, a short calibration
// run at deep overload measures the policy's saturation throughput, then
// the offered Poisson load sweeps 0.25x..4x of it. p50/p95/p99/p99.9 of
// answered requests come from the obs::Histogram quantile API (within one
// log2 bucket, exact max); the latency-throughput knee — tails flat below
// saturation, exploding through it while the shed rate takes over — is
// asserted, not eyeballed.
//
// Part 2 — the service mix: a 3-library fleet under multi-tenant load
// (weighted gold/silver/bronze streams), cross-tenant duplicate
// coalescing, and an LRU segment cache, driven by each arrival process
// (poisson, diurnal sinusoid, bursty on/off) at fixed offered load.
//
// Machine-readable output: one "stress" JSONL record per point to
// SERPENTINE_BENCH_JSON (schema in tools/validate_bench_json.py and
// docs/benchmarks.md). At SERPENTINE_SCALE=full each knee point runs
// 1,000,000 requests.
//
// Exit status is nonzero when an invariant breaks: terminal-path
// conservation, non-finite statistics, disordered quantiles, offered load
// failing to rise with the multiplier, or a missing knee.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serpentine/fleet/fleet_server.h"
#include "serpentine/stress/stress.h"

using namespace serpentine;

namespace {

/// One "stress" record: the point's label, size and wall time, plus the
/// SLO statistics validate_bench_json.py requires.
void RecordPoint(bench::TimingRecorder& recorder, const std::string& label,
                 const std::string& process, int64_t n, double wall_seconds,
                 const stress::StressResult& r) {
  double inv_arrivals =
      r.arrivals > 0 ? 1.0 / static_cast<double>(r.arrivals) : 0.0;
  recorder.Record(
      label, n, /*trials=*/1, wall_seconds,
      ",\"process\":\"%s\",\"tenants\":%d,"
      "\"offered_rate_per_hour\":%.3f,\"throughput_per_hour\":%.3f,"
      "\"p50_response_seconds\":%.3f,\"p95_response_seconds\":%.3f,"
      "\"p99_response_seconds\":%.3f,\"p999_response_seconds\":%.3f,"
      "\"max_response_seconds\":%.3f,\"shed_rate\":%.6f,"
      "\"cache_hit_rate\":%.6f,\"coalesced_rate\":%.6f,"
      "\"utilization\":%.6f,\"fairness_jain\":%.6f",
      process.c_str(), static_cast<int>(r.tenants.size()),
      r.offered_rate_per_hour, r.throughput_per_hour, r.p50_response_seconds,
      r.p95_response_seconds, r.p99_response_seconds,
      r.p999_response_seconds, r.max_response_seconds,
      r.shed * inv_arrivals, r.cache_hits * inv_arrivals,
      r.coalesced * inv_arrivals, r.utilization, r.fairness_jain);
}

struct Policy {
  const char* name;
  sched::Algorithm algorithm;
};

/// Invariants every reported point must satisfy. Returns the number of
/// violations (0 = clean) and prints each one.
int CheckPoint(const char* label, const stress::StressResult& r) {
  int violations = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "INVARIANT VIOLATION [%s]: %s\n", label, what);
    ++violations;
  };
  if (r.cache_hits + r.coalesced + r.completed + r.failed + r.shed !=
      r.arrivals) {
    fail("terminal paths do not conserve arrivals");
  }
  for (double v :
       {r.mean_response_seconds, r.p50_response_seconds,
        r.p95_response_seconds, r.p99_response_seconds,
        r.p999_response_seconds, r.max_response_seconds, r.utilization,
        r.throughput_per_hour, r.offered_rate_per_hour, r.fairness_jain}) {
    if (!std::isfinite(v)) {
      fail("non-finite statistic");
      break;
    }
  }
  if (r.p50_response_seconds > r.p95_response_seconds ||
      r.p95_response_seconds > r.p99_response_seconds ||
      r.p99_response_seconds > r.p999_response_seconds ||
      r.p999_response_seconds > r.max_response_seconds) {
    fail("quantiles out of order");
  }
  if (r.fairness_jain <= 0.0 || r.fairness_jain > 1.0 + 1e-9) {
    fail("Jain fairness index outside (0, 1]");
  }
  int64_t tenant_arrivals = 0;
  for (const stress::TenantStats& t : r.tenants) {
    tenant_arrivals += t.arrivals;
    if (t.cache_hits + t.coalesced + t.completed + t.failed + t.shed !=
        t.arrivals) {
      fail("per-tenant terminal paths do not conserve tenant arrivals");
    }
  }
  if (tenant_arrivals != r.arrivals) {
    fail("tenant arrivals do not sum to total arrivals");
  }
  return violations;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Stress harness (scale extension)",
      "open-loop load vs the serving stack: per-policy latency-throughput "
      "knee, then multi-tenant fleet service with caching and coalescing");

  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  fleet::Fleet one_library;
  one_library.models = {{&model}};
  // Knee points: 1M requests at full scale, 50k default, 2k smoke.
  const int64_t total = ScaledTrials(1000000, 20, 500, 2000);
  const std::vector<Policy> policies = {{"fifo", sched::Algorithm::kFifo},
                                        {"loss", sched::Algorithm::kLoss}};
  const std::vector<double> multipliers = {0.25, 0.5, 1.0, 1.5,
                                           2.0,  3.0, 4.0};

  bench::TimingRecorder recorder("stress");
  Table table;
  table.SetHeader({"policy", "x-sat", "rate/h", "p50 s", "p95 s", "p99 s",
                   "p99.9 s", "shed%", "util", "thr/h"});
  int violations = 0;

  auto base_config = [&](const Policy& p) {
    stress::StressConfig config;
    config.process = "poisson";
    config.serving.algorithm = p.algorithm;
    // A served system sheds rather than queueing without bound: depth-cap
    // admission keeps the backlog (and the run time of saturated
    // million-request points) bounded, as PR 6's overload story requires.
    config.serving.admission.enabled = true;
    config.serving.admission.max_queue_depth = 256;
    config.serving.dispatch_max_batch = 64;
    return config;
  };

  for (const Policy& p : policies) {
    // Calibration: deep overload, shorter stream; with admission shedding
    // the drive runs flat out, so answered throughput IS the saturation
    // rate of this policy.
    double saturation = 0.0;
    {
      stress::StressConfig config = base_config(p);
      config.serving.arrival_rate_per_hour = 2000.0;
      config.serving.total_requests = std::max<int64_t>(total / 10, 500);
      config.serving.seed = 7;
      auto result = stress::RunStress(one_library, config);
      if (!result.ok()) {
        std::fprintf(stderr, "calibration %s: %s\n", p.name,
                     result.status().ToString().c_str());
        return 1;
      }
      saturation = result->throughput_per_hour;
    }
    std::printf("%s saturation: %.1f answered/h\n", p.name, saturation);

    std::vector<double> p99(multipliers.size(), 0.0);
    std::vector<double> shed_rate(multipliers.size(), 0.0);
    double prev_offered = 0.0;
    for (size_t m = 0; m < multipliers.size(); ++m) {
      stress::StressConfig config = base_config(p);
      config.serving.arrival_rate_per_hour = saturation * multipliers[m];
      config.serving.total_requests = total;
      config.serving.seed = 1;
      auto begin = std::chrono::steady_clock::now();
      auto result = stress::RunStress(one_library, config);
      double wall = bench::SecondsSince(begin);
      if (!result.ok()) {
        std::fprintf(stderr, "%s@%.2fx: %s\n", p.name, multipliers[m],
                     result.status().ToString().c_str());
        return 1;
      }
      const stress::StressResult& r = *result;
      std::string label = std::string(p.name) + "@" +
                          Table::Num(multipliers[m], 2) + "x";
      violations += CheckPoint(label.c_str(), r);
      // Offered load must rise with the multiplier (same process, same
      // seed, higher rate).
      if (m > 0 && r.offered_rate_per_hour <= prev_offered) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION [%s]: offered load not monotone "
                     "(%.1f after %.1f)\n",
                     label.c_str(), r.offered_rate_per_hour, prev_offered);
        ++violations;
      }
      prev_offered = r.offered_rate_per_hour;
      p99[m] = r.p99_response_seconds;
      shed_rate[m] =
          r.arrivals > 0 ? static_cast<double>(r.shed) / r.arrivals : 0.0;
      RecordPoint(recorder, label, config.process, total, wall, r);
      table.AddRow({p.name, Table::Num(multipliers[m], 2),
                    Table::Num(r.offered_rate_per_hour, 0),
                    Table::Num(r.p50_response_seconds, 0),
                    Table::Num(r.p95_response_seconds, 0),
                    Table::Num(r.p99_response_seconds, 0),
                    Table::Num(r.p999_response_seconds, 0),
                    Table::Num(100.0 * shed_rate[m], 1),
                    Table::Num(r.utilization, 2),
                    Table::Num(r.throughput_per_hour, 1)});
    }

    // The knee must be visible: past saturation either the p99 tail or
    // the shed rate must have clearly departed from the low-load plateau.
    size_t lo = 0, hi = multipliers.size() - 1;
    bool knee = p99[hi] > 1.5 * p99[lo] || shed_rate[hi] > shed_rate[lo] + 0.05;
    if (!knee) {
      std::fprintf(stderr,
                   "INVARIANT VIOLATION [%s]: no latency-throughput knee "
                   "(p99 %.1f -> %.1f, shed %.3f -> %.3f)\n",
                   p.name, p99[lo], p99[hi], shed_rate[lo], shed_rate[hi]);
      ++violations;
    }
  }
  table.Print();

  // ---- part 2: multi-tenant fleet service mix ----
  std::printf("\nService mix: 3-library fleet, gold/silver/bronze tenants, "
              "LRU cache, duplicate coalescing\n");
  fleet::UniformFleet uniform(tape::Dlt4000TapeParams(),
                              tape::Dlt4000Timings(), /*libraries=*/3,
                              /*cartridges_per_library=*/1);
  Table mix;
  mix.SetHeader({"process", "p99 s", "p99.9 s", "hit%", "coal%", "shed%",
                 "jain", "thr/h"});
  for (const char* process : {"poisson", "diurnal", "bursty"}) {
    stress::StressConfig config = base_config(policies[1]);  // loss
    config.process = process;
    config.tenants = {{"gold", 3.0}, {"silver", 2.0}, {"bronze", 1.0}};
    config.cache_capacity = 4096;
    config.coalesce_duplicates = true;
    // Three libraries of loss-scheduled capacity; offered near fleet
    // saturation so every mechanism is exercised.
    config.serving.arrival_rate_per_hour = 400.0;
    config.serving.total_requests = std::max<int64_t>(total / 5, 1000);
    config.serving.seed = 11;
    auto begin = std::chrono::steady_clock::now();
    auto result = stress::RunStress(uniform.fleet(), config);
    double wall = bench::SecondsSince(begin);
    if (!result.ok()) {
      std::fprintf(stderr, "mix %s: %s\n", process,
                   result.status().ToString().c_str());
      return 1;
    }
    const stress::StressResult& r = *result;
    std::string label = std::string("mix-") + process;
    violations += CheckPoint(label.c_str(), r);
    RecordPoint(recorder, label, process, config.serving.total_requests,
                wall, r);
    double inv = r.arrivals > 0 ? 100.0 / r.arrivals : 0.0;
    mix.AddRow({process, Table::Num(r.p99_response_seconds, 0),
                Table::Num(r.p999_response_seconds, 0),
                Table::Num(r.cache_hits * inv, 1),
                Table::Num(r.coalesced * inv, 1),
                Table::Num(r.shed * inv, 1),
                Table::Num(r.fairness_jain, 3),
                Table::Num(r.throughput_per_hour, 1)});
  }
  mix.Print();

  std::printf(
      "\nExpected: tails sit on a plateau below saturation and explode "
      "through the knee while the shed rate takes over; the cache and "
      "coalescing absorb duplicate reads in the mix; Jain stays near 1 "
      "(weighted shares answered proportionally).\n");
  std::printf("invariant violations: %d (must be 0)\n", violations);
  return violations == 0 ? 0 : 1;
}
