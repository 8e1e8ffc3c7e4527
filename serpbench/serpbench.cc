// serpbench: runs one workload of the catalogue (workloads.h) for a wall
// budget and prints everything it measured as one JSON line on stdout.
//
//   serpbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--scale F] [--slo] [--out DIR]
//
// --trace 0 repeats [set the tapes up kSetupsPerRun times, run the public
// entry point once] until S seconds have passed and at least kMinReps
// runs are done. Every simulated field must be bit-identical across the
// runs. The batch workload then runs its replica once more, untimed, for
// the per-request response times SimulatePoint does not expose. --slo
// adds the slo_rate_per_h search on workloads that define one.
//
// Wall metrics are the fastest of their samples, not the median. The host
// is shared: interference only ever slows a run down, and it comes in
// spells of tens of seconds, long enough to move the median of a whole
// run by 10-20 %. The fastest sample tracks the undisturbed cost within a
// few percent.
//
// --trace 1 alternates an entry-point run with a traced replica run
// (replica.h) until S seconds have passed, requires the replica's result
// to equal the entry point's field for field, and reports the per-layer
// split of the fastest replica run. It also writes that split and a
// Chrome trace of the first traced run under --out.
//
// Exit status: 0 when every output check passed, 1 when one failed (the
// JSON line then says "correct": false and lists each failure with its
// workload, seed and run), 2 on a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "replica.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sim/serving_core.h"
#include "workloads.h"

namespace serpbench {
namespace {

namespace fleet = serpentine::fleet;
namespace obs = serpentine::obs;
namespace sim = serpentine::sim;

/// Set-ups timed before each entry-point run, and the fewest entry-point
/// runs per measurement.
constexpr int kSetupsPerRun = 5;
constexpr int kMinReps = 3;

struct Args {
  const Workload* workload = nullptr;
  int32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool slo = false;
  std::string out = "bench-results/serpbench";
};

double WallSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double Fastest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Metrics in print order, the run's failures, and the request tallies.
class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Metric(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }

  /// Records each problem with the workload, seed and run it came from.
  void Fail(const std::string& run, const std::vector<std::string>& problems) {
    for (const std::string& p : problems) {
      errors_.push_back("workload=" + std::string(args_.workload->name) +
                        " seed=" + std::to_string(args_.seed) + " " + run +
                        ": " + p);
    }
  }

  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  bool correct() const { return errors_.empty(); }

  /// {"name": {"value": v, "unit": u}, ...}
  std::string MetricsJson() const {
    std::string s = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      if (i > 0) s += ", ";
      s += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
    }
    return s + "}";
  }

  std::string Json() const {
    std::string errors = "[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      errors += (i > 0 ? ", " : "") + JsonString(errors_[i]);
    }
    errors += "]";
    return "{\"workload\": " + JsonString(args_.workload->name) +
           ", \"seed\": " + std::to_string(args_.seed) +
           ", \"trace\": " + (args_.trace ? "1" : "0") +
           ", \"correct\": " + (correct() ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) +
           ", \"errors\": " + errors + ", \"metrics\": " + MetricsJson() +
           "}";
  }

  void PrintErrors() const {
    for (const std::string& e : errors_) {
      std::fprintf(stderr, "serpbench: CHECK FAILED: %s\n", e.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  const Args& args_;
  std::vector<Entry> metrics_;
  std::vector<std::string> errors_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string RunName(int rep) { return "run=" + std::to_string(rep); }

/// Runs the entry point once, checks its invariants and its identity with
/// `first` (set from the first run), and returns its wall seconds, or a
/// negative value when the run itself failed.
double TimedEntryRun(const Args& args, const Workload& w,
                     const fleet::Fleet& system, int rep,
                     std::unique_ptr<Outcome>* first, Report* report) {
  auto start = std::chrono::steady_clock::now();
  serpentine::StatusOr<Outcome> outcome =
      RunEntryPoint(w, system, args.seed);
  const double wall = WallSince(start);
  if (!outcome.ok()) {
    report->Fail(RunName(rep), {outcome.status().ToString()});
    return -1.0;
  }
  report->Fail(RunName(rep), CheckOutcome(w, *outcome));
  report->Count(SimulatedRequests(w),
                w.kind == Kind::kServing ? outcome->fleet.total.failed : 0);
  if (*first == nullptr) {
    *first = std::make_unique<Outcome>(std::move(outcome).value());
  } else {
    std::vector<std::string> diff =
        w.kind == Kind::kBatch ? DiffPointStats(outcome->point, (*first)->point)
                               : DiffFleetResults(outcome->fleet,
                                                  (*first)->fleet);
    if (!diff.empty()) {
      report->Fail(RunName(rep),
                   {"simulated result differs from run 0 in " +
                    std::to_string(diff.size()) + " fields, first " +
                    diff.front()});
    }
  }
  std::fprintf(stderr, "serpbench: %s seed %d run %d: %.3f s wall\n", w.name,
               args.seed, rep, wall);
  return wall;
}

void RunUntraced(const Args& args, const Workload& w, Report* report) {
  std::vector<double> setups;
  std::vector<double> walls;
  std::unique_ptr<fleet::UniformFleet> system;
  std::unique_ptr<Outcome> first;
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < kMinReps || WallSince(start) < args.seconds; ++rep) {
    // Set-ups are spread over the run like the entry-point runs, so that
    // both see the same spells of host interference.
    for (int i = 0; i < kSetupsPerRun; ++i) {
      system.reset();
      auto setup_start = std::chrono::steady_clock::now();
      system = MakeSystem(w);
      setups.push_back(WallSince(setup_start));
    }
    double wall = TimedEntryRun(args, w, system->fleet(), rep, &first, report);
    if (wall < 0.0) return;
    walls.push_back(wall);
  }
  const double peak_rss = PeakRssMiB();
  const double requests = static_cast<double>(SimulatedRequests(w));

  double throughput = 0.0;
  sim::OnlineServerResult responses;  // the response statistics reported
  double samples = 0.0;
  double served = 0.0;
  double failed_fraction = 0.0;
  if (w.kind == Kind::kBatch) {
    // SimulatePoint reports only per-batch means; its replica stamps every
    // read. Each completion time counts from its batch's submission.
    LayerClock clock;
    BatchReplicaResult replica = ReplaySimulatePoint(
        *system->fleet().models[0][0], w.algorithm, w.batch_size, w.trials,
        args.seed, clock);
    std::vector<std::string> diff = DiffPointStats(replica.stats, first->point);
    if (!diff.empty()) {
      report->Fail("replica", {"batch replica differs from SimulatePoint in " +
                               diff.front()});
    }
    samples = static_cast<double>(replica.responses.size());
    served = samples / requests;
    sim::FinalizeOnlineServerResult(&responses, &replica.responses, 0.0, 0.0,
                                    0.0);
    throughput = 3600.0 / first->point.mean_seconds_per_locate;
  } else {
    const sim::OnlineServerResult& t = first->fleet.total;
    responses = t;
    throughput = t.throughput_per_hour;
    samples = static_cast<double>(t.completed + t.failed);
    served = static_cast<double>(t.completed) / t.arrivals;
    failed_fraction = static_cast<double>(t.shed + t.failed) / t.arrivals;
  }

  report->Metric("sim_requests_per_wall_s", requests / Fastest(walls),
                 "1/s");
  report->Metric("setup_s", Fastest(setups), "s");
  report->Metric("peak_rss_mb", peak_rss, "MiB");
  report->Metric("throughput_per_h", throughput, "1/h");
  report->Metric("mean_response_s", responses.mean_response_seconds, "s");
  report->Metric("p99_response_s", responses.p99_response_seconds, "s");
  report->Metric("served_fraction", served, "fraction");
  report->Metric("failed_fraction", failed_fraction, "fraction");
  report->Metric("response_samples", samples, "count");
  report->Metric("runs", static_cast<double>(walls.size()), "count");

  if (args.slo && !w.slo_rates.empty()) {
    serpentine::StatusOr<double> slo =
        SloRatePerHour(w, system->fleet(), args.seed);
    if (!slo.ok()) {
      report->Fail("slo", {slo.status().ToString()});
      return;
    }
    report->Metric("slo_rate_per_h", *slo, "1/h");
  }
}

/// One traced replica run's split.
struct TracedRun {
  double wall = 0.0;
  std::array<double, kNumLayers> seconds{};
  std::array<int64_t, kNumLayers> calls{};
  BatchReplicaResult batch;  // kBatch only
};

void WriteFile(const std::string& path, const std::string& text,
               Report* report) {
  std::ofstream f(path);
  f << text << "\n";
  if (!f) report->Fail("output", {"cannot write " + path});
}

void RunTraced(const Args& args, const Workload& w, Report* report) {
  std::unique_ptr<fleet::UniformFleet> system = MakeSystem(w);
  const fleet::Fleet& fleet_ref = system->fleet();

  std::unique_ptr<Outcome> first;
  std::vector<double> untraced;
  std::vector<TracedRun> traced;
  obs::TraceRecorder first_trace;
  auto start = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 1 || WallSince(start) < args.seconds; ++rep) {
    double wall = TimedEntryRun(args, w, fleet_ref, rep, &first, report);
    if (wall < 0.0) return;
    untraced.push_back(wall);

    obs::TraceRecorder scratch;
    LayerClock clock(rep == 0 ? &first_trace : &scratch);
    TracedRun run;
    const double t0 = clock.Now();
    std::vector<std::string> diff;
    if (w.kind == Kind::kBatch) {
      run.batch = ReplaySimulatePoint(*fleet_ref.models[0][0], w.algorithm,
                                      w.batch_size, w.trials, args.seed, clock);
      run.wall = clock.Now() - t0;
      diff = DiffPointStats(run.batch.stats, first->point);
    } else {
      serpentine::StatusOr<fleet::FleetResult> r = ReplayRunFleet(
          fleet_ref, ServingConfig(w, args.seed, w.rate_per_hour, w.requests),
          clock);
      run.wall = clock.Now() - t0;
      if (!r.ok()) {
        report->Fail("traced " + RunName(rep), {r.status().ToString()});
        return;
      }
      diff = DiffFleetResults(*r, first->fleet);
    }
    if (!diff.empty()) {
      report->Fail("traced " + RunName(rep),
                   {"replica differs from the entry point in " +
                    std::to_string(diff.size()) + " fields, first " +
                    diff.front()});
    }
    for (int l = 0; l < kNumLayers; ++l) {
      run.seconds[l] = clock.seconds(static_cast<Layer>(l));
      run.calls[l] = clock.calls(static_cast<Layer>(l));
    }
    report->Count(SimulatedRequests(w), 0);
    std::fprintf(stderr, "serpbench: %s seed %d traced run %d: %.3f s wall\n",
                 w.name, args.seed, rep, run.wall);
    traced.push_back(std::move(run));
  }

  // The fastest traced run supplies the split.
  const TracedRun& run = *std::min_element(
      traced.begin(), traced.end(),
      [](const TracedRun& a, const TracedRun& b) { return a.wall < b.wall; });
  auto seconds = [&](Layer l) { return run.seconds[static_cast<int>(l)]; };
  auto calls = [&](Layer l) { return run.calls[static_cast<int>(l)]; };
  double attributed = 0.0;
  for (double s : run.seconds) attributed += s;
  const double untraced_wall = Fastest(untraced);

  report->Metric("bench.traced_wall_s", run.wall, "s");
  report->Metric("bench.untraced_wall_s", untraced_wall, "s");
  report->Metric("bench.unattributed_wall_s", run.wall - attributed, "s");
  report->Metric("bench.unattributed_share", (run.wall - attributed) / run.wall,
                 "fraction");
  report->Metric("bench.trace_overhead_ratio", run.wall / untraced_wall,
                 "ratio");
  for (int l = 0; l < kNumLayers; ++l) {
    const std::string name = LayerName(static_cast<Layer>(l));
    report->Metric(name + "_wall_s", run.seconds[l], "s");
    report->Metric(name + "_share", run.seconds[l] / run.wall, "fraction");
  }

  auto per = [](double seconds, double count) {
    return count > 0 ? seconds / count : 0.0;
  };
  const double batch_wall = seconds(Layer::kDispatch) + seconds(Layer::kBuild) +
                            seconds(Layer::kExecute);
  if (w.kind == Kind::kBatch) {
    const BatchReplicaResult& b = run.batch;
    const double requests = static_cast<double>(SimulatedRequests(w));
    report->Metric("sched.builds", calls(Layer::kBuild), "count");
    report->Metric("sched.build_wall_s_per_request",
                   per(seconds(Layer::kBuild), requests), "s");
    report->Metric("sim.batches", w.trials, "count");
    report->Metric("sim.mean_batch_size", w.batch_size, "count");
    report->Metric("sim.dispatch_wall_s_per_batch", per(batch_wall, w.trials),
                   "s");
    report->Metric("sim.admitted", requests, "count");
    report->Metric("sim.shed", 0, "count");
    report->Metric("drive.busy_virtual_s", b.busy_seconds, "s");
    report->Metric("drive.locate_virtual_s", b.locate_seconds, "s");
    report->Metric("drive.read_virtual_s", b.read_seconds, "s");
    // Closed loop: the drive is never idle between batches.
    report->Metric("drive.utilization", 1.0, "fraction");
    report->Metric("fleet.routes", 0, "count");
    report->Metric("fleet.route_imbalance", 0, "ratio");
    report->Metric("fleet.failovers", 0, "count");
    report->Metric("sim.cartridge_mounts", 0, "count");
    report->Metric("sim.mount_virtual_s", 0, "s");
  } else {
    const fleet::FleetResult& f = first->fleet;
    int64_t routed = 0;
    int64_t most = 0;
    for (int64_t n : f.routed_per_library) {
      routed += n;
      most = std::max(most, n);
    }
    const double libraries = static_cast<double>(f.routed_per_library.size());
    report->Metric("sched.builds", 0, "count");
    report->Metric("sched.build_wall_s_per_request", 0, "s");
    report->Metric("sim.batches", f.total.batches, "count");
    report->Metric("sim.mean_batch_size", f.total.mean_batch_size, "count");
    report->Metric("sim.dispatch_wall_s_per_batch",
                   per(batch_wall, f.total.batches), "s");
    report->Metric("sim.admitted", f.total.admitted, "count");
    report->Metric("sim.shed", f.total.shed, "count");
    report->Metric("drive.busy_virtual_s", f.total.drive_busy_seconds, "s");
    report->Metric("drive.locate_virtual_s", 0, "s");
    report->Metric("drive.read_virtual_s", 0, "s");
    report->Metric("drive.utilization", f.total.utilization / libraries,
                   "fraction");
    report->Metric("fleet.routes", routed, "count");
    report->Metric("fleet.route_imbalance", most / (routed / libraries),
                   "ratio");
    report->Metric("fleet.failovers", f.failovers, "count");
    report->Metric("sim.cartridge_mounts", f.cartridge_mounts, "count");
    report->Metric("sim.mount_virtual_s", f.mount_seconds, "s");
  }
  report->Metric("sim.admit_steps", calls(Layer::kAdmit), "count");
  report->Metric("fleet.estimate_calls", calls(Layer::kEstimate), "count");
  report->Metric("fleet.estimate_wall_s_per_call",
                 per(seconds(Layer::kEstimate), calls(Layer::kEstimate)), "s");

  std::error_code ec;
  std::filesystem::create_directories(args.out, ec);
  const std::string stem =
      args.out + "/" + w.name + "-seed" + std::to_string(args.seed);
  WriteFile(stem + ".layers.json", report->MetricsJson(), report);
  serpentine::Status written = first_trace.WriteJson(stem + ".trace.json");
  if (!written.ok()) report->Fail("output", {written.ToString()});
  std::fprintf(stderr, "serpbench: wrote %s.layers.json and %s.trace.json\n",
               stem.c_str(), stem.c_str());
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "serpbench: %s\nusage: serpbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale F] [--slo] [--out DIR]\n"
               "workloads:",
               why);
  for (const Workload& w : Catalogue()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace serpbench

int main(int argc, char** argv) {
  using namespace serpbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--slo") {
      args.slo = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = FindWorkload(value);
      if (args.workload == nullptr) {
        return Usage(("unknown workload " + value).c_str());
      }
      continue;
    }
    if (flag == "--out") {
      args.out = value;
      continue;
    }
    const double number = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      return Usage((flag + " needs a number, got " + value).c_str());
    }
    if (flag == "--seed" && number >= 0 && number <= 2147483647.0 &&
        number == static_cast<int32_t>(number)) {
      args.seed = static_cast<int32_t>(number);
    } else if (flag == "--seconds" && number >= 0 && std::isfinite(number)) {
      args.seconds = number;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      args.trace = number == 1;
    } else if (flag == "--scale" && number > 0 && number <= 1) {
      args.scale = number;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  if (args.workload == nullptr) return Usage("--workload is required");

  const Workload w = Scaled(*args.workload, args.scale);
  Report report(args);
  if (args.trace) {
    RunTraced(args, w, &report);
  } else {
    RunUntraced(args, w, &report);
  }
  report.PrintErrors();
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
