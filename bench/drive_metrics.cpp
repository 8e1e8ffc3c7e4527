// Drive op-count accounting per scheduling algorithm: executes one batch
// under every registered scheduler on a metered drive stack and reports
// what the drive actually did — operation counts, per-phase seconds, and
// locate-latency histograms. One MeteredDrive JSON record per algorithm
// goes to the file named by SERPENTINE_DRIVE_JSON (the op-count record
// tools/run_benches.sh writes next to its timing JSONL); the table goes
// to stdout.
//
// The final row executes LOSS under heavy fault injection
// (Metered(Fault(Model)) + RecoveringExecutor), so the record set also
// carries a fault-accounting example: recovery seconds and fault counts
// are nonzero only there.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serpentine/drive/fault_drive.h"
#include "serpentine/drive/fault_injector.h"
#include "serpentine/drive/metered_drive.h"
#include "serpentine/drive/model_drive.h"
#include "serpentine/drive/tracing_drive.h"
#include "serpentine/obs/metrics.h"
#include "serpentine/sim/executor.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/table.h"

using namespace serpentine;

namespace {

constexpr int kBatchSize = 192;
constexpr int32_t kSeed = 42;

std::FILE* OpenDriveJson() {
  const char* path = std::getenv("SERPENTINE_DRIVE_JSON");
  if (path == nullptr || path[0] == '\0') return nullptr;
  return std::fopen(path, "w");
}

void AddRow(Table& table, const std::string& label,
            const drive::DriveMetrics& m, double total_seconds,
            std::FILE* json) {
  table.AddRow({label, Table::Int(m.locates), Table::Int(m.reads + m.scans),
                Table::Int(m.rewinds), Table::Int(m.segments_read),
                Table::Num(m.locate_seconds, 1), Table::Num(m.read_seconds, 1),
                Table::Num(m.recovery_seconds, 1),
                Table::Num(total_seconds, 1), Table::Int(m.faults())});
  if (json != nullptr) {
    std::fprintf(json, "%s\n", m.ToJson(label).c_str());
  }
  if (obs::MetricsRegistry* registry = obs::MetricsRegistry::active()) {
    m.PublishTo(*registry, "drive." + label);
  }
}

}  // namespace

int main() {
  // Opt-in tracing/metrics for the whole run via SERPENTINE_TRACE /
  // SERPENTINE_METRICS_JSON (tools/run_benches.sh sets both to produce
  // its sample artifacts).
  bench::ObsSession obs_session;
  bench::PrintHeader(
      "drive op accounting",
      "Drive operations per algorithm for one batch (N = 192, tape A):\n"
      "what each scheduler costs the transport, not just the clock.");

  Lrand48 rng(kSeed);
  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  std::vector<sched::Request> requests = sim::GenerateUniformRequests(
      rng, kBatchSize, model.geometry().total_segments());

  std::FILE* json = OpenDriveJson();
  Table table;
  table.SetHeader({"scheduler", "locates", "reads", "rewinds", "segments",
                   "locate_s", "read_s", "recovery_s", "total_s", "faults"});

  for (const char* name :
       {"fifo", "sort", "scan", "weave", "sltf", "loss", "sparse-loss",
        "read"}) {
    const sched::RegistryEntry* entry = sched::Registry::Default().Find(name);
    if (entry == nullptr) continue;
    auto schedule = entry->Build(model, 0, requests);
    if (!schedule.ok()) {
      std::fprintf(stderr, "%s: %s\n", name,
                   schedule.status().ToString().c_str());
      return 1;
    }
    // A fresh stack per algorithm: each row's metrics cover one execution.
    bench::BenchDriveStack stack = bench::MakeTapeADrive();
    sched::EstimateOptions options;
    options.rewind_at_end = true;
    sim::ExecutionResult res =
        sim::ExecuteSchedule(stack.drive(), *schedule, options);
    AddRow(table, entry->label, stack.metered().metrics(), res.total_seconds,
           json);
  }

  // The fault-accounting row: the same LOSS schedule executed on
  // Metered(Fault(Model)) under the heavy profile.
  {
    auto schedule =
        sched::Registry::Default().Find("loss")->Build(model, 0, requests);
    if (!schedule.ok()) {
      std::fprintf(stderr, "loss: %s\n", schedule.status().ToString().c_str());
      return 1;
    }
    drive::FaultInjector injector(drive::FaultProfile::Heavy());
    drive::ModelDrive base(model);
    drive::FaultDrive faulty(&base, &injector);
    drive::MeteredDrive metered(&faulty);
    drive::TracingDrive traced(&metered);
    sim::RecoveryOptions recovery;
    recovery.estimate.rewind_at_end = true;
    sim::RecoveringExecutor executor(traced, model, recovery);
    sim::RecoveringExecutionResult res = executor.Execute(*schedule);
    AddRow(table, "LOSS+heavy-faults", metered.metrics(), res.total_seconds,
           json);
  }

  table.Print();
  if (json != nullptr) {
    std::fclose(json);
    std::printf("\nwrote per-algorithm drive-op records to %s\n",
                std::getenv("SERPENTINE_DRIVE_JSON"));
  }
  return 0;
}
