#include "serpentine/sched/registry.h"

#include <utility>

#include "serpentine/obs/metrics.h"
#include "serpentine/obs/trace.h"
#include "serpentine/sched/coalesce.h"

namespace serpentine::sched {

serpentine::StatusOr<Schedule> RegistryEntry::Build(
    const tape::LocateModel& model, tape::SegmentId initial_position,
    std::vector<Request> requests) const {
  if (obs::TraceRecorder::active() == nullptr &&
      obs::MetricsRegistry::active() == nullptr) {
    return BuildSchedule(model, initial_position, std::move(requests),
                         algorithm, options);
  }
  obs::ScopedSpan span("sched", "build:" + name);
  obs::IncrementCounter("sched.builds." + name);
  return BuildSchedule(model, initial_position, std::move(requests),
                       algorithm, options);
}

const RegistryEntry* Registry::Find(std::string_view name) const {
  for (const RegistryEntry& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

serpentine::StatusOr<const RegistryEntry*> Registry::Resolve(
    std::string_view name) const {
  if (const RegistryEntry* entry = Find(name)) return entry;
  std::string known;
  for (const RegistryEntry& entry : entries_) {
    if (!known.empty()) known += "|";
    known += entry.name;
  }
  return InvalidArgumentError("unknown scheduler: \"" + std::string(name) +
                              "\" (registered: " + known + ")");
}

const Registry& Registry::Default() {
  static const Registry* const registry = new Registry({
      {.name = "read",
       .label = "READ",
       .algorithm = Algorithm::kRead,
       .description = "full-tape sequential scan, then rewind"},
      {.name = "fifo",
       .label = "FIFO",
       .algorithm = Algorithm::kFifo,
       .description = "service in arrival order"},
      {.name = "opt",
       .label = "OPT",
       .algorithm = Algorithm::kOpt,
       .description = "exact optimum (n <= 12)"},
      {.name = "sort",
       .label = "SORT",
       .algorithm = Algorithm::kSort,
       .description = "ascending segment number"},
      {.name = "sltf",
       .label = "SLTF",
       .algorithm = Algorithm::kSltf,
       .description = "shortest locate time first (section-based)"},
      {.name = "scan",
       .label = "SCAN",
       .algorithm = Algorithm::kScan,
       .description = "elevator over (track, section)"},
      {.name = "weave",
       .label = "WEAVE",
       .algorithm = Algorithm::kWeave,
       .description = "predefined section ordering"},
      {.name = "loss",
       .label = "LOSS",
       .algorithm = Algorithm::kLoss,
       .description = "greedy maximal-loss edge selection"},
      {.name = "sparse-loss",
       .label = "SPARSE-LOSS",
       .algorithm = Algorithm::kSparseLoss,
       .description = "LOSS on a sparse weave-order graph"},
      {.name = "loss-coalesced",
       .label = "LOSS+C",
       .algorithm = Algorithm::kLoss,
       .options = {.loss_coalesce_threshold = kDefaultCoalesceThreshold},
       .description = "LOSS with the paper's recommended coalescing threshold"},
      {.name = "sltf-naive",
       .label = "SLTF(n2)",
       .algorithm = Algorithm::kSltf,
       .options = {.sltf_naive = true},
       .description = "textbook O(n^2) greedy SLTF"},
      {.name = "ltsp-exact",
       .label = "LTSP",
       .algorithm = Algorithm::kLtsp,
       .description = "exact line-TSP interval DP (optimal under linear locate "
                      "costs; small-n correctness oracle)"},
      {.name = "loss-mt",
       .label = "LOSS-MT",
       .algorithm = Algorithm::kLossMt,
       .options = {.construction_workers = 0},  // auto
       .description =
           "partitioned parallel LOSS (bit-identical for any worker count)"},
      {.name = "loss-mt-oropt",
       .label = "LOSS-MT+OR",
       .algorithm = Algorithm::kLossMtOrOpt,
       .options = {.construction_workers = 0},  // auto
       .description = "partitioned parallel LOSS polished by windowed "
                      "incremental Or-opt"},
  });
  return *registry;
}

}  // namespace serpentine::sched
