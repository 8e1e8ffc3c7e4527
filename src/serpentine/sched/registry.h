// Scheduler registry: a fixed table of names for (Algorithm,
// SchedulerOptions) pairs, so tools and benches select schedulers by name
// instead of switching on the Algorithm enum in each binary. Every entry
// builds through BuildSchedule; the pair is a scheduler's only identity.
//
// The default registry carries the paper's nine algorithms under their
// AlgorithmName spellings, plus the named variants the paper discusses:
// "loss-coalesced" (LOSS with the recommended 1410-segment coalescing
// threshold) and "sltf-naive" (the textbook O(n²) greedy SLTF), and the
// builders this library adds: "ltsp-exact", "loss-mt" and
// "loss-mt-oropt".
#ifndef SERPENTINE_SCHED_REGISTRY_H_
#define SERPENTINE_SCHED_REGISTRY_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sched {

/// One named scheduler configuration.
struct RegistryEntry {
  /// Lookup key ("loss", "sltf-naive", ...). Lowercase, stable.
  std::string name;
  /// Display label for tables and figures ("LOSS", "SLTF*", ...).
  std::string label;
  /// What Build builds with.
  Algorithm algorithm = Algorithm::kFifo;
  SchedulerOptions options = {};
  /// One-line human description.
  std::string description;

  /// BuildSchedule(model, initial_position, requests, algorithm, options),
  /// reported as the wall-clock span "build:<name>" (category "sched") and
  /// the counter "sched.builds.<name>" — one relaxed atomic load each when
  /// observability is off.
  serpentine::StatusOr<Schedule> Build(const tape::LocateModel& model,
                                       tape::SegmentId initial_position,
                                       std::vector<Request> requests) const;
};

/// Name → scheduler-configuration table, in a fixed order.
class Registry {
 public:
  /// The entry for `name`, or nullptr.
  const RegistryEntry* Find(std::string_view name) const;

  /// Find with a helpful InvalidArgument (listing registered names) on
  /// miss.
  serpentine::StatusOr<const RegistryEntry*> Resolve(
      std::string_view name) const;

  /// All entries, in table order.
  const std::vector<RegistryEntry>& entries() const { return entries_; }

  /// The shared default registry: the paper's nine algorithms under their
  /// AlgorithmName spellings, then "loss-coalesced", "sltf-naive",
  /// "ltsp-exact", "loss-mt" and "loss-mt-oropt".
  static const Registry& Default();

 private:
  explicit Registry(std::vector<RegistryEntry> entries)
      : entries_(std::move(entries)) {}

  std::vector<RegistryEntry> entries_;
};

}  // namespace serpentine::sched

#endif  // SERPENTINE_SCHED_REGISTRY_H_
