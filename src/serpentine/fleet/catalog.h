// The fleet catalog: where every logical segment's replicas live. The
// single-library stack addresses physical segments directly; a fleet
// (docs/fleet.md, TALICS³ direction) needs one more level of naming —
// a logical segment maps to R physical (library, cartridge, segment)
// locations, placed at ingest by a policy and chosen at read time by the
// router (router.h) on estimated service time.
#ifndef SERPENTINE_FLEET_CATALOG_H_
#define SERPENTINE_FLEET_CATALOG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "serpentine/tape/locate_model.h"
#include "serpentine/util/statusor.h"

namespace serpentine::fleet {

/// One physical copy of a logical segment.
struct ReplicaLocation {
  int library = 0;
  int cartridge = 0;
  tape::SegmentId segment = 0;

  bool operator==(const ReplicaLocation&) const = default;
};

/// How ingest spreads replicas across libraries.
enum class PlacementPolicy {
  /// Library (i + r) mod L for logical segment i, replica r: perfectly
  /// balanced, zero randomness, the determinism-pin default.
  kRoundRobin = 0,
  /// Seeded uniform draws over the non-full libraries.
  kRandom = 1,
  /// Seeded draws weighted by per-library weights (capacity, geography,
  /// measured load — the EOS-scheduler knob); uniform when no weights are
  /// given.
  kWeighted = 2,
};

/// Stable lowercase name ("round-robin", "random", "weighted").
const char* PlacementPolicyName(PlacementPolicy policy);

/// Inverse of PlacementPolicyName; InvalidArgument (listing the valid
/// names) for anything else. The single parsing point for CLI flags and
/// bench labels.
serpentine::StatusOr<PlacementPolicy> PlacementPolicyFromString(
    std::string_view name);

/// Physical shape of a fleet: per-library, per-cartridge segment
/// capacities.
struct FleetTopology {
  /// capacity[lib][cart] = segments on that cartridge.
  std::vector<std::vector<tape::SegmentId>> capacity;

  int libraries() const { return static_cast<int>(capacity.size()); }
  int cartridges(int library) const {
    return static_cast<int>(capacity[library].size());
  }
  /// Defined only on a topology ValidateCapacities accepts.
  int64_t library_segments(int library) const;
  int64_t total_segments() const;
};

/// InvalidArgument when a cartridge's capacity is not positive, when one
/// library's capacities sum past INT64_MAX (naming the library), or when
/// the fleet total does; OK otherwise. Catalog::Build and
/// ValidateFleetConfig check it before anything sums capacities.
serpentine::Status ValidateCapacities(const FleetTopology& topology);

struct PlacementOptions {
  PlacementPolicy policy = PlacementPolicy::kRoundRobin;
  /// Copies per logical segment, on distinct libraries.
  int replication = 1;
  /// Per-library weights for kWeighted; empty = uniform. Must be finite,
  /// >= 0, with a positive sum, and either empty or one per library.
  std::vector<double> weights;
  /// Seed of the placement rand48 stream (kRandom / kWeighted only;
  /// kRoundRobin draws nothing).
  int32_t seed = 1;
};

/// The logical → physical mapping, built once at ingest and immutable
/// afterwards (safe to share across replicated runs and threads).
///
/// Within each library, placement fills cartridges sequentially (cartridge
/// 0 segment 0 upward), so a 1-library / replication-1 catalog is the
/// identity mapping — logical segment i IS physical segment i — which is
/// what lets a 1-library fleet reproduce the single-library OnlineServer
/// stream bit for bit.
///
/// Round-robin placement that fits every library is computed on demand:
/// replica r of logical i sits on library (i + r) mod L at the fill
/// position given by counting the earlier replicas that library took, so
/// the catalog holds O(L·C) numbers however many segments it maps. Random
/// and weighted placement, and a round-robin placement that overfills a
/// library, store one flat table of N·R locations.
class Catalog {
 public:
  /// Places `logical_segments` segments × replication replicas onto the
  /// topology. Fails with InvalidArgument on an impossible request
  /// (replication > libraries, bad weights, capacities ValidateCapacities
  /// rejects) and ResourceExhausted when capacity runs out under the
  /// distinct-library constraint.
  static serpentine::StatusOr<Catalog> Build(const FleetTopology& topology,
                                             int64_t logical_segments,
                                             const PlacementOptions& options);

  int64_t num_logical() const { return num_logical_; }
  int replication() const { return replication_; }

  /// Replica `r` of `logical` (replica 0 is the first placed). CHECKs
  /// 0 <= logical < num_logical() and 0 <= r < replication().
  ReplicaLocation replica(int64_t logical, int r) const;

  /// Every replica of `logical`, in placement order, as a new vector.
  std::vector<ReplicaLocation> replicas(int64_t logical) const;

  /// Physical segments placed on each library (placement-balance metric).
  const std::vector<int64_t>& placed_per_library() const {
    return placed_per_library_;
  }

 private:
  /// fill_end_[l][c]: the capacity of library l's cartridges 0..c, where
  /// its sequential fill moves past cartridge c.
  std::vector<std::vector<tape::SegmentId>> fill_end_;
  std::vector<int64_t> placed_per_library_;
  /// Replica r of logical i at [i * replication_ + r]; empty when the
  /// placement is computed.
  std::vector<ReplicaLocation> table_;
  int64_t num_logical_ = 0;
  int replication_ = 1;
};

}  // namespace serpentine::fleet

#endif  // SERPENTINE_FLEET_CATALOG_H_
