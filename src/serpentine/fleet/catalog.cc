#include "serpentine/fleet/catalog.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/status.h"

namespace serpentine::fleet {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round-robin";
    case PlacementPolicy::kRandom:
      return "random";
    case PlacementPolicy::kWeighted:
      return "weighted";
  }
  return "unknown";
}

serpentine::StatusOr<PlacementPolicy> PlacementPolicyFromString(
    std::string_view name) {
  if (name == "round-robin" || name == "roundrobin") {
    return PlacementPolicy::kRoundRobin;
  }
  if (name == "random") return PlacementPolicy::kRandom;
  if (name == "weighted") return PlacementPolicy::kWeighted;
  return InvalidArgumentError(
      "unknown placement policy '" + std::string(name) +
      "' (expected round-robin, random, or weighted)");
}

int64_t FleetTopology::library_segments(int library) const {
  int64_t total = 0;
  for (tape::SegmentId c : capacity[library]) total += c;
  return total;
}

int64_t FleetTopology::total_segments() const {
  int64_t total = 0;
  for (int lib = 0; lib < libraries(); ++lib) total += library_segments(lib);
  return total;
}

serpentine::Status ValidateCapacities(const FleetTopology& topology) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t total = 0;
  for (int lib = 0; lib < topology.libraries(); ++lib) {
    int64_t sum = 0;
    for (tape::SegmentId c : topology.capacity[lib]) {
      if (c < 1) {
        return InvalidArgumentError(
            "library " + std::to_string(lib) +
            " has a cartridge with non-positive capacity");
      }
      // Compared as differences: the sums themselves would overflow.
      if (c > kMax - sum) {
        return InvalidArgumentError(
            "library " + std::to_string(lib) +
            "'s cartridge capacities sum past INT64_MAX segments");
      }
      sum += c;
    }
    if (sum > kMax - total) {
      return InvalidArgumentError(
          "the fleet's library capacities sum past INT64_MAX segments "
          "(at library " +
          std::to_string(lib) + ")");
    }
    total += sum;
  }
  return OkStatus();
}

namespace {

/// Sequential fill cursor of one library: next free (cartridge, segment).
struct FillCursor {
  int cartridge = 0;
  tape::SegmentId segment = 0;
  int64_t remaining = 0;
};

/// Under round-robin placement with no library full, the replicas of
/// logical segments below `logical` that land on `library`. Replica r' of
/// logical j lands on (j + r') mod L, so each r' contributes the j < logical
/// with j ≡ library − r' (mod L): ⌊logical / L⌋ of them, plus one when
/// that residue is below logical mod L. For logical = N this is the
/// library's placed count; for logical = i, the fill position of i's
/// replica there, since no earlier replica of i shares its library.
int64_t RoundRobinBelow(int64_t logical, int library, int libraries,
                        int replication) {
  const int64_t rest = logical % libraries;
  int64_t count = logical / libraries * replication;
  for (int r = 0; r < replication; ++r) {
    int residue = library - r;
    if (residue < 0) residue += libraries;
    if (residue < rest) ++count;
  }
  return count;
}

}  // namespace

serpentine::StatusOr<Catalog> Catalog::Build(const FleetTopology& topology,
                                             int64_t logical_segments,
                                             const PlacementOptions& options) {
  const int libraries = topology.libraries();
  if (libraries < 1) {
    return InvalidArgumentError("Catalog: topology has no libraries");
  }
  for (int lib = 0; lib < libraries; ++lib) {
    if (topology.cartridges(lib) < 1) {
      return InvalidArgumentError("Catalog: library " + std::to_string(lib) +
                                  " has no cartridges");
    }
  }
  SERPENTINE_RETURN_IF_ERROR(
      AnnotateStatus(ValidateCapacities(topology), "Catalog"));
  if (logical_segments < 1) {
    return InvalidArgumentError(
        "Catalog: logical_segments must be >= 1, got " +
        std::to_string(logical_segments));
  }
  if (options.replication < 1 || options.replication > libraries) {
    return InvalidArgumentError(
        "Catalog: replication " + std::to_string(options.replication) +
        " must be in [1, " + std::to_string(libraries) +
        "] (replicas live on distinct libraries)");
  }
  if (!options.weights.empty() &&
      static_cast<int>(options.weights.size()) != libraries) {
    return InvalidArgumentError(
        "Catalog: " + std::to_string(options.weights.size()) +
        " weights for " + std::to_string(libraries) + " libraries");
  }
  double weight_sum = 0.0;
  for (double w : options.weights) {
    if (!std::isfinite(w) || w < 0.0) {
      return InvalidArgumentError(
          "Catalog: weights must be finite and >= 0, got " +
          std::to_string(w));
    }
    weight_sum += w;
  }
  if (!options.weights.empty() && weight_sum <= 0.0) {
    return InvalidArgumentError(
        "Catalog: placement weights sum to zero — weighted placement needs "
        "at least one library with positive weight (got " +
        std::to_string(options.weights.size()) + " all-zero weights)");
  }
  // Divided, not multiplied: N·R can overflow int64 where N alone cannot.
  if (logical_segments > topology.total_segments() / options.replication) {
    return ResourceExhaustedError(
        "Catalog: " + std::to_string(logical_segments) + " segments x " +
        std::to_string(options.replication) + " replicas exceed fleet "
        "capacity " +
        std::to_string(topology.total_segments()));
  }

  Catalog catalog;
  catalog.num_logical_ = logical_segments;
  catalog.replication_ = options.replication;
  catalog.fill_end_.resize(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    tape::SegmentId end = 0;
    for (tape::SegmentId c : topology.capacity[lib]) {
      end += c;
      catalog.fill_end_[lib].push_back(end);
    }
  }

  // Round-robin that never reaches a full library never skips one, so it
  // places replica r of logical i on (i + r) mod L exactly, and replica()
  // can compute it. That holds iff every library's final count fits its
  // capacity: the count before any pick is below the final count.
  if (options.policy == PlacementPolicy::kRoundRobin) {
    bool fits = true;
    for (int lib = 0; lib < libraries; ++lib) {
      catalog.placed_per_library_.push_back(RoundRobinBelow(
          logical_segments, lib, libraries, options.replication));
      fits = fits && catalog.placed_per_library_[lib] <=
                         topology.library_segments(lib);
    }
    if (fits) return catalog;
  }

  std::vector<FillCursor> cursors(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    cursors[lib].remaining = topology.library_segments(lib);
  }

  Lrand48 rng(options.seed);

  catalog.table_.resize(logical_segments * options.replication);
  catalog.placed_per_library_.assign(libraries, 0);

  std::vector<int> chosen;
  chosen.reserve(options.replication);
  std::vector<int> candidates;
  candidates.reserve(libraries);
  for (int64_t logical = 0; logical < logical_segments; ++logical) {
    chosen.clear();
    for (int r = 0; r < options.replication; ++r) {
      // Candidates: non-full libraries not already holding this segment.
      candidates.clear();
      for (int lib = 0; lib < libraries; ++lib) {
        if (cursors[lib].remaining <= 0) continue;
        bool taken = false;
        for (int c : chosen) taken = taken || (c == lib);
        if (!taken) candidates.push_back(lib);
      }
      if (candidates.empty()) {
        return ResourceExhaustedError(
            "Catalog: ran out of distinct libraries with free capacity at "
            "logical segment " +
            std::to_string(logical) + " replica " + std::to_string(r));
      }
      int pick = candidates[0];
      switch (options.policy) {
        case PlacementPolicy::kRoundRobin: {
          // (logical + r) mod L, advanced past full/taken libraries.
          int want = static_cast<int>((logical + r) % libraries);
          pick = candidates[0];
          for (int step = 0; step < libraries; ++step) {
            int lib = (want + step) % libraries;
            bool ok = false;
            for (int c : candidates) ok = ok || (c == lib);
            if (ok) {
              pick = lib;
              break;
            }
          }
          break;
        }
        case PlacementPolicy::kRandom: {
          pick = candidates[rng.NextBounded(
              static_cast<int64_t>(candidates.size()))];
          break;
        }
        case PlacementPolicy::kWeighted: {
          // Weighted draw over the candidates (uniform when no weights).
          double total = 0.0;
          for (int lib : candidates) {
            total += options.weights.empty() ? 1.0 : options.weights[lib];
          }
          if (total <= 0.0) {
            // Every candidate has zero weight; fall back to uniform so a
            // replica still lands somewhere legal.
            pick = candidates[rng.NextBounded(
                static_cast<int64_t>(candidates.size()))];
            break;
          }
          double u = rng.NextDouble() * total;
          double prefix = 0.0;
          pick = candidates.back();
          for (int lib : candidates) {
            prefix += options.weights.empty() ? 1.0 : options.weights[lib];
            if (u < prefix) {
              pick = lib;
              break;
            }
          }
          break;
        }
      }
      chosen.push_back(pick);

      FillCursor& cur = cursors[pick];
      SERPENTINE_CHECK_GT(cur.remaining, int64_t{0});
      ReplicaLocation loc;
      loc.library = pick;
      loc.cartridge = cur.cartridge;
      loc.segment = cur.segment;
      catalog.table_[logical * options.replication + r] = loc;
      ++catalog.placed_per_library_[pick];
      // Advance the sequential fill cursor.
      --cur.remaining;
      ++cur.segment;
      if (cur.segment >= topology.capacity[pick][cur.cartridge]) {
        ++cur.cartridge;
        cur.segment = 0;
      }
    }
  }
  return catalog;
}

ReplicaLocation Catalog::replica(int64_t logical, int r) const {
  SERPENTINE_CHECK(logical >= 0 && logical < num_logical_);
  SERPENTINE_CHECK(r >= 0 && r < replication_);
  if (!table_.empty()) return table_[logical * replication_ + r];

  const int libraries = static_cast<int>(fill_end_.size());
  ReplicaLocation loc;
  loc.library = static_cast<int>((logical + r) % libraries);
  const int64_t position =
      RoundRobinBelow(logical, loc.library, libraries, replication_);
  // Cartridge-major fill: the first cartridge whose end lies past it.
  const std::vector<tape::SegmentId>& ends = fill_end_[loc.library];
  auto it = std::upper_bound(ends.begin(), ends.end(), position);
  loc.cartridge = static_cast<int>(it - ends.begin());
  loc.segment = it == ends.begin() ? position : position - it[-1];
  return loc;
}

std::vector<ReplicaLocation> Catalog::replicas(int64_t logical) const {
  std::vector<ReplicaLocation> out;
  out.reserve(replication_);
  for (int r = 0; r < replication_; ++r) out.push_back(replica(logical, r));
  return out;
}

}  // namespace serpentine::fleet
