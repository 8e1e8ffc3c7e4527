// The replica catalog as it was built before round-robin placement became
// a closed form: one std::vector<ReplicaLocation> per logical segment,
// filled by the placement loop that fleet::Catalog::Build still runs for
// random and weighted placement. Kept as the oracle that
// CatalogTest.MatchesTheReferencePlacement holds the computed catalog to,
// replica for replica.
#ifndef SERPENTINE_TESTS_CATALOG_REFERENCE_H_
#define SERPENTINE_TESTS_CATALOG_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "serpentine/fleet/catalog.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/status.h"
#include "serpentine/util/statusor.h"

namespace serpentine::fleet::reference {

struct Catalog {
  std::vector<std::vector<ReplicaLocation>> replicas_;
  std::vector<int64_t> placed_per_library_;
  int replication_ = 1;
};

/// Sequential fill cursor of one library: next free (cartridge, segment).
struct FillCursor {
  int cartridge = 0;
  tape::SegmentId segment = 0;
  int64_t remaining = 0;
};

inline serpentine::StatusOr<Catalog> Build(const FleetTopology& topology,
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
    for (tape::SegmentId c : topology.capacity[lib]) {
      if (c < 1) {
        return InvalidArgumentError(
            "Catalog: library " + std::to_string(lib) +
            " has a cartridge with non-positive capacity");
      }
    }
  }
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
  if (logical_segments * options.replication > topology.total_segments()) {
    return ResourceExhaustedError(
        "Catalog: " + std::to_string(logical_segments) + " segments x " +
        std::to_string(options.replication) + " replicas exceed fleet "
        "capacity " +
        std::to_string(topology.total_segments()));
  }

  std::vector<FillCursor> cursors(libraries);
  for (int lib = 0; lib < libraries; ++lib) {
    cursors[lib].remaining = topology.library_segments(lib);
  }

  Lrand48 rng(options.seed);

  Catalog catalog;
  catalog.replication_ = options.replication;
  catalog.replicas_.resize(logical_segments);
  catalog.placed_per_library_.assign(libraries, 0);

  std::vector<int> chosen;
  chosen.reserve(options.replication);
  std::vector<int> candidates;
  candidates.reserve(libraries);
  for (int64_t logical = 0; logical < logical_segments; ++logical) {
    chosen.clear();
    catalog.replicas_[logical].reserve(options.replication);
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
      catalog.replicas_[logical].push_back(loc);
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

}  // namespace serpentine::fleet::reference

#endif  // SERPENTINE_TESTS_CATALOG_REFERENCE_H_
