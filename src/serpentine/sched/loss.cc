// LOSS, SPARSE_LOSS, partitioned-LOSS, and exact-LTSP scheduling (paper
// §4 and PAPERS.md): cast the batch as an open asymmetric-TSP path and run
// the greedy loss heuristic — optionally after coalescing nearby requests
// into representatives, optionally on a sparse weave-order candidate graph
// with path contraction, optionally partitioned into fragments solved in
// parallel on the shared thread pool — or, for linear-cost instances, the
// polynomial LTSP interval DP.
//
// Hot paths price edges through tsp::LocateCostSoA: with the Dlt4000 model
// the per-edge cost is a bit-identical arithmetic kernel over flat per-city
// arrays, so no O(n²) matrix is materialized above tsp::kDenseLossMaxCities
// cities (below it, tsp::SolveLossPath prices each edge once into a reused
// per-thread matrix). Generic models keep the historical shapes (dense
// matrix or per-batch cache), which also preserve the plan-each-pair-once
// guarantee their virtual calls rely on.
#include <algorithm>
#include <cmath>
#include <typeinfo>
#include <utility>
#include <vector>

#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/internal.h"
#include "serpentine/sched/weave_pattern.h"
#include "serpentine/tape/locate_cache.h"
#include "serpentine/tsp/cost_matrix.h"
#include "serpentine/tsp/locate_cost.h"
#include "serpentine/tsp/loss.h"
#include "serpentine/tsp/ltsp.h"
#include "serpentine/tsp/sparse_loss.h"
#include "serpentine/util/check.h"
#include "serpentine/util/env.h"
#include "serpentine/util/thread_pool.h"

namespace serpentine::sched::internal {
namespace {

/// Head position after servicing a coalesced group.
tape::SegmentId GroupOut(const tape::TapeGeometry& g,
                         const CoalescedGroup& group) {
  return std::min<tape::SegmentId>(group.last() + 1, g.total_segments() - 1);
}

/// City-indexed positions for the TSP formulation: city 0 is the initial
/// head position, city i >= 1 is groups[i-1].
struct CityMap {
  tape::SegmentId In(const std::vector<CoalescedGroup>& groups,
                     tape::SegmentId initial, int city) const {
    return city == 0 ? initial : groups[city - 1].in();
  }
  tape::SegmentId Out(const tape::TapeGeometry& g,
                      const std::vector<CoalescedGroup>& groups,
                      tape::SegmentId initial, int city) const {
    return city == 0 ? initial : GroupOut(g, groups[city - 1]);
  }
};

std::vector<Request> ExpandOrder(const std::vector<CoalescedGroup>& groups,
                                 const std::vector<int>& city_order) {
  std::vector<int> visit;
  visit.reserve(groups.size());
  for (int city : city_order) {
    if (city != 0) visit.push_back(city - 1);
  }
  return FlattenGroups(groups, visit);
}

bool HasSoaKernel(const tape::LocateModel& model) {
  return typeid(model) == typeid(tape::Dlt4000LocateModel);
}

/// In/out endpoint arrays for an arbitrary city list. `group_of(c)` maps
/// city c >= 1 to a group index; city 0 is the start position.
template <typename GroupOf>
tsp::LocateCostSoA MakeCityCosts(const tape::LocateModel& model,
                                 const tape::TapeGeometry& g,
                                 const std::vector<CoalescedGroup>& groups,
                                 tape::SegmentId initial, int cities,
                                 GroupOf&& group_of) {
  std::vector<tape::SegmentId> out(cities);
  std::vector<tape::SegmentId> in(cities);
  out[0] = in[0] = initial;
  for (int c = 1; c < cities; ++c) {
    const CoalescedGroup& group = groups[group_of(c)];
    in[c] = group.in();
    out[c] = GroupOut(g, group);
  }
  return tsp::LocateCostSoA(model, std::move(out), std::move(in));
}

/// Dense LOSS over one city list through the kernel: priced into a matrix
/// up to tsp::kDenseLossMaxCities cities, lazily above. For generic models
/// the dense matrix remains the batch's edge-cost cache (every ordered pair
/// planned exactly once); results are bit-identical either way because the
/// kernel reproduces the model's arithmetic.
template <typename GroupOf>
std::vector<int> SolveDenseLossOrder(const tape::LocateModel& model,
                                     const tape::TapeGeometry& g,
                                     const std::vector<CoalescedGroup>& groups,
                                     tape::SegmentId initial, int cities,
                                     GroupOf&& group_of) {
  if (HasSoaKernel(model)) {
    tsp::LocateCostSoA costs = MakeCityCosts(model, g, groups, initial,
                                             cities, group_of);
    return tsp::SolveLossPath(costs);
  }
  // The dense matrix IS the batch's edge-cost cache: Build prices every
  // ordered pair exactly once, and the solver only ever reads the matrix.
  tsp::CostMatrix m = tsp::CostMatrix::Build(cities, [&](int i, int j) {
    tape::SegmentId from =
        i == 0 ? initial : GroupOut(g, groups[group_of(i)]);
    tape::SegmentId to = j == 0 ? initial : groups[group_of(j)].in();
    return model.LocateSeconds(from, to);
  });
  return tsp::SolveLossPath(m);
}

int ResolveWorkers(int requested) {
  if (requested == 0) return ResolveThreadCount(0);
  return std::max(1, requested);
}

}  // namespace

std::vector<Request> ScheduleLoss(const tape::LocateModel& model,
                                  tape::SegmentId initial,
                                  std::vector<Request> requests,
                                  int64_t coalesce_threshold) {
  if (requests.size() <= 1) return requests;
  const tape::TapeGeometry& g = model.geometry();
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  int cities = static_cast<int>(groups.size()) + 1;
  return ExpandOrder(groups,
                     SolveDenseLossOrder(model, g, groups, initial, cities,
                                         [](int c) { return c - 1; }));
}

std::vector<Request> ScheduleLossPartitioned(const tape::LocateModel& model,
                                             tape::SegmentId initial,
                                             std::vector<Request> requests,
                                             int64_t coalesce_threshold,
                                             int partition_size,
                                             int workers) {
  if (requests.size() <= 1) return requests;
  const tape::TapeGeometry& g = model.geometry();
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  const int total_groups = static_cast<int>(groups.size());
  if (partition_size <= 0) partition_size = kDefaultLossPartitionSize;

  // Small batches take the plain dense path, so loss-mt degenerates to
  // LOSS exactly (pinned by sched_parallel_build_test.cc).
  if (total_groups <= partition_size) {
    return ExpandOrder(
        groups, SolveDenseLossOrder(model, g, groups, initial,
                                    total_groups + 1,
                                    [](int c) { return c - 1; }));
  }

  // Fragment layout depends only on the group count, never on the worker
  // count: fragment f covers groups [f·P, min((f+1)·P, G)). Groups arrive
  // sorted by first segment, so each fragment is a contiguous band of
  // tape. Each fragment is solved as an independent open TSP path pinned
  // to start at its first group, writing only its own chain slot — the
  // schedule is bit-identical for 1..N workers.
  const int fragments =
      (total_groups + partition_size - 1) / partition_size;
  std::vector<std::vector<int>> chains(fragments);
  const bool concurrent_safe =
      HasSoaKernel(model) || model.SupportsConcurrentUse();
  const int effective_workers =
      concurrent_safe ? ResolveWorkers(workers) : 1;

  auto solve_fragment = [&](int64_t f) {
    const int lo = static_cast<int>(f) * partition_size;
    const int hi = std::min(total_groups, lo + partition_size);
    const int cities = hi - lo;
    // City 0 doubles as a real group here (the fragment's first, pinned as
    // the chain start), so it gets the group's own endpoints rather than
    // the batch start position.
    std::vector<tape::SegmentId> out(cities);
    std::vector<tape::SegmentId> in(cities);
    for (int c = 0; c < cities; ++c) {
      in[c] = groups[lo + c].in();
      out[c] = GroupOut(g, groups[lo + c]);
    }
    std::vector<int> order;
    if (HasSoaKernel(model)) {
      tsp::LocateCostSoA costs(model, std::move(out), std::move(in));
      order = tsp::SolveLossPath(costs);
    } else {
      // Shard-local cache: each fragment plans its own pairs once; safe
      // under concurrency because nothing is shared.
      tape::CachedLocateModel cached(model,
                                     static_cast<int64_t>(cities) * 16);
      tsp::LocateCostSoA costs(cached, std::move(out), std::move(in));
      order = tsp::SolveLossPath(costs);
    }
    std::vector<int>& chain = chains[f];
    chain.reserve(cities);
    for (int c : order) chain.push_back(lo + c);
  };
  ParallelFor(effective_workers > 1 ? &ThreadPool::Shared() : nullptr,
              fragments, effective_workers, solve_fragment);

  // Contraction: one city per fragment chain (in = the chain head's first
  // segment, out = the chain tail's exit), plus the real start. Dense LOSS
  // orders the chains; the merge is serial and order-deterministic.
  const int merge_cities = fragments + 1;
  std::vector<tape::SegmentId> out(merge_cities);
  std::vector<tape::SegmentId> in(merge_cities);
  out[0] = in[0] = initial;
  for (int f = 0; f < fragments; ++f) {
    in[f + 1] = groups[chains[f].front()].in();
    out[f + 1] = GroupOut(g, groups[chains[f].back()]);
  }
  std::vector<int> merge_order;
  if (HasSoaKernel(model)) {
    tsp::LocateCostSoA costs(model, std::move(out), std::move(in));
    merge_order = tsp::SolveLossPath(costs);
  } else {
    tape::CachedLocateModel cached(model,
                                   static_cast<int64_t>(merge_cities) * 16);
    tsp::LocateCostSoA costs(cached, std::move(out), std::move(in));
    merge_order = tsp::SolveLossPath(costs);
  }

  std::vector<int> visit;
  visit.reserve(total_groups);
  for (int city : merge_order) {
    if (city == 0) continue;
    const std::vector<int>& chain = chains[city - 1];
    visit.insert(visit.end(), chain.begin(), chain.end());
  }
  return FlattenGroups(groups, visit);
}

serpentine::StatusOr<std::vector<Request>> ScheduleLtsp(
    const tape::LocateModel& model, tape::SegmentId initial,
    std::vector<Request> requests, int64_t coalesce_threshold) {
  if (requests.size() <= 1) return requests;
  const tape::TapeGeometry& g = model.geometry();
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  int cities = static_cast<int>(groups.size()) + 1;
  if (cities - 1 > tsp::kMaxLtspCities) {
    return InvalidArgumentError(
        "ltsp-exact limited to " + std::to_string(tsp::kMaxLtspCities) +
        " coalesced groups (got " + std::to_string(cities - 1) + ")");
  }
  CityMap map;
  // CoalesceRequests returns groups sorted ascending by first segment, so
  // cities 1..n-1 are already in the line order the interval DP needs.
  std::vector<int> order;
  if (HasSoaKernel(model)) {
    tsp::LocateCostSoA costs = MakeCityCosts(
        model, g, groups, initial, cities, [](int c) { return c - 1; });
    tsp::CostMatrix m = tsp::CostMatrix::Build(
        cities, [&](int i, int j) { return costs.LocateSeconds(i, j); });
    SERPENTINE_ASSIGN_OR_RETURN(order, tsp::SolveLtspPath(m));
  } else {
    tsp::CostMatrix m = tsp::CostMatrix::Build(cities, [&](int i, int j) {
      return model.LocateSeconds(map.Out(g, groups, initial, i),
                                 map.In(groups, initial, j));
    });
    SERPENTINE_ASSIGN_OR_RETURN(order, tsp::SolveLtspPath(m));
  }
  return ExpandOrder(groups, order);
}

std::vector<Request> ScheduleSparseLoss(const tape::LocateModel& model,
                                        tape::SegmentId initial,
                                        std::vector<Request> requests,
                                        int64_t coalesce_threshold,
                                        int edges_per_city,
                                        int workers) {
  if (requests.size() <= 1) return requests;
  const tape::TapeGeometry& g = model.geometry();
  const int sections = g.sections_per_track();
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  int cities = static_cast<int>(groups.size()) + 1;
  CityMap map;
  const bool kernel = HasSoaKernel(model);
  // Candidate-edge gathering and the contraction phase price overlapping
  // (from, to) pairs. The SoA kernel recomputes them (pure arithmetic,
  // thread-safe); generic models keep the per-batch cache, which plans
  // each pair once but serializes the gather.
  tape::CachedLocateModel cached(
      model, kernel ? 64 : static_cast<int64_t>(cities) * 16);
  tsp::LocateCostSoA soa = MakeCityCosts(
      kernel ? model : static_cast<const tape::LocateModel&>(cached), g,
      groups, initial, cities, [](int c) { return c - 1; });

  if (edges_per_city <= 0) {
    edges_per_city = std::max(
        4, 2 * static_cast<int>(std::ceil(std::log2(cities))));
  }

  // Index cities (including the start) by the (track, physical section) of
  // their in-position, so each city's candidates can be gathered in weave
  // order.
  std::vector<std::vector<int>> cities_in_bucket(
      static_cast<size_t>(g.num_tracks()) * sections);
  auto bucket_of = [&](tape::SegmentId seg) {
    tape::Coord c = g.ToCoord(seg);
    return static_cast<size_t>(c.track) * sections + c.physical_section;
  };
  for (int city = 1; city < cities; ++city) {
    cities_in_bucket[bucket_of(map.In(groups, initial, city))].push_back(
        city);
  }

  // Candidate generation is embarrassingly parallel once the buckets are
  // built: each city writes only its own out-edge list, and edge costs
  // come from the immutable SoA arrays, so any worker count produces the
  // same graph.
  std::vector<std::vector<tsp::SparseEdge>> out_edges(cities);
  auto gather = [&](int64_t city64) {
    const int city = static_cast<int>(city64);
    tape::SegmentId from = map.Out(g, groups, initial, city);
    tape::Coord here = g.ToCoord(from);
    auto& edges = out_edges[city];
    for (const WeaveStep& step :
         WeavePattern(g, here.track, here.physical_section)) {
      for (int t = 0; t < g.num_tracks(); ++t) {
        bool same = t == here.track;
        bool co = g.IsForwardTrack(t) == g.IsForwardTrack(here.track);
        bool match =
            (step.track_class == TrackClass::kSameTrack && same) ||
            (step.track_class == TrackClass::kCoDirectional && co &&
             !same) ||
            (step.track_class == TrackClass::kAntiDirectional && !co);
        if (!match) continue;
        for (int target :
             cities_in_bucket[static_cast<size_t>(t) * sections +
                              step.physical_section]) {
          if (target == city) continue;
          edges.push_back(
              tsp::SparseEdge{target, soa.LocateSeconds(city, target)});
          if (static_cast<int>(edges.size()) >= edges_per_city) break;
        }
        if (static_cast<int>(edges.size()) >= edges_per_city) break;
      }
      if (static_cast<int>(edges.size()) >= edges_per_city) break;
    }
  };
  const int effective_workers = soa.thread_safe() ? ResolveWorkers(workers) : 1;
  ParallelFor(effective_workers > 1 ? &ThreadPool::Shared() : nullptr,
              cities, effective_workers, gather);

  std::vector<int> order = tsp::SolveSparseLossPath(
      cities, out_edges,
      [&](int i, int j) { return soa.LocateSeconds(i, j); });
  return ExpandOrder(groups, order);
}

}  // namespace serpentine::sched::internal
