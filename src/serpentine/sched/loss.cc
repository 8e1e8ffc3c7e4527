// LOSS, SPARSE_LOSS, partitioned-LOSS, and exact-LTSP scheduling (paper
// §4 and PAPERS.md): cast the batch as an open asymmetric-TSP path and run
// the greedy loss heuristic — optionally after coalescing nearby requests
// into representatives, optionally on a sparse weave-order candidate graph
// with path contraction, optionally partitioned into fragments solved in
// parallel on the shared thread pool — or, for linear-cost instances, the
// polynomial LTSP interval DP.
//
// Every edge is priced through tsp::LocateCostSoA, whatever the model: it
// runs the Dlt4000 model's own rule over decoded endpoints, and asks any
// other model at most once per pair. tsp::SolveLossPath prices batches of
// up to tsp::kDenseLossMaxCities cities into a reused per-thread matrix
// and larger kernel batches lazily, so no O(n²) matrix is materialized for
// them.
#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "serpentine/sched/coalesce.h"
#include "serpentine/sched/internal.h"
#include "serpentine/sched/weave_pattern.h"
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

std::vector<Request> ExpandOrder(const std::vector<CoalescedGroup>& groups,
                                 const std::vector<int>& city_order) {
  std::vector<int> visit;
  visit.reserve(groups.size());
  for (int city : city_order) {
    if (city != 0) visit.push_back(city - 1);
  }
  return FlattenGroups(groups, visit);
}

/// Locate costs over a batch's cities: city 0 is the initial head
/// position, city c >= 1 is groups[c-1].
tsp::LocateCostSoA MakeCityCosts(const tape::LocateModel& model,
                                 const std::vector<CoalescedGroup>& groups,
                                 tape::SegmentId initial) {
  const tape::TapeGeometry& g = model.geometry();
  const size_t cities = groups.size() + 1;
  std::vector<tape::SegmentId> out(cities);
  std::vector<tape::SegmentId> in(cities);
  out[0] = in[0] = initial;
  for (size_t c = 1; c < cities; ++c) {
    in[c] = groups[c - 1].in();
    out[c] = GroupOut(g, groups[c - 1]);
  }
  return tsp::LocateCostSoA(model, std::move(out), std::move(in));
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
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  return ExpandOrder(
      groups, tsp::SolveLossPath(MakeCityCosts(model, groups, initial)));
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
  SERPENTINE_CHECK_GT(partition_size, 0);

  // Small batches take the plain LOSS path, so loss-mt degenerates to LOSS
  // exactly (pinned by sched_parallel_build_test.cc).
  if (total_groups <= partition_size) {
    return ExpandOrder(
        groups, tsp::SolveLossPath(MakeCityCosts(model, groups, initial)));
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
  const int effective_workers =
      model.SupportsConcurrentUse() ? ResolveWorkers(workers) : 1;

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
    std::vector<int> order = tsp::SolveLossPath(
        tsp::LocateCostSoA(model, std::move(out), std::move(in)));
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
  std::vector<int> merge_order = tsp::SolveLossPath(
      tsp::LocateCostSoA(model, std::move(out), std::move(in)));

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
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  const int cities = static_cast<int>(groups.size()) + 1;
  if (cities - 1 > tsp::kMaxLtspCities) {
    return InvalidArgumentError(
        "ltsp-exact limited to " + std::to_string(tsp::kMaxLtspCities) +
        " coalesced groups (got " + std::to_string(cities - 1) + ")");
  }
  // CoalesceRequests returns groups sorted ascending by first segment, so
  // cities 1..n-1 are already in the line order the interval DP needs.
  tsp::LocateCostSoA costs = MakeCityCosts(model, groups, initial);
  tsp::CostMatrix m = tsp::CostMatrix::Build(
      cities, [&](int i, int j) { return costs.Price(i, j); });
  SERPENTINE_ASSIGN_OR_RETURN(std::vector<int> order, tsp::SolveLtspPath(m));
  return ExpandOrder(groups, order);
}

std::vector<Request> ScheduleSparseLoss(const tape::LocateModel& model,
                                        tape::SegmentId initial,
                                        std::vector<Request> requests,
                                        int64_t coalesce_threshold,
                                        int workers) {
  if (requests.size() <= 1) return requests;
  const tape::TapeGeometry& g = model.geometry();
  const int sections = g.sections_per_track();
  std::vector<CoalescedGroup> groups =
      CoalesceRequests(std::move(requests), coalesce_threshold);
  const int cities = static_cast<int>(groups.size()) + 1;
  // Candidate-edge gathering and the contraction phase price overlapping
  // (from, to) pairs: the kernel recomputes them, and a generic model is
  // asked once per pair (which serializes the gather).
  tsp::LocateCostSoA soa = MakeCityCosts(model, groups, initial);
  // The paper's "logarithmic number of out-edges".
  const int edges_per_city =
      std::max(4, 2 * static_cast<int>(std::ceil(std::log2(cities))));

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
    cities_in_bucket[bucket_of(soa.in_position(city))].push_back(city);
  }

  // Candidate generation is embarrassingly parallel once the buckets are
  // built: each city writes only its own out-edge list, and edge costs
  // come from the immutable SoA arrays, so any worker count produces the
  // same graph.
  std::vector<std::vector<tsp::SparseEdge>> out_edges(cities);
  auto gather = [&](int64_t city64) {
    const int city = static_cast<int>(city64);
    tape::Coord here = g.ToCoord(soa.out_position(city));
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
