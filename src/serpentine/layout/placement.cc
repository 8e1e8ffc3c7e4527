#include "serpentine/layout/placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "serpentine/sim/executor.h"
#include "serpentine/sim/wear.h"
#include "serpentine/util/check.h"
#include "serpentine/util/lrand48.h"
#include "serpentine/util/status.h"

namespace serpentine::layout {

// ---------------------------------------------------------------- Placement

Placement Placement::Identity(tape::SegmentId total_segments,
                              int64_t group_segments) {
  SERPENTINE_CHECK_GT(total_segments, 0);
  SERPENTINE_CHECK_GT(group_segments, 0);
  Placement p;
  p.total_ = total_segments;
  p.group_segments_ = group_segments;
  p.order_.resize((total_segments + group_segments - 1) / group_segments);
  std::iota(p.order_.begin(), p.order_.end(), 0);
  p.BuildIndex();
  return p;
}

StatusOr<Placement> Placement::FromOrder(tape::SegmentId total_segments,
                                         int64_t group_segments,
                                         std::vector<int64_t> order) {
  Placement p = Identity(total_segments, group_segments);
  if (static_cast<int64_t>(order.size()) != p.num_groups()) {
    return InvalidArgumentError(
        "Placement::FromOrder: order has " + std::to_string(order.size()) +
        " slots, tape has " + std::to_string(p.num_groups()) + " groups");
  }
  std::vector<char> seen(order.size(), 0);
  for (int64_t g : order) {
    if (g < 0 || g >= p.num_groups() || seen[g]) {
      return InvalidArgumentError(
          "Placement::FromOrder: order is not a permutation of [0, " +
          std::to_string(p.num_groups()) + ")");
    }
    seen[g] = 1;
  }
  p.order_ = std::move(order);
  p.BuildIndex();
  return p;
}

void Placement::BuildIndex() {
  const int64_t g_count = num_groups();
  slot_of_.assign(g_count, 0);
  slot_start_.assign(g_count, 0);
  tape::SegmentId at = 0;
  for (int64_t slot = 0; slot < g_count; ++slot) {
    int64_t group = order_[slot];
    slot_of_[group] = slot;
    slot_start_[slot] = at;
    at += std::min<int64_t>(group_segments_,
                            total_ - group * group_segments_);
  }
  SERPENTINE_CHECK_EQ(at, total_);
}

tape::SegmentId Placement::ToPhysical(tape::SegmentId logical) const {
  SERPENTINE_CHECK_GE(logical, 0);
  SERPENTINE_CHECK_LT(logical, total_);
  int64_t group = logical / group_segments_;
  return slot_start_[slot_of_[group]] + (logical - group * group_segments_);
}

tape::SegmentId Placement::ToLogical(tape::SegmentId physical) const {
  SERPENTINE_CHECK_GE(physical, 0);
  SERPENTINE_CHECK_LT(physical, total_);
  // slot_start_ is strictly increasing; find the slot containing physical.
  auto it = std::upper_bound(slot_start_.begin(), slot_start_.end(), physical);
  int64_t slot = (it - slot_start_.begin()) - 1;
  int64_t group = order_[slot];
  return group * group_segments_ + (physical - slot_start_[slot]);
}

std::vector<sched::Request> Placement::RemapBatch(
    const std::vector<sched::Request>& batch) const {
  std::vector<sched::Request> physical;
  physical.reserve(batch.size());
  for (const sched::Request& r : batch) {
    tape::SegmentId at = r.segment;
    int64_t remaining = r.count;
    while (remaining > 0) {
      int64_t group = at / group_segments_;
      tape::SegmentId group_end = std::min<tape::SegmentId>(
          (group + 1) * group_segments_, total_);
      int64_t take = std::min<int64_t>(remaining, group_end - at);
      physical.push_back(sched::Request{ToPhysical(at), take});
      at += take;
      remaining -= take;
    }
  }
  return physical;
}

bool Placement::is_identity() const {
  for (int64_t slot = 0; slot < num_groups(); ++slot) {
    if (order_[slot] != slot) return false;
  }
  return true;
}

int64_t Placement::moved_groups() const {
  int64_t moved = 0;
  for (int64_t slot = 0; slot < num_groups(); ++slot) {
    if (order_[slot] != slot) ++moved;
  }
  return moved;
}

// ------------------------------------------------------- PlacementOptimizer

namespace {

// Monte-Carlo probe sources per slot-goodness estimate, and their seed.
constexpr int kProbeSources = 64;
constexpr int32_t kProbeSeed = 1;
// Probe sources drawn from the chained-tour turnaround region (the top
// 1/16 of segment space): three quarters of them. Schedulers serve
// batches in ascending segment order, so with batch chaining the head
// starts most locates parked near the top of segment space.
constexpr int kSteadyStateProbes = kProbeSources * 3 / 4;
// Ceiling on one group's projected per-batch serve rate. A group
// revisited within a batch re-pays its key-point backup on every serve,
// so duplicates do wear the funnel bins — but weighting them fully makes
// the heaviest group look unplaceable anywhere, forcing cap relaxations.
constexpr double kMaxGroupVisitRate = 1.0;

}  // namespace

PlacementOptimizer::PlacementOptimizer(const tape::Dlt4000LocateModel& model,
                                       OptimizerOptions options)
    : model_(model), options_(options) {
  Lrand48 rng(kProbeSeed);
  probes_.reserve(kProbeSources);
  const tape::SegmentId total = model_.geometry().total_segments();
  // Probe sources model where the head actually is when a locate starts.
  // Chained tours are sorted by segment, so every batch parks the head
  // near the top of segment space; the steady-state share of the probes
  // samples that turnaround region, the rest are uniform (cold starts and
  // mid-tour excursions).
  const tape::SegmentId tail = std::max<tape::SegmentId>(1, total / 16);
  for (int i = 0; i < kProbeSources; ++i) {
    if (i < kSteadyStateProbes) {
      probes_.push_back(total - 1 - rng.NextBounded(tail));
    } else {
      probes_.push_back(rng.NextBounded(total));
    }
  }
}

double PlacementOptimizer::SlotGoodness(int64_t slot,
                                        int64_t group_segments) const {
  tape::SegmentId start = std::min<tape::SegmentId>(
      slot * group_segments, model_.geometry().total_segments() - 1);
  double sum = 0.0;
  for (tape::SegmentId src : probes_) {
    sum += model_.LocateSeconds(src, start);
  }
  return sum / static_cast<double>(probes_.size());
}

Placement PlacementOptimizer::Optimize(const HeatMap& heat,
                                       OptimizerStats* stats) const {
  const int64_t g_count = heat.num_groups();
  const int64_t gs = heat.group_segments();
  SERPENTINE_CHECK_EQ(heat.total_segments(),
                      model_.geometry().total_segments());
  OptimizerStats local;
  if (stats == nullptr) stats = &local;
  *stats = OptimizerStats{};

  Placement identity = Placement::Identity(heat.total_segments(), gs);
  if (heat.total_heat() == 0 || g_count < 2) return identity;

  // The remainder group (if any) stays pinned in the last slot so every
  // slot start remains slot * group_segments — the wear-bin and goodness
  // precomputations below rely on that alignment.
  const bool has_short = heat.group_size(g_count - 1) != gs;

  std::vector<double> goodness(g_count);
  for (int64_t k = 0; k < g_count; ++k) goodness[k] = SlotGoodness(k, gs);

  // Projected per-bin motion. Serving a segment in reading section r
  // first backs the head up to the key point opening section r-1, then
  // reads forward to the destination — so every serve drags the head
  // across the whole [scan target, destination] span, and the bins just
  // past a hot section's key point are crossed by every serve to that
  // entire section. A slot's wear footprint is therefore that exact
  // model-derived window, not merely its own bin; co-locating hot groups
  // deep into one section funnels all their backups over the same bins.
  const int bins = heat.wear_baseline().empty()
                       ? sim::kDefaultWearBins
                       : static_cast<int>(heat.wear_baseline().size());
  const double bin_width =
      model_.geometry().params().physical_sections / bins;
  auto bin_at = [&](double p) {
    return std::clamp(static_cast<int>(p / bin_width), 0, bins - 1);
  };
  // Per-slot scan window [lo_bin, hi_bin], precomputed once.
  std::vector<int> window_lo(g_count), window_hi(g_count);
  for (int64_t s = 0; s < g_count; ++s) {
    tape::SegmentId mid = std::min<tape::SegmentId>(
        s * gs + gs / 2, heat.total_segments() - 1);
    const tape::Dlt4000LocateModel::Endpoint e = model_.EndpointOf(mid);
    window_lo[s] = bin_at(std::min(e.key_point, e.position));
    window_hi[s] = bin_at(std::max(e.key_point, e.position));
  }
  // The load a group projects is its per-batch *visit* rate, not its raw
  // heat: the scheduler reads through a visited section in ascending
  // order, so five serves of one group in a batch cost one key-point
  // backup. Capping visit rates levels what the head actually crosses.
  const double batches_seen =
      static_cast<double>(std::max<int64_t>(1, heat.batches_recorded()));
  auto visit_rate = [&](int64_t g) {
    return std::min(kMaxGroupVisitRate,
                    static_cast<double>(heat.group_heat(g)) / batches_seen);
  };
  std::vector<double> load(bins, 0.0);
  auto smear = [&](std::vector<double>& into, int64_t slot, double h,
                   double dir) {
    for (int b = window_lo[slot]; b <= window_hi[slot]; ++b) {
      into[b] += dir * h;
    }
  };
  for (int64_t g = 0; g < g_count; ++g) {
    smear(load, g, visit_rate(g), +1.0);
  }
  if (!heat.wear_baseline().empty()) {
    // The baseline is already measured motion per bin; scale it so its
    // total matches the projection's (heat × mean window width), making
    // history and projection share one cap.
    int64_t base_total = 0;
    for (int64_t p : heat.wear_baseline()) base_total += p;
    double projected_total =
        std::accumulate(load.begin(), load.end(), 0.0);
    if (base_total > 0 && projected_total > 0) {
      double scale = projected_total / static_cast<double>(base_total);
      for (int i = 0; i < bins; ++i) {
        load[i] += static_cast<double>(heat.wear_baseline()[i]) * scale;
      }
    }
  }
  // The cap is relative to the seed layout: no bin may project more
  // motion than wear_cap_factor times the identity layout's worst bin.
  const double identity_peak = *std::max_element(load.begin(), load.end());
  const double cap = options_.wear_cap_factor * identity_peak;

  // Hot set: every group with observed traffic, hottest first. Leaving a
  // lukewarm residue scattered across the tape forces mid-tape excursions
  // that wind the head back over the hot core, so the whole set moves.
  std::vector<int64_t> hot_groups;
  for (int64_t g = 0; g < g_count; ++g) {
    if (heat.group_heat(g) > 0 && !(has_short && g == g_count - 1)) {
      hot_groups.push_back(g);
    }
  }
  if (hot_groups.empty()) return identity;
  std::sort(hot_groups.begin(), hot_groups.end(), [&](int64_t x, int64_t y) {
    if (heat.group_heat(x) != heat.group_heat(y)) {
      return heat.group_heat(x) > heat.group_heat(y);
    }
    return x < y;
  });
  stats->hot_groups = static_cast<int64_t>(hot_groups.size());

  // Tail-anchored assignment: hottest group first, into the topmost free
  // slot in segment space that respects the wear cap. Chained tours are
  // served in ascending segment order, so every batch parks the head at
  // the top of segment space — a tail-packed hot core means each tour
  // ends inside the hot set instead of winding across it, which both
  // shortens the next batch's locates and keeps cross-core pass-over
  // motion off the wear hub. The cap only vetoes: a group slides down
  // from the tail until its projected bins fit, and is counted as a
  // relaxation when no compliant slot exists.
  std::vector<int64_t> order(g_count, -1);
  std::vector<char> slot_free(g_count, 1);
  std::vector<char> group_placed(g_count, 0);
  if (has_short) {
    order[g_count - 1] = g_count - 1;
    slot_free[g_count - 1] = 0;
    group_placed[g_count - 1] = 1;
  }
  for (int64_t g : hot_groups) {
    const double rate = visit_rate(g);
    // The group's load leaves its identity bins before feasibility is
    // judged — it is moving no matter which slot wins.
    smear(load, g, rate, -1.0);
    int64_t best_slot = -1, relax_slot = -1;
    double relax_overflow = std::numeric_limits<double>::infinity();
    for (int64_t s = g_count - 1; s >= 0; --s) {
      if (!slot_free[s]) continue;
      // Feasible iff every scan-window bin the group would load stays
      // under the cap. Infeasible slots are ranked by how far their worst
      // bin overshoots, so a forced relaxation lands where it
      // concentrates the least wear.
      double overflow = 0.0;
      for (int b = window_lo[s]; b <= window_hi[s]; ++b) {
        overflow = std::max(overflow, load[b] + rate - cap);
      }
      if (overflow <= 0.0) {
        best_slot = s;
        break;  // topmost compliant slot wins
      }
      if (overflow < relax_overflow) {
        relax_overflow = overflow;
        relax_slot = s;
      }
    }
    if (best_slot < 0) {
      best_slot = relax_slot;
      ++stats->wear_relaxations;
    }
    SERPENTINE_CHECK_GE(best_slot, 0);
    order[best_slot] = g;
    slot_free[best_slot] = 0;
    group_placed[g] = 1;
    smear(load, best_slot, rate, +1.0);
  }
  // Cold groups: home slot when still free, else the remaining free slots
  // in index order.
  std::vector<int64_t> displaced;
  for (int64_t g = 0; g < g_count; ++g) {
    if (group_placed[g]) continue;
    if (slot_free[g]) {
      order[g] = g;
      slot_free[g] = 0;
      group_placed[g] = 1;
    } else {
      displaced.push_back(g);
    }
  }
  size_t next_displaced = 0;
  for (int64_t s = 0; s < g_count && next_displaced < displaced.size();
       ++s) {
    if (!slot_free[s]) continue;
    order[s] = displaced[next_displaced++];
    slot_free[s] = 0;
  }
  SERPENTINE_CHECK_EQ(next_displaced, displaced.size());

  StatusOr<Placement> placement =
      Placement::FromOrder(heat.total_segments(), gs, std::move(order));
  SERPENTINE_CHECK(placement.ok());
  stats->moved_groups = placement.value().moved_groups();
  double heat_sum = 0.0, before = 0.0, after = 0.0;
  for (int64_t g : hot_groups) {
    double h = static_cast<double>(heat.group_heat(g));
    heat_sum += h;
    before += h * goodness[g];
    after += h * goodness[placement.value().slot_of(g)];
  }
  if (heat_sum > 0) {
    stats->hot_goodness_before = before / heat_sum;
    stats->hot_goodness_after = after / heat_sum;
  }
  return placement.value();
}

// -------------------------------------------------------- EvaluatePlacement

StatusOr<PlacementEvaluation> EvaluatePlacement(
    const tape::Dlt4000LocateModel& model, const Placement& placement,
    workload::RequestGenerator& generator, const sched::RegistryEntry& entry,
    const EvaluateOptions& options) {
  if (placement.total_segments() != model.geometry().total_segments()) {
    return InvalidArgumentError(
        "EvaluatePlacement: placement covers " +
        std::to_string(placement.total_segments()) +
        " segments, model tape has " +
        std::to_string(model.geometry().total_segments()));
  }
  if (options.batches < 1 || options.batch_size < 1) {
    return InvalidArgumentError(
        "EvaluatePlacement: batches and batch_size must be >= 1, got " +
        std::to_string(options.batches) + " and " +
        std::to_string(options.batch_size));
  }
  PlacementEvaluation eval;
  sim::WearTracker wear(&model.geometry());
  tape::SegmentId position = 0;
  for (int b = 0; b < options.batches; ++b) {
    std::vector<sched::Request> logical = generator.Batch(options.batch_size);
    eval.requests += static_cast<int64_t>(logical.size());
    std::vector<sched::Request> physical = placement.RemapBatch(logical);
    StatusOr<sched::Schedule> schedule =
        entry.Build(model, position, std::move(physical));
    if (!schedule.ok()) return schedule.status();
    sim::ExecutionResult result =
        sim::ExecuteSchedule(model, schedule.value());
    wear.RecordSchedule(model, schedule.value());
    eval.makespan_seconds += result.total_seconds;
    position = result.final_position;
    ++eval.batches;
  }
  eval.max_passes = wear.max_passes();
  eval.mean_passes = wear.mean_passes();
  eval.life_consumed = wear.life_consumed();
  eval.tape_lengths = wear.full_length_equivalents();
  return eval;
}

}  // namespace serpentine::layout
