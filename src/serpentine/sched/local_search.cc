#include "serpentine/sched/local_search.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "serpentine/sched/estimator.h"
#include "serpentine/tsp/locate_cost.h"
#include "serpentine/util/check.h"

namespace serpentine::sched {
namespace {

/// Node-indexed edge pricing for one batch: node 0 is the start position,
/// nodes 1..n are the requests under their ORIGINAL order indices, so both
/// search implementations can address edges by stable node id and costs
/// follow requests through relocations. A generic model is asked at most
/// once per distinct (from, to) pair no matter how many passes revisit it.
tsp::LocateCostSoA NodeCosts(const tape::LocateModel& model,
                             const Schedule& schedule) {
  const tape::TapeGeometry& g = model.geometry();
  const int n = static_cast<int>(schedule.order.size());
  std::vector<tape::SegmentId> out(n + 1);
  std::vector<tape::SegmentId> in(n + 1);
  out[0] = schedule.initial_position;
  in[0] = schedule.initial_position;  // node 0 never receives an edge
  for (int k = 0; k < n; ++k) {
    out[k + 1] = OutPosition(g, schedule.order[k]);
    in[k + 1] = schedule.order[k].segment;
  }
  return tsp::LocateCostSoA(model, std::move(out), std::move(in));
}

double EffectiveThreshold(const LocalSearchOptions& options,
                          double initial_locate_seconds) {
  return std::max(options.min_gain_seconds,
                  options.min_gain_relative * initial_locate_seconds);
}

}  // namespace

LocalSearchStats ImproveScheduleSweep(const tape::LocateModel& model,
                                      Schedule* schedule,
                                      const LocalSearchOptions& options) {
  LocalSearchStats stats;
  SERPENTINE_CHECK(schedule != nullptr);
  if (schedule->full_tape_scan) return stats;
  const int n = static_cast<int>(schedule->order.size());
  if (n < 2) return stats;

  const tsp::LocateCostSoA costs = NodeCosts(model, *schedule);
  std::vector<Request>& order = schedule->order;
  std::vector<int> ids(n + 1);
  for (int p = 0; p <= n; ++p) ids[p] = p;

  auto edge = [&](int a, int b) {  // node positions, 0 = start
    ++stats.edge_evaluations;
    return costs.LocateSeconds(ids[a], ids[b]);
  };

  double initial_locate = 0.0;
  for (int p = 0; p < n; ++p) initial_locate += edge(p, p + 1);
  const double threshold = EffectiveThreshold(options, initial_locate);

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    bool improved = false;
    for (int block = 1; block <= options.max_block && block < n; ++block) {
      // Move order[i-1 .. i+block-2] (nodes i .. i+block-1).
      for (int i = 1; i + block - 1 <= n; ++i) {
        int last = i + block - 1;  // last node of the block
        // Cost removed when the block is lifted out: the edge into the
        // block, the edge out of it, minus the new bridging edge.
        double into = edge(i - 1, i);
        double out_of = last < n ? edge(last, last + 1) : 0.0;
        double bridge = last < n ? edge(i - 1, last + 1) : 0.0;
        double removal_gain = into + out_of - bridge;
        if (removal_gain <= threshold) continue;

        int jlo = 0;
        int jhi = n;
        if (options.insertion_window > 0) {
          jlo = std::max(0, i - 1 - options.insertion_window);
          jhi = std::min(n, last + options.insertion_window);
        }
        // Try every insertion position j (after node j), outside the
        // block and different from the current position.
        for (int j = jlo; j <= jhi; ++j) {
          if (j >= i - 1 && j <= last) continue;
          // Inserting between nodes j and j+1 (j+1 may not exist).
          double old_edge = j < n ? edge(j, j + 1) : 0.0;
          double in_edge = edge(j, i);
          double out_edge = j < n ? edge(last, j + 1) : 0.0;
          double insertion_cost = in_edge + out_edge - old_edge;
          double gain = removal_gain - insertion_cost;
          if (gain <= threshold) continue;

          // Apply the move: rotate the block next to position j.
          auto first_it = order.begin() + (i - 1);
          auto last_it = order.begin() + last;  // one past block
          if (j > last) {
            std::rotate(first_it, last_it, order.begin() + j);
            std::rotate(ids.begin() + i, ids.begin() + last + 1,
                        ids.begin() + j + 1);
          } else {  // j < i - 1
            std::rotate(order.begin() + j, first_it, last_it);
            std::rotate(ids.begin() + j + 1, ids.begin() + i,
                        ids.begin() + last + 1);
          }
          ++stats.moves;
          stats.seconds_saved += gain;
          improved = true;
          break;  // indices shifted; rescan this block length
        }
      }
    }
    if (!improved) break;
  }
  return stats;
}

LocalSearchStats ImproveSchedule(const tape::LocateModel& model,
                                 Schedule* schedule,
                                 const LocalSearchOptions& options) {
  LocalSearchStats stats;
  SERPENTINE_CHECK(schedule != nullptr);
  if (schedule->full_tape_scan) return stats;
  const int n = static_cast<int>(schedule->order.size());
  if (n < 2) return stats;

  const tsp::LocateCostSoA costs = NodeCosts(model, *schedule);
  std::vector<Request>& order = schedule->order;

  // Position state: ids[p] is the node at path position p (ids[0] = start,
  // fixed), pos_of inverts it, and edge_after[p] caches the cost of the
  // consecutive edge p → p+1 (edge_after[n] stays 0: no edge leaves the
  // last node). The three are rotated together on every accepted move, so
  // removal gains and displaced-edge costs never need re-pricing.
  std::vector<int> ids(n + 1);
  std::vector<int> pos_of(n + 1);
  for (int p = 0; p <= n; ++p) ids[p] = pos_of[p] = p;
  std::vector<double> edge_after(static_cast<size_t>(n) + 1, 0.0);

  auto eval = [&](int a_pos, int b_pos) {
    ++stats.edge_evaluations;
    return costs.LocateSeconds(ids[a_pos], ids[b_pos]);
  };

  double initial_locate = 0.0;
  for (int p = 0; p < n; ++p) {
    edge_after[p] = eval(p, p + 1);
    initial_locate += edge_after[p];
  }
  const double threshold = EffectiveThreshold(options, initial_locate);

  // Move-epoch bookkeeping: every accepted move bumps `epoch`, stamps the
  // ids whose adjacency it changed (both endpoints of every broken or
  // formed edge), and appends them to `events`. A memoized "this window
  // has no improving move" verdict stays valid while the window's own
  // neighborhood is unstamped; the insertion scan then only needs to
  // revisit positions adjacent to stamped ids — every other candidate
  // re-evaluates to the exact rejection recorded before.
  enum : uint8_t { kNoVerdict = 0, kNoRemovalGain = 1, kScanFailed = 2 };
  struct WindowMemo {
    int64_t epoch = -1;  // move epoch at verdict time (-1: none)
    int32_t pos = -1;    // window position at verdict time
    uint8_t kind = kNoVerdict;
  };
  std::vector<WindowMemo> memo(static_cast<size_t>(n + 1) *
                               options.max_block);
  int64_t epoch = 0;
  std::vector<int64_t> stamped_epoch(n + 1, 0);
  std::vector<std::pair<int64_t, int>> events;  // (epoch, id), ascending
  std::vector<int> candidates;                  // partial-rescan buffer

  auto apply_move = [&](int i, int last, int j, double bridge,
                        double in_edge, double out_edge, double gain) {
    const int block = last - i + 1;
    // Endpoints of the six edges broken or formed, captured pre-rotation.
    int touched[6];
    int nt = 0;
    touched[nt++] = ids[i - 1];
    touched[nt++] = ids[i];
    touched[nt++] = ids[last];
    if (last < n) touched[nt++] = ids[last + 1];
    touched[nt++] = ids[j];
    if (j < n) touched[nt++] = ids[j + 1];

    auto first_it = order.begin() + (i - 1);
    auto last_it = order.begin() + last;  // one past block
    if (j > last) {
      std::rotate(first_it, last_it, order.begin() + j);
      std::rotate(ids.begin() + i, ids.begin() + last + 1,
                  ids.begin() + j + 1);
      // Interior consecutive edges travel with their nodes; only the three
      // splice edges change, and all were priced during evaluation.
      std::rotate(edge_after.begin() + i, edge_after.begin() + last + 1,
                  edge_after.begin() + j + 1);
      edge_after[i - 1] = bridge;
      edge_after[i + (j - last) - 1] = in_edge;
      edge_after[j] = out_edge;  // == 0 when j == n, keeping the sentinel
      for (int p = i; p <= j; ++p) pos_of[ids[p]] = p;
    } else {  // j < i - 1
      std::rotate(order.begin() + j, first_it, last_it);
      std::rotate(ids.begin() + j + 1, ids.begin() + i,
                  ids.begin() + last + 1);
      std::rotate(edge_after.begin() + j + 1, edge_after.begin() + i,
                  edge_after.begin() + last + 1);
      edge_after[j] = in_edge;
      edge_after[j + block] = out_edge;
      edge_after[last] = bridge;  // == 0 when last == n (sentinel)
      for (int p = j + 1; p <= last; ++p) pos_of[ids[p]] = p;
    }
    ++epoch;
    for (int t = 0; t < nt; ++t) {
      stamped_epoch[touched[t]] = epoch;
      events.emplace_back(epoch, touched[t]);
    }
    ++stats.moves;
    stats.seconds_saved += gain;
  };

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++stats.passes;
    bool improved = false;
    for (int block = 1; block <= options.max_block && block < n; ++block) {
      for (int i = 1; i + block - 1 <= n; ++i) {
        const int last = i + block - 1;
        WindowMemo& wm =
            memo[static_cast<size_t>(ids[i]) * options.max_block +
                 (block - 1)];
        const int64_t seen = wm.epoch;
        // The verdict context: the block plus both outside neighbors. Any
        // change to the window's content or to its path-end adjacency
        // stamps one of these ids, so clean context ⇒ identical removal
        // evaluation.
        bool ctx_clean = seen >= 0;
        if (ctx_clean) {
          const int hi = std::min(last + 1, n);
          for (int p = i - 1; p <= hi; ++p) {
            if (stamped_epoch[ids[p]] > seen) {
              ctx_clean = false;
              break;
            }
          }
        }
        if (ctx_clean && wm.kind == kNoRemovalGain) {
          ++stats.windows_skipped;
          continue;
        }
        if (ctx_clean && wm.kind == kScanFailed && epoch == seen) {
          ++stats.windows_skipped;
          continue;
        }

        const double into = edge_after[i - 1];
        const double out_of = edge_after[last];  // 0 when last == n
        const double bridge = last < n ? eval(i - 1, last + 1) : 0.0;
        const double removal_gain = into + out_of - bridge;
        if (removal_gain <= threshold) {
          wm = {epoch, i, kNoRemovalGain};
          continue;
        }

        int jlo = 0;
        int jhi = n;
        if (options.insertion_window > 0) {
          jlo = std::max(0, i - 1 - options.insertion_window);
          jhi = std::min(n, last + options.insertion_window);
        }
        // With an insertion window the eligible-j set is position-
        // relative, so a scan-failed verdict can only be reused
        // incrementally if the window has not drifted since it was
        // recorded (without a window, drift is harmless: the old scan
        // covered every position).
        const bool partial =
            ctx_clean && wm.kind == kScanFailed &&
            (options.insertion_window == 0 || wm.pos == i);
        candidates.clear();
        if (partial) {
          auto it = std::upper_bound(
              events.begin(), events.end(), seen,
              [](int64_t e, const std::pair<int64_t, int>& ev) {
                return e < ev.first;
              });
          for (; it != events.end(); ++it) {
            const int p0 = pos_of[it->second];
            for (int j : {p0 - 1, p0}) {
              if (j < jlo || j > jhi) continue;
              if (j >= i - 1 && j <= last) continue;
              candidates.push_back(j);
            }
          }
          std::sort(candidates.begin(), candidates.end());
          candidates.erase(
              std::unique(candidates.begin(), candidates.end()),
              candidates.end());
        }

        bool accepted = false;
        // Hot scan: the block's head (in-edge destination) and tail
        // (out-edge source) ids are loop-invariant, and the evaluation
        // counter batches into one add per scan.
        const int head_id = ids[i];
        const int tail_id = ids[last];
        int64_t scan_evals = 0;
        auto try_j = [&](int j) {
          const double old_edge = edge_after[j];  // 0 at j == n
          ++scan_evals;
          const double in_edge = costs.LocateSeconds(ids[j], head_id);
          // out_edge >= 0 (locate costs are nonnegative), so skip pricing
          // it when even a free out-edge cannot clear the threshold.
          if (removal_gain - in_edge + old_edge <= threshold) return false;
          double out_edge = 0.0;
          if (j < n) {
            ++scan_evals;
            out_edge = costs.LocateSeconds(tail_id, ids[j + 1]);
          }
          const double gain = removal_gain - (in_edge + out_edge - old_edge);
          if (gain <= threshold) return false;
          apply_move(i, last, j, bridge, in_edge, out_edge, gain);
          return true;
        };
        if (partial) {
          for (int j : candidates) {
            if (try_j(j)) {
              accepted = true;
              break;
            }
          }
        } else {
          // Ascending j with the block's own positions skipped — split
          // into the two contiguous ranges so the in-block test leaves
          // the inner loop.
          for (int j = jlo; j <= i - 2 && !accepted; ++j) {
            accepted = try_j(j);
          }
          for (int j = last + 1; j <= jhi && !accepted; ++j) {
            accepted = try_j(j);
          }
        }
        stats.edge_evaluations += scan_evals;
        if (accepted) {
          improved = true;
        } else {
          wm = {epoch, i, kScanFailed};
        }
      }
    }
    if (!improved) break;
  }
  return stats;
}

}  // namespace serpentine::sched
