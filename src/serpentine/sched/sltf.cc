// SLTF — shortest locate time first (paper §4). Two variants:
//  * naive: the textbook O(n²) greedy, used as the reference;
//  * sectioned: the paper's O(n log n + k²) equivalent, exploiting
//    Fact 1 (reading ahead within a section beats leaving it) and
//    Fact 2 (a section's cheapest entry is its lowest-numbered segment).
#include <algorithm>
#include <map>

#include "serpentine/sched/estimator.h"
#include "serpentine/sched/internal.h"
#include "serpentine/util/check.h"

namespace serpentine::sched::internal {
namespace {

/// Section bucket: pending requests of one (track, reading section),
/// ascending by segment, consumed front to back.
struct Bucket {
  std::vector<Request> pending;  // ascending
  size_t next = 0;               // first unconsumed

  bool empty() const { return next >= pending.size(); }
  const Request& head() const { return pending[next]; }
};

}  // namespace

std::vector<Request> ScheduleSltfNaive(const tape::LocateModel& model,
                                       tape::SegmentId initial,
                                       std::vector<Request> requests) {
  const tape::TapeGeometry& g = model.geometry();
  std::vector<Request> out;
  out.reserve(requests.size());
  tape::SegmentId position = initial;
  std::vector<bool> used(requests.size(), false);
  for (size_t step = 0; step < requests.size(); ++step) {
    int best = -1;
    double best_time = 0.0;
    for (size_t i = 0; i < requests.size(); ++i) {
      if (used[i]) continue;
      double t = model.LocateSeconds(position, requests[i].segment);
      if (best < 0 || t < best_time ||
          (t == best_time && requests[i].segment < requests[best].segment)) {
        best = static_cast<int>(i);
        best_time = t;
      }
    }
    used[best] = true;
    out.push_back(requests[best]);
    position = OutPosition(g, requests[best]);
  }
  return out;
}

std::vector<Request> ScheduleSltfSectioned(const tape::LocateModel& model,
                                           tape::SegmentId initial,
                                           std::vector<Request> requests) {
  if (requests.empty()) return requests;
  const tape::TapeGeometry& g = model.geometry();
  const int sections = g.sections_per_track();

  // Bucket requests by (track, reading section); O(n log n).
  std::sort(requests.begin(), requests.end(),
            [](const Request& a, const Request& b) {
              return a.segment < b.segment;
            });
  std::map<int, Bucket> buckets;  // key: track * sections + reading_section
  for (const Request& r : requests) {
    int key = g.TrackOf(r.segment) * sections + g.ReadingSectionOf(r.segment);
    buckets[key].pending.push_back(r);
  }

  std::vector<Request> out;
  out.reserve(requests.size());
  tape::SegmentId position = initial;
  size_t remaining = requests.size();
  while (remaining > 0) {
    // Fact 1: if the current section still holds a request at or ahead of
    // the head, it is closer than anything outside the section.
    int key = g.TrackOf(position) * sections + g.ReadingSectionOf(position);
    auto it = buckets.find(key);
    if (it != buckets.end() && !it->second.empty() &&
        it->second.head().segment >= position) {
      const Request& r = it->second.head();
      out.push_back(r);
      position = OutPosition(g, r);
      ++it->second.next;
      --remaining;
      continue;
    }
    // Fact 2: otherwise only each non-empty section's lowest-numbered
    // pending request can be nearest; O(k) candidates.
    Bucket* best = nullptr;
    double best_time = 0.0;
    for (auto& [unused_key, bucket] : buckets) {
      if (bucket.empty()) continue;
      double t = model.LocateSeconds(position, bucket.head().segment);
      if (best == nullptr || t < best_time ||
          (t == best_time &&
           bucket.head().segment < best->head().segment)) {
        best = &bucket;
        best_time = t;
      }
    }
    SERPENTINE_CHECK(best != nullptr);
    const Request& r = best->head();
    out.push_back(r);
    position = OutPosition(g, r);
    ++best->next;
    --remaining;
  }
  return out;
}

}  // namespace serpentine::sched::internal
