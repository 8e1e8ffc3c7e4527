#include "serpentine/store/store.h"

#include <algorithm>
#include <utility>

#include "serpentine/sched/selector.h"
#include "serpentine/sim/recovering_executor.h"
#include "serpentine/util/check.h"

namespace serpentine::store {

TertiaryStore::TertiaryStore(StoreOptions options, TapeLibrary library)
    : options_(options),
      library_(std::move(library)),
      cache_(options.cache_segments) {}

serpentine::StatusOr<uint64_t> TertiaryStore::SubmitRead(
    int tape, tape::SegmentId segment, int64_t count) {
  if (tape < 0 || tape >= library_.num_cartridges()) {
    return InvalidArgumentError("no such cartridge: " + std::to_string(tape));
  }
  if (count <= 0) return InvalidArgumentError("count must be positive");
  // Compared as a difference: segment + count can overflow int64.
  tape::SegmentId capacity =
      library_.model(tape).geometry().total_segments();
  if (segment < 0 || count > capacity - segment) {
    return OutOfRangeError("read of " + std::to_string(count) +
                           " segments at " + std::to_string(segment) +
                           " runs off cartridge " + std::to_string(tape) +
                           " (capacity " + std::to_string(capacity) + ")");
  }

  uint64_t id = next_id_++;
  sched::Request request{segment, count};

  // Cache check: a multi-segment request hits only if every segment is
  // resident (bounded scan; very large requests bypass the cache).
  bool hit = false;
  if (cache_.capacity() > 0 && count <= 64) {
    hit = true;
    for (int64_t i = 0; i < count && hit; ++i) {
      hit = cache_.Lookup(CacheKey{tape, segment + i});
    }
  }
  if (hit) {
    immediate_completions_.push_back(CompletedRead{
        id, tape, request, library_.now(0), library_.now(0), true});
    return id;
  }

  pending_by_tape_[tape].push_back(
      PendingRead{id, request, library_.now(0)});
  return id;
}

size_t TertiaryStore::pending() const {
  size_t n = 0;
  for (const auto& [tape, reads] : pending_by_tape_) n += reads.size();
  return n;
}

serpentine::StatusOr<FlushReport> TertiaryStore::Flush() {
  FlushReport report;
  report.completed = std::move(immediate_completions_);
  immediate_completions_.clear();

  double start = library_.now(0);

  // Mount order: most pending requests first, so the biggest batches get
  // the earliest service (cf. mount scheduling in tertiary-memory DBMS
  // work the paper cites, [Sar95]/[SS96]).
  std::vector<int> tapes;
  tapes.reserve(pending_by_tape_.size());
  for (const auto& [tape, reads] : pending_by_tape_) tapes.push_back(tape);
  std::sort(tapes.begin(), tapes.end(), [&](int a, int b) {
    size_t na = pending_by_tape_[a].size(), nb = pending_by_tape_[b].size();
    return na != nb ? na > nb : a < b;
  });

  for (int tape : tapes) {
    Status flushed = FlushTape(tape, pending_by_tape_[tape], &report);
    if (!flushed.ok()) {
      // Lose no read: those served so far are reported by the next Flush,
      // and this tape's and the later tapes' stay pending.
      immediate_completions_ = std::move(report.completed);
      return flushed;
    }
    pending_by_tape_.erase(tape);
  }

  report.elapsed_seconds = library_.now(0) - start;
  double sum = 0.0;
  for (const CompletedRead& c : report.completed) {
    sum += c.response_seconds();
    report.max_response_seconds =
        std::max(report.max_response_seconds, c.response_seconds());
    report.segments_read += c.cache_hit ? 0 : c.request.count;
  }
  if (!report.completed.empty()) {
    report.mean_response_seconds = sum / report.completed.size();
  }
  return report;
}

serpentine::Status TertiaryStore::FlushTape(
    int tape, const std::vector<PendingRead>& batch, FlushReport* report) {
  if (batch.empty()) return OkStatus();
  const tape::LocateModel& model = library_.model(tape);

  int before_mounts = static_cast<int>(library_.total_mounts());
  SERPENTINE_RETURN_IF_ERROR(library_.Mount(tape));
  report->mounts += static_cast<int>(library_.total_mounts()) - before_mounts;

  std::vector<sched::Request> requests;
  requests.reserve(batch.size());
  for (const PendingRead& p : batch) requests.push_back(p.request);

  // The paper's §8 rule: OPT for small batches, the configured algorithm
  // otherwise, and a full read when that is estimated to be faster.
  sched::SelectorOptions selector;
  selector.opt_cutoff = options_.opt_cutoff;
  selector.compare_with_full_read = options_.auto_full_read;
  selector.heuristic = options_.algorithm;
  selector.scheduler_options = options_.scheduler_options;
  SERPENTINE_ASSIGN_OR_RETURN(
      sched::Schedule schedule,
      sched::BuildBestSchedule(model, library_.head_position(),
                               std::move(requests), selector));

  // Duplicate reads of one span are answered oldest first: each span
  // stacks its batch indices newest first, so back() is the oldest.
  std::map<std::pair<tape::SegmentId, int64_t>, std::vector<size_t>>
      waiting;
  for (size_t i = batch.size(); i-- > 0;) {
    waiting[{batch[i].request.segment, batch[i].request.count}].push_back(i);
  }

  // The mounted head charges each op to bay 0's clock, so a walk's
  // request completes at that clock after its read. A full pass starts at
  // BOT, and a request completes when the pass reads its last segment.
  // The library's heads never fault, so every request is served.
  drive::Drive& head = *library_.mounted_drive();
  double pass_start = 0.0;
  if (schedule.full_tape_scan) {
    ++report->full_scans;
    head.Locate(0);
    pass_start = library_.now(0);
  }
  sim::RecoveringExecutor(head, model)
      .Execute(schedule, [&](const sched::Request& r, double at,
                             double /*step*/, bool /*ok*/) {
        std::vector<size_t>& ids = waiting[{r.segment, r.count}];
        SERPENTINE_CHECK(!ids.empty());
        const PendingRead& p = batch[ids.back()];
        ids.pop_back();
        double done =
            schedule.full_tape_scan ? pass_start + at : library_.now(0);
        report->completed.push_back(CompletedRead{
            p.id, tape, p.request, p.submit_seconds, done, false});
        for (int64_t i = 0; i < r.count && i < 64; ++i) {
          cache_.Insert(CacheKey{tape, r.segment + i});
        }
      });
  return OkStatus();
}

}  // namespace serpentine::store
