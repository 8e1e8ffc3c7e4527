// TertiaryStore: the online tertiary storage system the paper works toward
// (§1, §8) — asynchronous reads against a robotic tape library, batched and
// executed with the paper's scheduling algorithms, behind an LRU segment
// cache.
#ifndef SERPENTINE_STORE_STORE_H_
#define SERPENTINE_STORE_STORE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "serpentine/sched/request.h"
#include "serpentine/sched/scheduler.h"
#include "serpentine/store/segment_cache.h"
#include "serpentine/store/tape_library.h"
#include "serpentine/util/statusor.h"

namespace serpentine::store {

/// Store-level policy.
struct StoreOptions {
  /// Scheduling algorithm for each per-tape batch (paper's guidance: LOSS;
  /// OPT engages automatically for batches it can solve exactly).
  sched::Algorithm algorithm = sched::Algorithm::kLoss;
  sched::SchedulerOptions scheduler_options;
  /// Use OPT instead of `algorithm` for batches of at most this many
  /// requests (paper §5: "OPT is recommended for scheduling up to 10
  /// locates"). 0 disables.
  int opt_cutoff = 10;
  /// Cache capacity in segments (0 disables caching).
  size_t cache_segments = 8192;
  /// When a batch's scheduled execution would take longer than reading the
  /// entire tape, do the full read instead (paper §5: "for more than 1536
  /// requests just read the entire tape").
  bool auto_full_read = true;
};

/// One finished read.
struct CompletedRead {
  uint64_t id = 0;
  int tape = 0;
  sched::Request request;
  double submit_seconds = 0.0;
  double complete_seconds = 0.0;
  bool cache_hit = false;

  double response_seconds() const { return complete_seconds - submit_seconds; }
};

/// Summary of one Flush.
struct FlushReport {
  std::vector<CompletedRead> completed;
  int mounts = 0;
  int full_scans = 0;
  double elapsed_seconds = 0.0;
  double mean_response_seconds = 0.0;
  double max_response_seconds = 0.0;
  int64_t segments_read = 0;
};

/// Batching read store over a TapeLibrary.
///
/// Usage: SubmitRead() any number of requests (optionally interleaved with
/// library().Idle() to model arrival times), then Flush() to mount tapes,
/// schedule, and execute. Every flush runs on drive 0, so submissions,
/// completions and elapsed time are on drive 0's virtual clock,
/// library().now(0), however far another bay's clock has run.
class TertiaryStore {
 public:
  TertiaryStore(StoreOptions options, TapeLibrary library);

  /// Enqueues a read of `count` segments starting at `segment` on
  /// cartridge `tape`, which arrives fully written (the paper's setting).
  /// Cache hits complete immediately. Returns the request id, or
  /// OutOfRange for a span that runs off the cartridge.
  serpentine::StatusOr<uint64_t> SubmitRead(int tape,
                                            tape::SegmentId segment,
                                            int64_t count = 1);

  /// Pending (non-cache-hit) request count.
  size_t pending() const;

  /// Mounts, schedules, and executes everything pending. Tapes with more
  /// pending requests are mounted first. Duplicate reads of one span are
  /// answered oldest first. On an error (a cartridge held in another
  /// drive, say) the tapes already flushed stay served and their reads
  /// are reported by the next Flush; the failing tape's reads and those
  /// of the tapes after it stay pending. Every read is reported once.
  serpentine::StatusOr<FlushReport> Flush();

  TapeLibrary& library() { return library_; }
  const TapeLibrary& library() const { return library_; }
  const SegmentCache& cache() const { return cache_; }
  const StoreOptions& options() const { return options_; }

 private:
  struct PendingRead {
    uint64_t id;
    sched::Request request;
    double submit_seconds;
  };

  /// Mounts `tape`, schedules its batch and runs it through a
  /// sim::RecoveringExecutor over the mounted drive; appends completions
  /// to `report`. Fails only before the first read.
  serpentine::Status FlushTape(int tape,
                               const std::vector<PendingRead>& batch,
                               FlushReport* report);

  StoreOptions options_;
  TapeLibrary library_;
  SegmentCache cache_;
  std::map<int, std::vector<PendingRead>> pending_by_tape_;
  std::vector<CompletedRead> immediate_completions_;
  uint64_t next_id_ = 1;
};

}  // namespace serpentine::store

#endif  // SERPENTINE_STORE_STORE_H_
