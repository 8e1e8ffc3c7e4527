// Pipelined compute/execute batch runner: while the drive services batch
// k, batch k+1's schedule is built on a worker thread from the *predicted*
// final head position of batch k (which ExecuteSchedule's fault-free
// contract makes exact: the head ends past the last request's span, or at
// BOT after a rewind/scan). In a real online system the scheduler's CPU
// time hides entirely behind the drive's mechanical time; here the drive
// is simulated, so the overlap is reported against a modeled two-stage
// timeline mixing the two clock domains obs:: already distinguishes —
// wall seconds for schedule construction, virtual (simulated) seconds for
// drive motion:
//
//   serial    = Σ_k (build_k + exec_k)
//   pipelined = exec end of the recurrence
//       ready_k      = launch_k + build_k
//       exec_start_k = max(exec_end_{k-1}, ready_k)
//       exec_end_k   = exec_start_k + exec_k
//   where launch_k is exec_start_{k-1} when the build was prefetched and
//   exec_end_{k-1} when it was not (first build launches at 0).
//
// With tracing active every build lands as a wall-clock "pipeline" span
// ("build:batch<k>", recorded on whichever thread built it) and every
// batch execution as a virtual-clock span ("execute:batch<k>") on a
// cumulative virtual timeline, so chrome://tracing shows build k+1
// overlapping execution k across the two clock processes. Counters:
// pipeline.batches, pipeline.prefetched, pipeline.mispredicted; gauge
// pipeline.overlap_seconds.
//
// Determinism: schedules are pure functions of (batch index, start
// position, requests), and on a fault-free drive the position prediction
// is exact, so the pipelined run builds exactly the schedules the serial
// run builds — RunPipelinedBatches with overlap on and off returns
// bit-identical schedules and execution results (pinned by
// sim_pipeline_test.cc). A misprediction (possible only on drive stacks
// that violate the fault-free contract) is detected by comparing against
// the executed final position and repaired by rebuilding serially.
//
// Concurrency contract: the builder runs on at most one worker thread at
// a time, concurrently with drive execution on the caller's thread. The
// builder must not share non-concurrent-safe state (e.g. a model whose
// SupportsConcurrentUse() is false) with the executing drive stack.
#ifndef SERPENTINE_SIM_PIPELINE_H_
#define SERPENTINE_SIM_PIPELINE_H_

#include <functional>
#include <vector>

#include "serpentine/drive/drive.h"
#include "serpentine/sched/estimator.h"
#include "serpentine/sched/request.h"
#include "serpentine/sim/executor.h"
#include "serpentine/util/statusor.h"

namespace serpentine::sim {

/// Builds the schedule for one batch. Called with the batch's index, the
/// head position the batch will start from (predicted when pipelined,
/// exact otherwise — the two always agree on fault-free stacks), and the
/// batch's requests.
using BatchScheduleBuilder = std::function<serpentine::StatusOr<sched::Schedule>(
    int batch_index, tape::SegmentId initial,
    std::vector<sched::Request> requests)>;

struct PipelineOptions {
  /// When true (the default), batch k+1's schedule is built on a worker
  /// thread while batch k executes; when false every build happens after
  /// the preceding batch finishes (the serial baseline).
  bool overlap = true;
  /// Execution accounting, forwarded to ExecuteSchedule. rewind_at_end
  /// also feeds the position prediction (a rewound batch ends at BOT).
  sched::EstimateOptions estimate;
};

/// Per-batch accounting.
struct PipelineBatchStats {
  /// Head position the batch's schedule was built from.
  tape::SegmentId planned_start = 0;
  /// Wall-clock seconds spent building the schedule (including a rebuild
  /// after a misprediction).
  double build_wall_seconds = 0.0;
  /// Simulated seconds the batch took to execute.
  double execute_virtual_seconds = 0.0;
  /// True when the build ran on the pool overlapped with the previous
  /// batch's execution (and its position prediction held).
  bool prefetched = false;
};

struct PipelineResult {
  std::vector<PipelineBatchStats> batches;
  /// Summed execution breakdown across batches (final_position is the
  /// drive's position after the last batch).
  ExecutionResult totals;
  /// Total wall seconds spent in the builder.
  double build_wall_seconds = 0.0;
  /// Modeled makespans (see file comment): strict alternation vs the
  /// two-stage pipeline.
  double serial_makespan_seconds = 0.0;
  double pipelined_makespan_seconds = 0.0;
  /// Builds launched ahead of need / predictions that failed to hold.
  int prefetched = 0;
  int mispredicted = 0;

  /// Compute time hidden behind drive motion by pipelining.
  double overlap_seconds() const {
    return serial_makespan_seconds - pipelined_makespan_seconds;
  }
};

/// Runs every batch through build + ExecuteSchedule against `drive`,
/// overlapping neighboring batches per `options`. Fails fast on the first
/// builder error; execution itself follows ExecuteSchedule's fault-free
/// contract.
serpentine::StatusOr<PipelineResult> RunPipelinedBatches(
    drive::Drive& drive, std::vector<std::vector<sched::Request>> batches,
    const BatchScheduleBuilder& build, const PipelineOptions& options = {});

}  // namespace serpentine::sim

#endif  // SERPENTINE_SIM_PIPELINE_H_
