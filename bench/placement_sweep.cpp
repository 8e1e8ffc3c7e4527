// Layout-loop bench: close the workload→layout loop end to end.
//
// 1. Capture heat: a ServingCore with a HeatMap completion observer
//    serves an online stream (the PR-8 observation hook, live).
// 2. Train + optimize: a skewed (Zipf) batch workload trains a HeatMap;
//    the PlacementOptimizer proposes a tail-anchored layout.
// 3. Sweep: the seed (identity) layout and the optimized layout serve an
//    identical evaluation stream; the bench FAILS (nonzero exit) unless
//    the optimized layout strictly improves BOTH makespan AND media life
//    — the acceptance gate for the layout loop.
// 4. Migrate: the delta is planned into reorganization batches, executed
//    on the drive stack, and re-run interleaved with foreground traffic
//    under the degradation ladder.
//
// Timing + metric records go to SERPENTINE_BENCH_JSON (figures
// "placement" and "placement-migration"; schema in
// tools/validate_bench_json.py and docs/benchmarks.md).
#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "serpentine/layout/heat_map.h"
#include "serpentine/layout/migration.h"
#include "serpentine/layout/placement.h"
#include "serpentine/sched/registry.h"
#include "serpentine/sim/serving_core.h"
#include "serpentine/util/table.h"
#include "serpentine/workload/generators.h"

using namespace serpentine;

namespace {

// Zipf workload the loop trains and evaluates on: 512 objects, theta
// 0.95, disjoint train/eval seeds (same shape as the layout tests).
constexpr int kObjects = 512;
constexpr double kTheta = 0.95;
constexpr int kBatchSize = 192;
constexpr int32_t kTrainSeed = 31;
constexpr int32_t kEvalSeed = 77;
constexpr const char* kWorkloadName = "zipf512-theta0.95";

/// One "placement-migration" record: the plan's size as executed offline,
/// and what this run of it cost.
void RecordMigration(bench::TimingRecorder& recorder, const char* label,
                     double wall_seconds,
                     const layout::MigrationExecution& exec,
                     double migration_seconds,
                     double foreground_p99_seconds) {
  recorder.Record(label, exec.segments, /*trials=*/1, wall_seconds,
                  ",\"batches\":%lld,\"segments_moved\":%lld,"
                  "\"migration_seconds\":%.3f,"
                  "\"foreground_p99_seconds\":%.3f",
                  static_cast<long long>(exec.batches),
                  static_cast<long long>(exec.segments), migration_seconds,
                  foreground_p99_seconds);
}

// Section 1: the live observation hook. A small online run whose served
// completions land in the HeatMap without perturbing the trajectory.
void CaptureServingHeat(const tape::Dlt4000LocateModel& model) {
  sim::OnlineServerConfig config;
  config.total_requests = 60;
  config.arrival_rate_per_hour = 120.0;
  auto valid = sim::ValidateOnlineServerConfig(config);
  if (!valid.ok()) {
    std::fprintf(stderr, "serving config: %s\n", valid.ToString().c_str());
    return;
  }
  layout::HeatMap heat(model.geometry().total_segments());
  sim::ServingCore core({&model}, config, config.seed);
  core.set_completion_callback(heat.CompletionObserver());
  for (const sim::ServingRequest& r : sim::GenerateOnlineArrivals(
           config, model.geometry().total_segments())) {
    core.Push(r);
  }
  core.FinishInput();
  while (core.Step() != sim::ServingStep::kDone) {
  }
  core.FinishResult();
  std::printf(
      "online capture: %lld served completions observed into the heat map "
      "(%lld groups warm)\n\n",
      static_cast<long long>(heat.observed_completions()),
      static_cast<long long>([&] {
        int64_t warm = 0;
        for (int64_t g = 0; g < heat.num_groups(); ++g) {
          if (heat.group_heat(g) > 0) ++warm;
        }
        return warm;
      }()));
}

}  // namespace

int main() {
  bench::PrintHeader(
      "placement sweep",
      "Workload-aware segment re-placement: heat capture, tail-anchored "
      "optimization, seed-vs-optimized evaluation, and migration cost.");
  bench::TimingRecorder recorder("placement");
  bench::TimingRecorder migration_recorder("placement-migration");

  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  const tape::SegmentId total = model.geometry().total_segments();

  CaptureServingHeat(model);

  // Section 2: train + optimize. The training horizon is fixed (the
  // optimizer sees 12 batches); SERPENTINE_SCALE=full lengthens only the
  // evaluation horizon, where the tail-anchored win compounds.
  layout::HeatMap heat(total, 256);
  workload::ZipfGenerator train(total, kObjects, kTheta, kTrainSeed);
  for (int b = 0; b < 12; ++b) heat.RecordBatch(train.Batch(kBatchSize));

  layout::PlacementOptimizer optimizer(model);
  layout::OptimizerStats stats;
  auto begin = std::chrono::steady_clock::now();
  layout::Placement optimized = optimizer.Optimize(heat, &stats);
  std::printf(
      "optimizer: %lld hot groups, %lld moved, %lld cap relaxations, "
      "hot-set goodness %.1fs -> %.1fs (%.3fs wall)\n\n",
      static_cast<long long>(stats.hot_groups),
      static_cast<long long>(stats.moved_groups),
      static_cast<long long>(stats.wear_relaxations),
      stats.hot_goodness_before, stats.hot_goodness_after,
      bench::SecondsSince(begin));

  layout::EvaluateOptions eval_options;
  eval_options.batch_size = kBatchSize;
  eval_options.batches = GetBenchScale() == BenchScale::kFull ? 48 : 8;
  const sched::RegistryEntry* loss = sched::Registry::Default().Find("loss");
  if (loss == nullptr) {
    std::fprintf(stderr, "registry has no 'loss' entry\n");
    return 1;
  }

  struct Layout {
    const char* label;
    const layout::Placement* placement;
  };
  layout::Placement seed = layout::Placement::Identity(total, 256);
  layout::PlacementEvaluation results[2];
  const Layout layouts[] = {{"seed", &seed}, {"optimized", &optimized}};
  Table table;
  table.SetHeader({"layout", "makespan_s", "life_consumed", "max_passes",
                   "tape_lengths", "requests"});
  for (int i = 0; i < 2; ++i) {
    // Identical evaluation stream for both layouts: same seed, fresh
    // generator, disjoint from the training seed.
    workload::ZipfGenerator eval(total, kObjects, kTheta, kEvalSeed);
    begin = std::chrono::steady_clock::now();
    auto evaluation = layout::EvaluatePlacement(
        model, *layouts[i].placement, eval, *loss, eval_options);
    if (!evaluation.ok()) {
      std::fprintf(stderr, "%s: %s\n", layouts[i].label,
                   evaluation.status().ToString().c_str());
      return 1;
    }
    results[i] = evaluation.value();
    const layout::PlacementEvaluation& e = results[i];
    recorder.Record(layouts[i].label, e.requests, e.batches,
                    bench::SecondsSince(begin),
                    ",\"workload\":\"%s\",\"makespan_seconds\":%.3f,"
                    "\"life_consumed\":%.9f,\"max_passes\":%lld,"
                    "\"tape_lengths\":%.3f",
                    kWorkloadName, e.makespan_seconds, e.life_consumed,
                    static_cast<long long>(e.max_passes), e.tape_lengths);
    table.AddRow({layouts[i].label,
                  Table::Num(results[i].makespan_seconds, 1),
                  Table::Num(results[i].life_consumed * 1e6, 3) + "e-6",
                  Table::Int(results[i].max_passes),
                  Table::Num(results[i].tape_lengths, 1),
                  Table::Int(results[i].requests)});
  }
  std::printf("%s evaluation, %d chained batches of %d:\n", kWorkloadName,
              eval_options.batches, kBatchSize);
  table.Print();

  const layout::PlacementEvaluation& before = results[0];
  const layout::PlacementEvaluation& after = results[1];
  std::printf(
      "\nmakespan %+.1f%%, life consumed %+.1f%% (optimized vs seed)\n\n",
      100.0 * (after.makespan_seconds / before.makespan_seconds - 1.0),
      100.0 * (after.life_consumed / before.life_consumed - 1.0));

  // Section 4: what the move itself costs.
  auto plan_or = layout::PlanMigration(model, optimized,
                                       sched::Registry::Default());
  if (!plan_or.ok()) {
    std::fprintf(stderr, "plan: %s\n", plan_or.status().ToString().c_str());
    return 1;
  }
  const layout::MigrationPlan& plan = plan_or.value();
  bench::BenchDriveStack stack = bench::MakeTapeADrive();
  begin = std::chrono::steady_clock::now();
  layout::MigrationExecution exec =
      layout::ExecuteMigration(stack.drive(), plan, optimized);
  double exec_wall = bench::SecondsSince(begin);
  RecordMigration(migration_recorder, "offline", exec_wall, exec,
                  exec.total_seconds, 0.0);
  std::printf(
      "migration (offline): %lld batches, %lld segments, %.0fs simulated "
      "(%.0fs read + %.0fs write)\n",
      static_cast<long long>(exec.batches),
      static_cast<long long>(exec.segments), exec.total_seconds,
      exec.read_seconds, exec.write_seconds);

  begin = std::chrono::steady_clock::now();
  auto inter_or = layout::RunInterleavedMigration(
      model, plan, optimized, sched::Registry::Default());
  if (!inter_or.ok()) {
    std::fprintf(stderr, "interleave: %s\n",
                 inter_or.status().ToString().c_str());
    return 1;
  }
  const layout::InterleavedResult& inter = inter_or.value();
  RecordMigration(migration_recorder, "interleaved",
                  bench::SecondsSince(begin), exec, inter.migration_seconds,
                  inter.p99_response_seconds);
  std::printf(
      "migration (interleaved): %s, foreground p99 %.1fs over %lld "
      "requests; ladder full/half/quarter = %lld/%lld/%lld\n\n",
      inter.migration_complete ? "complete" : "INCOMPLETE",
      inter.p99_response_seconds,
      static_cast<long long>(inter.foreground_completed),
      static_cast<long long>(inter.full_slices),
      static_cast<long long>(inter.half_slices),
      static_cast<long long>(inter.quarter_slices));

  // The acceptance gate: the optimized layout must strictly improve both
  // axes, and the interleaved migration must finish.
  int violations = 0;
  if (!(after.makespan_seconds < before.makespan_seconds)) {
    std::fprintf(stderr, "GATE: optimized makespan did not improve\n");
    ++violations;
  }
  if (!(after.life_consumed < before.life_consumed)) {
    std::fprintf(stderr, "GATE: optimized life consumed did not improve\n");
    ++violations;
  }
  if (!inter.migration_complete) {
    std::fprintf(stderr, "GATE: interleaved migration did not finish\n");
    ++violations;
  }
  if (violations == 0) {
    std::printf("gate: optimized layout strictly improves makespan AND "
                "media life\n");
  }
  return violations == 0 ? 0 : 1;
}
