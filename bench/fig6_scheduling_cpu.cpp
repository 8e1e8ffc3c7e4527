// Figure 6: CPU seconds to generate a schedule, per algorithm and schedule
// length. The paper timed a SparcStation 20/61; absolute numbers here are
// ~1000x faster, but the shapes must match: OPT exponential, LOSS
// quadratic, SLTF ~ N log N + k^2, SORT/SCAN/WEAVE near-linear.
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "serpentine/util/lrand48.h"

using namespace serpentine;

namespace {

const tape::Dlt4000LocateModel& Model() {
  static tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  return model;
}

struct Batch {
  tape::SegmentId initial;
  std::vector<sched::Request> requests;
};

void RunScheduling(benchmark::State& state, const char* scheduler_name) {
  // Every timed configuration — base algorithms and the naive/coalesced
  // variants — is a named entry in the shared scheduler registry.
  const sched::RegistryEntry* entry =
      sched::Registry::Default().Find(scheduler_name);
  if (entry == nullptr) {
    state.SkipWithError("scheduler not registered");
    return;
  }
  const auto& model = Model();
  int n = static_cast<int>(state.range(0));
  Lrand48 rng(42 + n);
  tape::SegmentId total = model.geometry().total_segments();

  // Generate the request batches before the timing loop and rotate
  // through them. PauseTiming/ResumeTiming cost >100 ns per iteration,
  // which swamped the near-linear algorithms at small N and bent their
  // fitted complexity curves. The batch copy that remains in the timed
  // region is O(N) with a constant far below any scheduler's.
  constexpr int kBatches = 32;
  std::vector<Batch> batches(kBatches);
  for (Batch& b : batches) {
    b.initial = rng.NextBounded(total);
    b.requests = sim::GenerateUniformRequests(rng, n, total);
  }

  size_t next = 0;
  for (auto _ : state) {
    const Batch& b = batches[next];
    next = (next + 1) % kBatches;
    auto s = entry->Build(model, b.initial, b.requests);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(n);
}

void BM_Fifo(benchmark::State& state) { RunScheduling(state, "fifo"); }
void BM_Sort(benchmark::State& state) { RunScheduling(state, "sort"); }
void BM_Scan(benchmark::State& state) { RunScheduling(state, "scan"); }
void BM_Weave(benchmark::State& state) { RunScheduling(state, "weave"); }
void BM_Sltf(benchmark::State& state) { RunScheduling(state, "sltf"); }
void BM_SltfNaive(benchmark::State& state) {
  RunScheduling(state, "sltf-naive");
}
void BM_Loss(benchmark::State& state) { RunScheduling(state, "loss"); }
void BM_LossCoalesced(benchmark::State& state) {
  RunScheduling(state, "loss-coalesced");
}
void BM_SparseLoss(benchmark::State& state) {
  RunScheduling(state, "sparse-loss");
}
void BM_LossMt(benchmark::State& state) { RunScheduling(state, "loss-mt"); }
void BM_LossMtOropt(benchmark::State& state) {
  RunScheduling(state, "loss-mt-oropt");
}
void BM_Opt(benchmark::State& state) { RunScheduling(state, "opt"); }

// Opt-in 100k-request points: they multiply the bench's runtime, so the
// default run keeps the paper's range and the large regime only joins
// when SERPENTINE_BENCH_LARGE=1 (run_benches.sh documents this).
bool LargePointsEnabled() {
  const char* v = std::getenv("SERPENTINE_BENCH_LARGE");
  return v != nullptr && v[0] == '1';
}

// The paper's schedule lengths, truncated per algorithm cost.
void FullRange(benchmark::internal::Benchmark* b) {
  for (int n : {16, 64, 192, 512, 1024, 2048}) b->Arg(n);
}
void MidRange(benchmark::internal::Benchmark* b) {
  for (int n : {16, 64, 192, 512}) b->Arg(n);
}
// Scalable builders: the paper's range, extended into the 100k regime
// when the large points are opted in.
void ScalableRange(benchmark::internal::Benchmark* b) {
  FullRange(b);
  if (LargePointsEnabled()) {
    for (int n : {16384, 100000}) b->Arg(n);
  }
}

BENCHMARK(BM_Fifo)->Apply(FullRange)->Complexity(benchmark::oN);
BENCHMARK(BM_Sort)->Apply(FullRange)->Complexity(benchmark::oNLogN);
BENCHMARK(BM_Scan)->Apply(FullRange)->Complexity(benchmark::oN);
BENCHMARK(BM_Weave)->Apply(FullRange)->Complexity(benchmark::oN);
BENCHMARK(BM_Sltf)->Apply(FullRange)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_SltfNaive)->Apply(MidRange)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_Loss)->Apply(FullRange)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_LossCoalesced)->Apply(FullRange)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_SparseLoss)->Apply(ScalableRange)->Complexity(benchmark::oNSquared);
BENCHMARK(BM_LossMt)->Apply(ScalableRange)->Complexity(benchmark::oN);
BENCHMARK(BM_LossMtOropt)->Apply(ScalableRange)->Complexity(benchmark::oN);
// OPT is exponential: the paper reports 0.6 s at 9, 6 s at 10, 936 s at 12
// (1996 hardware). Keep to 12 so the bench terminates quickly.
BENCHMARK(BM_Opt)->DenseRange(6, 12, 2);

}  // namespace

BENCHMARK_MAIN();
