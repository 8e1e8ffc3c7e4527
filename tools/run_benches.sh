#!/usr/bin/env sh
# Runs the timing-sensitive benches with machine-readable output.
#
#   tools/run_benches.sh [build-dir] [out-dir]
#
# fig6 (google-benchmark scheduling CPU) writes its native JSON via
# --benchmark_out; the simulation figures (fig7 here; fig4/fig5 and
# table_summary understand the same variable) append JSONL timing records
# via SERPENTINE_BENCH_JSON. Rerun with different SERPENTINE_THREADS
# values and diff the printed tables: they must match bit for bit, only
# wall_seconds may move (see docs/performance.md).
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"

if [ ! -x "$BUILD_DIR/bench/fig6_scheduling_cpu" ]; then
  echo "error: $BUILD_DIR/bench/fig6_scheduling_cpu not found;" \
       "build first (cmake -B $BUILD_DIR && cmake --build $BUILD_DIR)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"

echo "== fig6: scheduling CPU (google-benchmark) =="
"$BUILD_DIR/bench/fig6_scheduling_cpu" \
  --benchmark_out="$OUT_DIR/BENCH_sched.json" \
  --benchmark_out_format=json

echo
echo "== sched_scale: construction wall-clock at 30..100k requests =="
# Fresh file per run (TimingRecorder appends); validated below. Set
# SERPENTINE_BENCH_LARGE=1 to also extend fig6 above into the 100k regime.
rm -f "$OUT_DIR/BENCH_sched_cpu.json"
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_sched_cpu.json" \
  "$BUILD_DIR/bench/sched_scale"
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/validate_bench_json.py" \
    "$OUT_DIR/BENCH_sched_cpu.json"
else
  echo "python3 not on PATH; skipping BENCH_sched_cpu.json validation"
fi

echo
echo "== fig7: utilization (simulation timings to JSONL) =="
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_sim.jsonl" \
  "$BUILD_DIR/bench/fig7_utilization"

echo
echo "== fault sweep: smoke (robustness; exits nonzero on accounting" \
     "violations) =="
SERPENTINE_SCALE=smoke "$BUILD_DIR/bench/fault_sweep" \
  > "$OUT_DIR/BENCH_fault_sweep.txt"
tail -n 2 "$OUT_DIR/BENCH_fault_sweep.txt"

echo
echo "== overload sweep: admission/deadline/breaker past saturation" \
     "(exits nonzero on invariant violations) =="
rm -f "$OUT_DIR/BENCH_overload.json"
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_overload.json" \
  "$BUILD_DIR/bench/overload_sweep" > "$OUT_DIR/BENCH_overload.txt"
tail -n 2 "$OUT_DIR/BENCH_overload.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/validate_bench_json.py" \
    "$OUT_DIR/BENCH_overload.json"
else
  echo "python3 not on PATH; skipping BENCH_overload.json validation"
fi

echo
echo "== fleet sweep: libraries x replication x placement through the" \
     "replica router (exits nonzero on invariant violations) =="
rm -f "$OUT_DIR/BENCH_fleet.json"
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_fleet.json" \
  "$BUILD_DIR/bench/fleet_sweep" > "$OUT_DIR/BENCH_fleet.txt"
tail -n 2 "$OUT_DIR/BENCH_fleet.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/validate_bench_json.py" \
    "$OUT_DIR/BENCH_fleet.json"
else
  echo "python3 not on PATH; skipping BENCH_fleet.json validation"
fi

echo
echo "== stress: open-loop million-request harness with tail-latency SLOs" \
     "(exits nonzero on invariant violations) =="
# Full scale is the 1M-request acceptance run; default here keeps the
# sweep to ~50k requests per point. SERPENTINE_SCALE=full to reproduce
# the paper-scale knee.
rm -f "$OUT_DIR/BENCH_stress.json"
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_stress.json" \
  "$BUILD_DIR/bench/stress" > "$OUT_DIR/BENCH_stress.txt"
tail -n 2 "$OUT_DIR/BENCH_stress.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/validate_bench_json.py" \
    "$OUT_DIR/BENCH_stress.json"
else
  echo "python3 not on PATH; skipping BENCH_stress.json validation"
fi

echo
echo "== placement: workload-aware layout vs the seed =="
# The layout loop end to end: heat capture, tail-anchored optimization,
# seed-vs-optimized evaluation (the bench exits nonzero unless the
# optimized layout strictly improves BOTH makespan and media life), and
# migration cost. SERPENTINE_SCALE=full lengthens the evaluation horizon.
rm -f "$OUT_DIR/BENCH_placement.json"
SERPENTINE_BENCH_JSON="$OUT_DIR/BENCH_placement.json" \
  "$BUILD_DIR/bench/placement_sweep" > "$OUT_DIR/BENCH_placement.txt"
tail -n 1 "$OUT_DIR/BENCH_placement.txt"
if command -v python3 >/dev/null 2>&1; then
  python3 "$(dirname "$0")/validate_bench_json.py" \
    "$OUT_DIR/BENCH_placement.json"
else
  echo "python3 not on PATH; skipping BENCH_placement.json validation"
fi

echo
echo "== drive ops: MeteredDrive op counts per algorithm =="
# This run doubles as the observability sample: one Chrome trace_event
# timeline and one metrics snapshot (see docs/observability.md).
SERPENTINE_DRIVE_JSON="$OUT_DIR/BENCH_drive_ops.json" \
SERPENTINE_TRACE="$OUT_DIR/BENCH_trace.json" \
SERPENTINE_METRICS_JSON="$OUT_DIR/BENCH_metrics.json" \
  "$BUILD_DIR/bench/drive_metrics"

echo
echo "wrote $OUT_DIR/BENCH_sched.json, $OUT_DIR/BENCH_sched_cpu.json," \
     "$OUT_DIR/BENCH_sim.jsonl," \
     "$OUT_DIR/BENCH_fault_sweep.txt, $OUT_DIR/BENCH_overload.json," \
     "$OUT_DIR/BENCH_stress.json, $OUT_DIR/BENCH_placement.json," \
     "$OUT_DIR/BENCH_drive_ops.json," \
     "$OUT_DIR/BENCH_trace.json, and $OUT_DIR/BENCH_metrics.json" \
     "(threads: ${SERPENTINE_THREADS:-auto}, scale: ${SERPENTINE_SCALE:-default})"
