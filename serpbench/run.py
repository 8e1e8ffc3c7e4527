#!/usr/bin/env python3
"""Builds serpbench from source and runs its workloads.

One workload (the last stdout line is the result as one JSON object):
  python3 serpbench/run.py --workload knee-loss --seed 3 --seconds 10 --trace 0

Every workload, as a table of every metric with its unit:
  python3 serpbench/run.py [--seed N] [--seconds S] [--trace 1]

The whole benchmark twice, medians compared against BENCHMARK.json:
  python3 serpbench/run.py --twice [--seeds 1-10]

Run from anywhere inside a full checkout; the build goes to .bench_build
(or --build DIR) at the checkout root, traced-run files to
bench-results/serpbench/. Exits 1 when an output check fails, 2 when the
benchmark cannot be built or run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Simulated (virtual-clock) metrics: a function of the seed alone, so two
# runs of the same code must agree bit for bit.
VIRTUAL = {"throughput_per_h", "mean_response_s", "p99_response_s",
           "served_fraction", "failed_fraction", "response_samples",
           "slo_rate_per_h"}


def die(message):
    print(f"serpbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {SPEC_PATH}: {e}")


def build(build_dir):
    """Configures (once) and builds the serpbench target; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "serpentine")):
        die(f"no library sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "serpbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "serpbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only results.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            die(f"build step {' '.join(cmd)} failed: {e}")
        if done.returncode != 0:
            die(f"build step {' '.join(cmd)} exited {done.returncode}")
    return os.path.join(build_dir, "serpbench")


def run_binary(binary, workload, seed, seconds, trace, slo=False):
    """Runs one workload; returns the binary's result object."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", os.path.join(ROOT, "bench-results", "serpbench")]
    if slo:
        cmd.append("--slo")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"{' '.join(cmd)} failed: {e}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        die(f"{' '.join(cmd)} exited {done.returncode} without a result")
    if done.returncode not in (0, 1) or result["correct"] != (
            done.returncode == 0):
        die(f"{' '.join(cmd)} exited {done.returncode}, "
            f"correct={result['correct']}")
    return result


def single_mode(spec, binary, args):
    """One workload; the last stdout line is its result object."""
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"serpbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def fmt(value):
    return f"{value:.6g}"


def print_table(names, results):
    """Rows: every metric any workload reported; columns: workloads."""
    metrics = []
    for r in results:
        for name, m in r["metrics"].items():
            if (name, m["unit"]) not in metrics:
                metrics.append((name, m["unit"]))
    width = max(len(n) for n, _ in metrics) + 2
    print(f"{'metric':{width}s}{'unit':10s}" +
          "".join(f"{n:>18s}" for n in names))
    for name, unit in metrics:
        cells = []
        for r in results:
            m = r["metrics"].get(name)
            cells.append(fmt(m["value"]) if m else "-")
        print(f"{name:{width}s}{unit:10s}" + "".join(f"{c:>18s}" for c in cells))


def full_run(spec, binary, seed, seconds, trace):
    """Every workload once; returns {workload: result}."""
    results = {}
    for w in spec["workloads"]:
        results[w["name"]] = run_binary(binary, w["name"], seed, seconds,
                                        trace, slo=not trace)
    return results


def report_failures(results):
    failed = False
    for r in results:
        for e in r["errors"]:
            print(f"CHECK FAILED: {e}")
            failed = True
    return failed


def table_mode(spec, binary, args):
    names = [w["name"] for w in spec["workloads"]]
    start = time.time()
    results = full_run(spec, binary, args.seed, args.seconds, args.trace)
    print(f"\nserpbench seed {args.seed}, {args.seconds} s per workload, "
          f"trace {args.trace}, {time.time() - start:.0f} s in all\n")
    print_table(names, [results[n] for n in names])
    failed = report_failures(results.values())
    print("\nall output checks passed" if not failed else "")
    return 1 if failed else 0


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def worse_by(value, base, better):
    """How much worse `value` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if value == base else float("inf")
    change = (value - base) / abs(base)
    return -change if better == "higher" else change


def twice_mode(spec, binary, args):
    """Two back-to-back sets over the same seeds; compares their medians."""
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = []
    for which in (1, 2):
        values = {}  # (workload, metric) -> [value per seed]
        for seed in seeds:
            print(f"set {which}, seed {seed}", file=sys.stderr)
            for name, r in full_run(spec, binary, seed, args.seconds,
                                    0).items():
                if report_failures([r]):
                    return 1
                for metric, m in r["metrics"].items():
                    values.setdefault((name, metric), []).append(m["value"])
        sets.append(values)

    ok = True
    print(f"\n{'workload':18s}{'metric':26s}{'median 1':>14s}{'median 2':>14s}"
          f"{'spread 1':>10s}{'spread 2':>10s}  verdict")
    for key in sets[0]:
        workload, metric = key
        a, b = sets[0][key], sets[1].get(key, [])
        if metric not in VIRTUAL and metric not in bounds:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        spreads = []
        for v, m in ((a, ma), (b, mb)):
            q = statistics.quantiles(v, n=4) if len(v) >= 2 else [m, m, m]
            spreads.append((q[2] - q[0]) / abs(m) if m else 0.0)
        if metric in VIRTUAL:
            agree = a == b
            verdict = "bit-identical" if agree else "DIFFERS"
        else:
            bound = bounds[metric]["bound"]
            change = worse_by(mb, ma, bounds[metric]["better"])
            agree = change <= bound and (metric == "setup_s" or
                                         max(spreads) <= bound)
            verdict = (f"{'ok' if agree else 'OUT OF BOUND'} "
                       f"(worse by {change:+.3f}, bound {bound})")
        ok = ok and agree
        print(f"{workload:18s}{metric:26s}{fmt(ma):>14s}{fmt(mb):>14s}"
              f"{spreads[0]:10.4f}{spreads[1]:10.4f}  {verdict}")
    print("\nboth sets agree" if ok else "\nthe sets disagree")
    return 0 if ok else 1


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload; the last line is its result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", default=os.path.join(ROOT, ".bench_build"),
                        help="build directory (default: .bench_build)")
    parser.add_argument("--twice", action="store_true",
                        help="run everything twice and compare the medians")
    parser.add_argument("--seeds", default="1-3",
                        help="seeds of each --twice set, e.g. 1-10 or 1,4,7")
    args = parser.parse_args()

    binary = build(os.path.abspath(args.build))
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            die(f"unknown workload {args.workload}")
        return single_mode(spec, binary, args)
    if args.twice:
        return twice_mode(spec, binary, args)
    return table_mode(spec, binary, args)


if __name__ == "__main__":
    sys.exit(main())
