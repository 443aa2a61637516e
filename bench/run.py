"""Benchmark of the nonnesting command line, one workload per run.

Usage (from the root of a checkout):

    python3 bench/run.py --workload dp-sequence --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Closed loop, one client: for `--seconds` seconds run.py starts one fresh
worker interpreter after another (bench/worker.py), each of which imports
`nonnesting.cli` from this checkout's `src/` and makes one pass over the
workload's operations, in an order drawn from `--seed`.  No operation
repeats inside a worker, so memoisation across calls cannot read as speed,
and set-up time and peak RSS are measured per worker.  Every output is
checked outside the timed region (bench/checks.py); a failed operation
stays in the timing.

Timings are scaled to a reference machine speed.  On a shared host one
CPU's speed changes by up to 1.8x for seconds or minutes at a time, which
moves a run's median pass time by a quarter between runs.  Each worker
therefore times a fixed pure-Python kernel between operations, and every
time it reports is multiplied by REFERENCE_S / (mean kernel time): the
seconds the pass would take where that kernel takes REFERENCE_S.  The raw
medians are printed alongside.

With `--trace 0` the last line of stdout holds the end-to-end metrics;
with `--trace 1` passes alternate between traced (bench/tracer.py) and
untraced, and it holds the per-layer metrics.  The line before it gives
the environment, the seed, sample counts, fail ratio, raw medians and
per-operation medians.  Metric names and units are read from
BENCHMARK.json.  Exit code 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
# a pass takes about half a second; this bounds a hung or runaway worker so
# that a run still ends within its time limit
WORKER_TIMEOUT_S = 100
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
# time of one reference kernel slice (worker.py) on the reference machine
REFERENCE_S = 0.0025


class BenchError(Exception):
    """The benchmark cannot run here (no package, or it does not import)."""


def _spawn(ops, traced):
    """One worker pass; returns (spawn time, parsed result or None, error)."""
    spec = json.dumps({"ops": ops, "trace": traced})
    # CLOCK_MONOTONIC is system-wide, so the worker's reading is comparable
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-I", WORKER, ROOT, spec],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return spawned, None, f"worker exceeded {WORKER_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        return spawned, None, f"worker exit {proc.returncode}: {err.strip()[-400:]}"
    return spawned, json.loads(out.splitlines()[-1]), None


def _preflight():
    """Import the package once, untimed: fail fast if it is missing, and
    let the interpreter write its bytecode cache as an install would."""
    if not os.path.isfile(os.path.join(ROOT, "src", "nonnesting", "cli.py")):
        raise BenchError(f"no src/nonnesting/cli.py under {ROOT}")
    _, _, error = _spawn([], False)
    if error:
        raise BenchError(error)


def _scaled(value, unit, scale):
    if unit == "s":
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def run_workload(name, seed, seconds, trace, declared):
    """Runs passes for `seconds`; returns (result line, detail line).
    `declared` lists the metrics to report, each with its name and unit."""
    ops = list(WORKLOADS[name].items())
    rng = random.Random(seed)
    load_start = os.getloadavg()
    passes = []
    failures = []
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(passes) < (2 if trace else 1):
        order = rng.sample(ops, len(ops))
        traced = bool(trace) and len(passes) % 2 == 0
        spawned, result, error = _spawn(order, traced)
        attempted += len(order)
        if result is None:
            failed += len(order)
            failures.append(error)
            continue
        for op in result["ops"]:
            if op["failed"]:
                failed += 1
                failures.append(f"{op['op']}: {op['failed']}")
        reference_s = statistics.fmean(result["reference_s"])
        passes.append(
            {
                "traced": traced,
                "scale": REFERENCE_S / reference_s,
                "reference_s": reference_s,
                "pass_s": result["pass_s"],
                "setup_s": result["ready"] - spawned,
                "peak_rss_mb": result["peak_rss_kb"] / 1024,
                "ops": {op["op"]: op["wall_s"] for op in result["ops"]},
                "layers": result.get("layers"),
            }
        )

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    if not plain or (trace and not traced_passes):
        raise BenchError(f"no pass completed: {failures[0]}")
    walls = sorted(p["pass_s"] * p["scale"] for p in plain)
    # with too few samples for any such percentile, the maximum
    tail_index = len(walls) - 1 - (TAIL_BEYOND if len(walls) > TAIL_BEYOND else 0)
    trace_ok = True
    if trace:
        values = {
            m["name"]: statistics.median(
                _scaled(p["layers"][m["name"]], m["unit"], p["scale"]) for p in traced_passes
            )
            for m in declared
            if m["name"] != "trace.overhead_ratio"
        }
        traced_wall = statistics.median(p["pass_s"] * p["scale"] for p in traced_passes)
        values["trace.overhead_ratio"] = traced_wall / statistics.median(walls)
        # self times must account for the traced pass, bar the worker's loop
        trace_ok = 0.95 <= values["trace.self_share"] <= 1.0 + 1e-9
        if not trace_ok:
            failures.append(f"self times cover {values['trace.self_share']:.4f} of the pass")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "wall_s.tail": walls[tail_index],
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] * p["scale"] for p in plain),
        }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg": [load_start, os.getloadavg()],
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "wall_s.tail": {
            "samples": len(walls),
            "beyond": len(walls) - tail_index - 1,
            "percentile": 100.0 * (tail_index + 1) / len(walls),
        },
        "raw_median": {
            "wall_s": statistics.median(p["pass_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "reference_s": statistics.median(p["reference_s"] for p in plain),
        },
        "op_wall_s_median": {
            op: statistics.median(p["ops"][op] * p["scale"] for p in plain) for op, _ in ops
        },
        "failures": failures[:5],
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(BENCHMARK_JSON) as f:
            declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
        _preflight()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        for name in names:
            result, detail = run_workload(name, args.seed, args.seconds, args.trace, declared)
            print(json.dumps(detail))
            print(json.dumps(result), flush=True)
    except (BenchError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
