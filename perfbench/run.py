"""Benchmark of asvinit, one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen: workloads.py):
  mc-toy        simulate on the toy net, asv-forward, 1x512 trials
  mc-deep       simulate on arch34's layers at 16x16x3, asv-backward, 1x8 trials
  calc          seeded mix of analyze / init / compare-methods / emit / invalid
  emit-builtin  init --emit-weights on arch34/arch50 in a capped fresh process

Each run starts its own worker process with at most two threads (BLAS
included).  --trace 0 runs the workload closed-loop with one client for S
seconds and reports the end-to-end metrics; --trace 1 runs a fixed number of
operations twice each, untraced and traced, and reports the per-layer metrics
from spans around the program's public functions.  Every operation is
checked against references.json; a wrong or crashed one counts as failed.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 6          # fresh processes timed for setup_s, plus the worker
THREADS = min(2, len(os.sched_getaffinity(0)))
CAP_BYTES = 3 * 2**30     # address-space cap of each emit-builtin process
OP_TIMEOUT_S = 60
DEADLINE_S = 170

# (metric, unit, span name the metric is read from)
PER_LAYER = (
    ("arch.parse_architecture.s", "s", "arch.parse_architecture"),
    ("arch.builtin.s", "s", "arch.builtin"),
    ("shapes.infer_shapes.s", "s", "shapes.infer_shapes"),
    ("shapes.infer_shapes.calls", "count", "shapes.infer_shapes"),
    ("shapes.ShapeReport.build.s", "s", "shapes.ShapeReport.build"),
    ("shapes.build_forward_maps.s", "s", "shapes.build_forward_maps"),
    ("shapes.build_backward_maps.s", "s", "shapes.build_backward_maps"),
    ("shapes.build_pool_maps.s", "s", "shapes.build_pool_maps"),
    ("shapes.build_layer_maps.self_s", "s", "shapes.build_layer_maps"),
    ("shapes.map_taps", "count", "shapes.build_forward_maps"),
    ("shapes.map_bytes", "bytes", "shapes.build_forward_maps"),
    ("variance.init_plan.s", "s", "variance.init_plan"),
    ("variance.init_plan.calls", "count", "variance.init_plan"),
    ("variance.tau.s", "s", "variance.tau"),
    ("variance.tau.calls", "count", "variance.tau"),
    ("refnet.build_maps.s", "s", "refnet.build_maps"),
    ("refnet.sample_parameters.self_s", "s", "refnet.sample_parameters"),
    ("refnet.forward.s", "s", "refnet.forward"),
    ("refnet.backward.s", "s", "refnet.backward"),
    ("refnet.forward.calls", "count", "refnet.forward"),
    ("refnet.forward.tap_cols_per_s", "1/s", "refnet.forward"),
    ("refnet.backward.tap_cols_per_s", "1/s", "refnet.backward"),
    ("montecarlo.estimate.s", "s", "montecarlo.estimate"),
    ("montecarlo.estimate.self_s", "s", "montecarlo.estimate"),
    ("cli.main.s", "s", "cli.main"),
    ("cli.main.self_s", "s", "cli.main"),
    ("cli.write_weights.s", "s", "cli.write_weights"),
    ("cli.write_weights.bytes", "bytes", "cli.write_weights"),
    ("trace.overhead_s", "s", None),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, env):
    """Spawn worker.py; return the process and seconds until it was ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc, timeout):
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def tail(times):
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Below 20 samples no percentile has, and the median is reported: the
    maximum of a handful of operations mostly measures other tenants."""
    n, ordered = len(times), sorted(times)
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return ordered[rank - 1], f"p{p:g}"
    return statistics.median(times), "p50"


def end_to_end(workload, result, setup):
    times = [sec for sec, _ in result["ops"]]
    correct = sum(1 for _, fail in result["ops"] if fail is None)
    busy = sum(times)
    tail_value, tail_label = tail(times)
    n = len(times)
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "op_p50_s": (statistics.median(times), "s", f"n={n}"),
        "op_tail_s": (tail_value, "s", f"{tail_label}, n={n}"),
        "requests_per_s": (correct / busy, "1/s", f"correct requests over busy time, n={n}"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "maxrss of the serving process"),
    }
    extra = {"failed_ratio": ((n - correct) / n, "ratio", f"{n - correct}/{n}")}
    if workload.trials:
        extra["trials_per_s"] = (correct * workload.trials / busy, "1/s",
                                 f"A*B={workload.trials} per operation, n={n}")
    return metrics, extra


def per_layer(result):
    summary, counts = result["summary"], result["counts"]
    untraced = sum(sec for sec, _ in result["ops"])
    traced = sum(sec for sec, _ in result["traced_ops"])
    metrics, notes = {}, {}
    for metric, unit, span in PER_LAYER:
        calls, total, self_s = summary.get(span, (0, 0.0, 0.0)) if span else (0, 0.0, 0.0)
        if metric == "trace.overhead_s":
            value = traced - untraced
        elif metric.endswith(".self_s"):
            value = self_s
        elif metric.endswith(".calls"):
            value = calls
        elif metric.endswith(".s"):
            value = total
        elif metric.endswith("tap_cols_per_s"):
            key = metric.replace("_per_s", "")
            value = counts[key] / total if total else 0.0
        else:
            value = counts[metric]
        metrics[metric] = (value, unit)
        if span and not calls:
            notes[metric] = f"n/a: no call to {span} on this workload"
    return metrics, notes


def run(args):
    if not (SRC / "asvinit" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    refs_path = HERE / "references.json"
    if not refs_path.is_file():
        raise BenchError("references.json is missing; run record.py")
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    refs = json.loads(refs_path.read_text(encoding="utf-8")).get(args.workload, {})
    run_dir = OUT_DIR / f"run-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        ops = workloads.materialize(workloads.build_pool(args.workload), run_dir)
        missing = [op["id"] for op in ops if op["id"] not in refs]
        if missing:
            raise BenchError(f"{len(missing)} {args.workload} requests lack a reference; run record.py")
        plan = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "ops": ops,
            "references": {op["id"]: refs[op["id"]] for op in ops},
            "cap_bytes": CAP_BYTES, "op_timeout": OP_TIMEOUT_S,
            "spans_path": str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}"),
        }
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        env = child_env()
        setup = []
        for _ in range(SETUP_PROBES):
            proc, ready = start_worker(["--probe"], env)
            finish(proc, 30)
            setup.append(ready)
        proc, ready = start_worker(["--plan", str(plan_path)], env)
        setup.append(ready)
        out = finish(proc, max(1.0, deadline - time.monotonic()))
        return workload, json.loads(out.strip().splitlines()[-1]), setup
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description="asvinit benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workload, result, setup = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    ops = result["traced_ops"] if args.trace else result["ops"]
    failures = [fail for _, fail in result["ops"] + result["traced_ops"] if fail is not None]
    attempted = len(result["ops"]) + len(result["traced_ops"])
    mode = f"traced, {len(ops)} operations run untraced and traced" if args.trace else "untraced"
    print(f"workload {args.workload} seed {args.seed} ({mode}): "
          f"{attempted} operations, {len(failures)} failed")
    for reason in sorted(set(failures)):
        print(f"  failed: {reason}")
    if args.trace:
        metrics, notes = per_layer(result)
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:>16.6g} {unit:6s} {notes.get(name, f'n={len(ops)}')}")
    else:
        full, extra = end_to_end(workload, result, setup)
        for name, (value, unit, note) in {**full, **extra}.items():
            print(f"  {name:16s} {value:>12.6g} {unit:6s} {note}")
        metrics = {name: (value, unit) for name, (value, unit, _) in full.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
