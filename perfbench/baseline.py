"""Run every workload on several seeds and summarise the end-to-end metrics.

    python3 perfbench/baseline.py [--seeds 1-10] [--seconds 20] [--out FILE] [workload ...]

For each workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, which is the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  With --out it also writes those figures
and a record of the machine to FILE, replacing the entries of the workloads
it ran and keeping the others.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def machine():
    """nproc, RAM, L3 size, interpreter and library versions, BLAS threads."""
    import numpy
    import scipy

    import run

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    mem = read("/proc/meminfo") or ""
    ram_kb = next((int(line.split()[1]) for line in mem.splitlines() if line.startswith("MemTotal:")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(ram_kb / 2**20, 1) if ram_kb else None,
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": run.THREADS,
    }


def seeds_from(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "runs": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default=str(BENCHMARK["run_seconds"]))
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    names = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    report = {}
    for name in names:
        values, attempted, failed = {}, 0, 0
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        report[name] = {
            "why": workloads.WORKLOADS[name].why,
            "attempted": attempted, "failed": failed,
            "failed_ratio": failed / attempted,
            "metrics": {metric: summarise(v) for metric, v in values.items()},
        }
        print(f"{name}: {attempted} operations, {failed} failed")
        for metric, s in report[name]["metrics"].items():
            print(f"  {metric:16s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread'] if s['spread'] is None else round(s['spread'], 4)} "
                  f"(bound {bounds.get(metric)})")
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
        data["machine"] = machine()
        for name, figures in report.items():
            data["workloads"][name] = {"seconds": float(args.seconds), "seeds": args.seeds, **figures}
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
