"""Self-check of the benchmark's traced run.

    python3 perfbench/selfcheck.py [--seed N] [--out FILE] [workload ...]

Runs the traced run of each workload twice with the same seed, each in fresh
processes, and checks that

- the exact counts repeat bit for bit between the two runs;
- every operation passed its output check;
- on mc-toy, refnet.forward.s + refnet.backward.s is at least 90% of
  montecarlo.estimate.s (the conv engine is where the time goes);
- on calc, refnet.forward.calls is 0 (the calculator never runs the engine).

Exits 1 and names the failed checks if any fails.  With --out, the first
run's per-layer metrics are stored under each workload in FILE (the baseline
file baseline.py writes).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

EXACT = (
    "shapes.map_taps", "shapes.map_bytes", "shapes.infer_shapes.calls",
    "variance.tau.calls", "refnet.forward.calls", "cli.write_weights.bytes",
)


def traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr[-500:]}")
    sys.stdout.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, seed):
    """The problems found, and the first run's result."""
    first, second = traced_run(workload, seed), traced_run(workload, seed)
    problems = []
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name} differs between runs: {a} != {b}")
    for result in (first, second):
        if not result["correct"]:
            problems.append(f"{result['failed']} of {result['attempted']} operations failed")
    m = first["metrics"]
    if workload == "mc-toy":
        engine = m["refnet.forward.s"]["value"] + m["refnet.backward.s"]["value"]
        share = engine / m["montecarlo.estimate.s"]["value"]
        if share < 0.9:
            problems.append(f"forward+backward is {share:.1%} of montecarlo.estimate.s")
    if workload == "calc" and m["refnet.forward.calls"]["value"] != 0:
        problems.append("calc called refnet.forward")
    return problems, first


def main():
    parser = argparse.ArgumentParser(description="benchmark self-check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()
    names = args.workloads or [
        w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]
    ]
    failed, per_layer = False, {}
    for name in names:
        problems, first = check(name, args.seed)
        per_layer[name] = {"seed": args.seed, **first}
        print(f"selfcheck {name}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed |= bool(problems)
    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
        for name, result in per_layer.items():
            data["workloads"].setdefault(name, {})["per_layer"] = result
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
