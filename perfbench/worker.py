"""One run of one workload, in a process of its own.

    worker.py --probe         import the program, say "ready", exit
    worker.py --plan FILE     import, say "ready", run the plan, print one
                              JSON line with the per-operation results

run.py starts this process and times setup from the spawn to the "ready"
line.  Operations are checked against the recorded references outside the
timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# relative tolerance on Monte Carlo estimates: an engine may reorder float sums
MC_RTOL = 1e-9


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def call_in_process(cli, argv):
    """cli.main(argv) with captured output: (seconds, exit, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback: the CLI would exit 1
            code, error = 1, exc
    seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue(), None if error is None else repr(error)


def _cap(limit):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def call_child(argv, cap_bytes, timeout, trace_out=None):
    """The CLI as a fresh process under an address-space cap."""
    cmd = [sys.executable, str(HERE / "cli_child.py")]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + argv, capture_output=True, text=True, timeout=timeout,
            preexec_fn=_cap(cap_bytes),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "", "", "timeout"
    seconds = time.perf_counter() - start
    error = "traceback" if "Traceback (most recent call last)" in proc.stderr else None
    return seconds, proc.returncode, proc.stdout, proc.stderr, error


def check(op, ref, code, stdout, stderr, error):
    """None when the result matches the reference, else the reason."""
    if error is not None:
        last = (stderr.strip().splitlines() or [""])[-1]
        return f"{error}: {last}"
    if code != ref["exit"]:
        return f"exit {code}, expected {ref['exit']}: {stderr.strip()[:200]}"
    if ref["exit"] == 2 and not stderr.startswith("error: "):
        return f"exit 2 without an 'error:' line: {stderr[:200]!r}"
    if "stdout" in ref and _sha(stdout) != ref["stdout"]:
        return "stdout differs from the reference"
    if "rows" in ref:
        try:
            rows = json.loads(stdout)["trace"]["rows"]
        except (ValueError, KeyError, TypeError):
            return "simulate output is not the JSON report"
        got = [(r["direction"], r["layer"]) for r in rows]
        want = [(r[0], r[1]) for r in ref["rows"]]
        if got != want:
            return "simulate rows differ in layout"
        for r, w in zip(rows, ref["rows"]):
            for key, expected in (("predicted", w[2]), ("estimate", w[3])):
                if abs(r[key] - expected) > MC_RTOL * abs(expected):
                    return f"{r['direction']} layer {r['layer']} {key} {r[key]!r} != {expected!r}"
    path = op.get("out")
    if "out" in ref or "out_size" in ref:
        try:
            data = Path(path).read_bytes()
        except OSError:
            return "no weight file written"
        finally:
            with contextlib.suppress(OSError):
                os.remove(path)
        if "out" in ref and _sha(data) != ref["out"]:
            return "weight file differs from the reference"
        if "out_size" in ref:
            header = data.split(b"\n", 1)[0]
            if len(data) != ref["out_size"] or json.loads(header) != ref["out_header"]:
                return "weight file has the wrong size or header"
    return None


def spot_check(seed):
    """mc-toy gates on the conv engine: refnet.forward against
    refnet.naive_forward on a few columns, and one column bit-identical
    across two batch sizes.  Returns None or the reason it failed."""
    import numpy as np
    from asvinit import arch, refnet, variance

    toy = arch.toy_net()
    net = refnet.sample_parameters(toy, variance.init_plan("asv-forward", toy), seed)
    z0 = np.random.default_rng(seed).normal(size=(net.geo[0].m_prev, 96))
    wide = refnet.forward(net, z0)
    narrow = refnet.forward(net, z0[:, :37])
    for col in (0, 36, 95):
        us, _ = refnet.naive_forward(net, z0[:, col])
        for ell, u in enumerate(us):
            if not np.allclose(wide.u[ell][:, col], u, rtol=1e-10, atol=1e-12):
                return f"forward differs from naive_forward at layer {ell + 1}, column {col}"
    for ell in range(net.num_layers):
        if not np.array_equal(wide.u[ell][:, 17], narrow.u[ell][:, 17]):
            return f"column 17 of layer {ell + 1} changes with the batch size"
    return None


def run(plan):
    import workloads
    from asvinit import cli

    name = plan["workload"]
    ops, refs = plan["ops"], plan["references"]
    workload = workloads.WORKLOADS[name]
    order = workloads.schedule(name, plan["seed"], ops)

    def one(op, trace_out=None):
        """Run one operation: (seconds, failure or None)."""
        if workload.in_process:
            result = call_in_process(cli, op["argv"])
        else:
            result = call_child(op["argv"], plan["cap_bytes"], plan["op_timeout"], trace_out)
        return result[0], check(op, refs[op["id"]], *result[1:])

    spot_failure = None
    if name == "mc-toy":
        try:
            spot_failure = spot_check(plan["seed"] % 2**32)
        except Exception as exc:  # a crash in the engine fails the check
            spot_failure = repr(exc)
    records, traced = [], []
    if not plan["trace"]:
        start = time.perf_counter()
        while not records or time.perf_counter() - start < plan["seconds"]:
            records.append(one(ops[next(order)]))
    else:
        import spans

        tracer = spans.Tracer()
        child_summaries = []
        for k in range(workload.trace_ops):
            op = ops[next(order)]
            records.append(one(op))
            tracer.op_id = k
            if workload.in_process:
                with tracer.installed():
                    traced.append(one(op))
            else:
                prefix = f"{plan['spans_path']}-op{k}"
                traced.append(one(op, trace_out=prefix))
                child_summaries.append(prefix + ".summary.json")
    if spot_failure is not None:
        records[0] = (records[0][0], f"spot check: {spot_failure}")

    usage = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {
        "ops": records,
        "traced_ops": traced,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    if plan["trace"]:
        if workload.in_process:
            tracer.write(plan["spans_path"] + ".jsonl")
            result["summary"], result["counts"] = tracer.summary(), tracer.counts
        else:
            result["summary"], result["counts"] = merge_child_traces(child_summaries)
    return result


def merge_child_traces(paths):
    import spans

    summary, counts = {}, spans.Tracer().counts
    for path in paths:
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError:
            continue   # the child died before it could write
        for name, (calls, total, self_s) in data["summary"].items():
            c, t, s = summary.get(name, (0, 0.0, 0.0))
            summary[name] = (c + calls, t + total, s + self_s)
        for key, value in data["counts"].items():
            counts[key] += value
    return summary, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--probe", action="store_true")
    group.add_argument("--plan")
    args = parser.parse_args()

    import asvinit.cli  # noqa: F401  (setup: the program's import)

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.probe:
        return 0
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    sys.stdout.write(json.dumps(run(plan)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
