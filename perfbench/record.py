"""Record the reference result of every pooled request into references.json.

    python3 perfbench/record.py [workload ...]

Run this only on a commit whose outputs are trusted: the benchmark counts any
later deviation from these results as a failed operation.  Monte Carlo
requests record their estimates, which run.py compares with a tight relative
tolerance; every other request records its exit code and output digests.
emit-builtin records what a working command must write (the sigma table on
stdout, the weight file's header and size), computed from the program's shape
inference, since the command cannot complete at the commit it was recorded on.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import run

# the worker's thread counts, set before numpy loads
os.environ.update(run.child_env())
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from worker import _sha, call_in_process  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"


def _emit_builtin_ref(op, cli):
    from asvinit import arch, shapes

    argv = op["argv"]
    name, method = argv[argv.index("--builtin") + 1], argv[argv.index("--method") + 1]
    cut = argv.index("--emit-weights")
    table_argv = argv[:cut] + argv[cut + 2:]
    _, code, stdout, _, error = call_in_process(cli, table_argv)
    assert code == 0 and error is None, (table_argv, code, error)
    geo = shapes.infer_shapes(arch.builtin(name))
    header = {
        "format": "asvinit-weights", "version": 1, "arch": name, "method": method,
        "seed": 0,
        "layers": [
            {"layer": i + 1, "channels": g.channels, "kernel_len": g.s_len}
            for i, g in enumerate(geo)
        ],
    }
    size = len(json.dumps(header).encode()) + 1 + 8 * sum(g.channels * (g.s_len + 1) for g in geo)
    return {"exit": 0, "stdout": _sha(stdout), "out_size": size, "out_header": header}


def record(name, cli, tmp):
    pool = workloads.build_pool(name)
    refs = {}
    for op in workloads.materialize(pool, tmp):
        if name == "emit-builtin":
            refs[op["id"]] = _emit_builtin_ref(op, cli)
            continue
        _, code, stdout, stderr, error = call_in_process(cli, op["argv"])
        expected = {"ok": 0, "fail": 1, "error": 2}[op["expect"]]
        if error is not None or code != expected:
            raise SystemExit(f"{name}: {op['argv']} gave exit {code} ({error}): {stderr[-300:]}")
        ref = {"exit": code}
        if op["kind"] == "simulate":
            rows = json.loads(stdout)["trace"]["rows"]
            ref["rows"] = [[r["direction"], r["layer"], r["predicted"], r["estimate"]] for r in rows]
        else:
            ref["stdout"] = _sha(stdout)
        if "--emit-weights" in op["argv"] and code == 0:
            ref["out"] = _sha(Path(op["out"]).read_bytes())
        refs[op["id"]] = ref
    print(f"{name}: {len(refs)} references", file=sys.stderr)
    return refs


def main(names):
    from asvinit import cli

    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    data["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
    }
    for name in names or list(workloads.WORKLOADS):
        tmp = HERE.parent / ".perfbench" / f"record-{name}"
        tmp.mkdir(parents=True, exist_ok=True)
        try:
            data[name] = record(name, cli, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
