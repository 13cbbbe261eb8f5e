import functools
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import asvinit
from asvinit import cli, refnet, variance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TOY_FILE = str(Path(asvinit.__file__).parent / "data" / "toy.json")


def load_bench(monkeypatch, name):
    """perfbench/<name>.py as a module, leaving no bytecode beside it; it
    sits in sys.modules for the test (a dataclass looks its module up)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    """The benchmark's traced mode wraps asvinit functions by name
    (perfbench/spans.py TARGETS); a rename fails here first."""
    spans = load_bench(monkeypatch, "spans")
    missing = []
    for mod_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"asvinit.{mod_name}")
        try:
            functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{mod_name}.{attr}")
    assert not missing


def test_traced_commands_run(monkeypatch, capsys, tmp_path):
    """The traced mode's counters read the program's objects at run time
    (VectorNet.maps, the written file), so a simulate and an emit run under
    the tracer end as they do untraced and record their spans, and so do
    the engine's public passes.  simulate streams its chunks through
    refnet.signal_moments, so forward and backward are called here."""
    spans = load_bench(monkeypatch, "spans")
    weights = tmp_path / "w.bin"
    toy = asvinit.toy_net()
    net = refnet.sample_parameters(toy, variance.init_plan(variance.ASV_FORWARD, toy), 0)
    z0 = np.random.default_rng(1).normal(size=(toy.geo[0].m_prev, 2))
    with spans.Tracer().installed() as tracer:
        simulate = cli.main(["simulate", "--arch", TOY_FILE, "--trials", "1x2"])
        emit = cli.main(["init", "--arch", TOY_FILE, "--emit-weights", str(weights)])
        refnet.backward(net, refnet.forward(net, z0))
    err = capsys.readouterr().err
    assert (simulate, emit) == (1, 0), err
    names = {span[0] for span in tracer.spans}
    assert {"montecarlo.estimate", "refnet.forward", "refnet.backward",
            "cli.write_weights"} <= names
    assert tracer.counts["cli.write_weights.bytes"] == weights.stat().st_size


def test_the_engine_spot_check_passes(monkeypatch):
    """mc-toy gates every run on perfbench/worker.py's spot_check, which
    calls refnet.sample_parameters, forward and naive_forward."""
    assert load_bench(monkeypatch, "worker").spot_check(0) is None


def test_every_workload_pool_builds(monkeypatch):
    """Each workload's request pool is built through arch (and, for calc,
    variance.METHODS) before a run starts."""
    workloads = load_bench(monkeypatch, "workloads")
    for name in workloads.WORKLOADS:
        assert workloads.build_pool(name)


def test_map_counters_read_the_built_maps(monkeypatch):
    """The tracer's map counters read each returned map's tap array
    (fwd_a, bwd_h or members) and the nbytes of its arrays: on toy,
    refnet.build_maps counts every forward, backward and pool map once."""
    spans = load_bench(monkeypatch, "spans")
    with spans.Tracer().installed() as tracer:
        maps, pools = refnet.build_maps(asvinit.toy_net())
    pools = [p for p in pools if p is not None]
    arrays = [v for m in (*maps, *pools) for v in vars(m).values() if isinstance(v, np.ndarray)]
    taps = sum(m.fwd_a.size + m.bwd_h.size for m in maps) + sum(p.members.size for p in pools)
    assert taps == 359_840
    assert tracer.counts["shapes.map_taps"] == taps
    assert tracer.counts["shapes.map_bytes"] == sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("name, count", [("calc", None), ("mc-toy", None), ("mc-deep", 4)])
def test_the_program_gives_the_recorded_references(monkeypatch, tmp_path, name, count):
    """Every calc and mc-toy request, and the first mc-deep ones in pool
    order, give the result perfbench/references.json records for it, as
    the benchmark's worker runs and checks them, so a change that moves
    an output byte fails here and not first in a benchmark run."""
    workloads = load_bench(monkeypatch, "workloads")
    worker = load_bench(monkeypatch, "worker")
    refs = json.loads((PERFBENCH / "references.json").read_text(encoding="utf-8"))[name]
    ops = workloads.materialize(workloads.build_pool(name)[:count], tmp_path)
    mismatches = []
    for op in ops:
        _, *result = worker.call_in_process(cli, op["argv"])
        reason = worker.check(op, refs[op["id"]], *result)
        if reason is not None:
            mismatches.append(f"{op['id']} {op['argv']}: {reason}")
    assert not mismatches, "\n".join(mismatches)
