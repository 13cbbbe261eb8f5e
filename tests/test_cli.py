import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import random
import resource
import shlex
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import asvinit
from asvinit import cli, refnet, shapes
from asvinit.arch import serialize
from conftest import POOLS, dead_tap_chain, small_chains, small_net

GOLDEN = Path(__file__).parent / "data" / "golden_stdout.json"
GOLDEN_SIMULATE = Path(__file__).parent / "data" / "golden_simulate.json"
TOY_FILE = str(Path(asvinit.__file__).parent / "data" / "toy.json")
VGG_FILE = str(Path(__file__).parent / "data" / "vgg.json")


@pytest.fixture
def tiny_arch_file(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(serialize(asvinit.toy_net(3, 4, 4, name="tiny")))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_arch34_csv(capsys):
    code, out, err = run(capsys, "analyze", "--builtin", "arch34", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1 + 34
    first = lines[1].split(",")
    # layer 1: conv output 112x112x64
    assert first[0] == "1"
    assert first[7:10] == ["112", "112", "64"]


def test_analyze_arch50_parameter_count(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "arch50")
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["total_params"] - 2.07e7) / 2.07e7 < 0.02


def test_analyze_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--arch", "/nonexistent/net.json")
    assert code == 2
    assert err.strip() != ""
    assert out == ""


def test_analyze_json_roundtrips(capsys):
    code, out, _ = run(capsys, "analyze", "--builtin", "arch34")
    report = asvinit.ShapeReport.build(asvinit.builtin("arch34"))
    assert json.loads(out) == json.loads(cli.render(report.table(), "json"))


def test_analyze_deterministic(capsys):
    _, out1, _ = run(capsys, "analyze", "--builtin", "arch50", "--format", "csv")
    _, out2, _ = run(capsys, "analyze", "--builtin", "arch50", "--format", "csv")
    assert out1 == out2


def test_init_all_methods_table(capsys):
    code, out, _ = run(capsys, "init", "--builtin", "arch34", "--method", "all")
    assert code == 0
    obj = json.loads(out)
    assert obj["methods"] == list(asvinit.METHODS)
    layer1 = obj["layers"][0]["sigma_w"]
    # the max-pool + stride layer gets a clearly larger backward-adaptive sigma
    assert layer1["asv-backward"] > layer1["kaiming-backward"]


def test_compare_methods_csv_matches_init_all(capsys):
    code, out1, _ = run(capsys, "compare-methods", "--builtin", "arch34",
                        "--format", "csv")
    assert code == 0
    code, out2, _ = run(capsys, "init", "--builtin", "arch34", "--method", "all",
                        "--format", "csv")
    assert code == 0
    assert out1 == out2
    header = out1.splitlines()[0].split(",")
    assert header == ["layer", *asvinit.METHODS]


def test_forward_methods_coincide_on_pooling_free_net(capsys, tmp_path):
    net = asvinit.Architecture(
        name="plain", input_shape=(10, 10, 4),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=8, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=16, kernel=(3, 3)),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=10,
                              activation="Identity"),
        ),
    )
    path = tmp_path / "plain.json"
    path.write_text(serialize(net))
    # with the ReLU-style input constant the adaptive forward column equals
    # the fan-in rule at every layer
    _, out_asv, _ = run(capsys, "init", "--arch", str(path), "--method",
                        "asv-forward", "--tau0", "0.5")
    _, out_kai, _ = run(capsys, "init", "--arch", str(path), "--method",
                        "kaiming-forward")
    sig_asv = [r["sigma_w"] for r in json.loads(out_asv)["layers"]]
    sig_kai = [r["sigma_w"] for r in json.loads(out_kai)["layers"]]
    assert sig_asv == pytest.approx(sig_kai, abs=1e-12)


def test_emit_weights_deterministic_and_readable(capsys, tiny_arch_file, tmp_path):
    w1 = tmp_path / "w1.bin"
    w2 = tmp_path / "w2.bin"
    for path in (w1, w2):
        code, _, _ = run(capsys, "init", "--arch", tiny_arch_file,
                         "--method", "asv-forward", "--seed", "7",
                         "--emit-weights", str(path))
        assert code == 0
    assert w1.read_bytes() == w2.read_bytes()

    header, weights, biases = cli.read_weights(str(w1))
    assert header["seed"] == 7
    assert header["method"] == "asv-forward"
    arch = asvinit.toy_net(3, 4, 4, name="tiny")
    plan = asvinit.init_plan("asv-forward", arch)
    net = asvinit.sample_parameters(arch, plan, seed=7)
    for w_file, w_mem in zip(weights, net.weights):
        assert np.array_equal(w_file, w_mem)
    for b_file in biases:
        assert np.all(b_file == 0.0)


def test_weight_file_keeps_a_zero_bias_vector_per_layer(tmp_path):
    """The engine draws no biases, but the file still ends every layer's
    (C, S) weights with C zero biases."""
    a = dead_tap_chain(POOLS[1])
    path = tmp_path / "w.bin"
    plan = asvinit.init_plan("asv-backward", a)
    cli.write_weights(str(path), plan, 3, cli._weights_header(a, plan, 3))
    header, weights, biases = cli.read_weights(str(path))
    assert len(weights) == len(biases) == len(a.geo)
    for g, w, b in zip(a.geo, weights, biases):
        assert w.shape == (g.channels, g.s_len)
        assert b.shape == (g.channels,) and not b.any()
    head_len = len(path.read_bytes().split(b"\n", 1)[0]) + 1
    floats = sum(g.channels * (g.s_len + 1) for g in a.geo)
    assert path.stat().st_size == head_len + 8 * floats


@pytest.mark.parametrize("name, argv, digest", [
    ("toy", [], "371696c1b536866654454cd730e5c65a4c90a793e7759add8a515080a053a625"),
    ("dead-tap", ["--method", "asv-forward", "--seed", "44"],
     "1452debfd254f126f97838db509cd560c921628956d9c0631ca2bed1e4625b23"),
])
def test_weight_files_keep_their_bytes(capsys, tmp_path, name, argv, digest):
    """A weight file's bytes are pinned by sha256, on toy (every tap live)
    and on a chain with dead taps: they do not depend on how the stream is
    drawn in memory."""
    if name == "toy":
        arch_file = TOY_FILE
    else:
        arch_file = tmp_path / "dead.json"
        arch_file.write_text(serialize(dead_tap_chain(POOLS[1])))
    out = tmp_path / "w.bin"
    code, _, _ = run(capsys, "init", "--arch", str(arch_file), *argv, "--emit-weights", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def run_in_3_gib(*argv):
    """The CLI as a child process under a 3 GiB address-space limit and a
    1 GiB file-size limit.  Python ignores SIGXFSZ, so a write past the
    file cap fails (EFBIG) instead of filling the disk."""
    limit = 3 * 2**30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        resource.setrlimit(resource.RLIMIT_FSIZE, (2**30, 2**30))

    src = str(Path(asvinit.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        # BLAS thread buffers would count against the limit on many-core hosts
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
    }
    return subprocess.run(
        [sys.executable, "-m", "asvinit.cli", *argv],
        env=env, preexec_fn=cap_address_space, capture_output=True, timeout=300,
    )


@pytest.fixture
def wide_kernel_file(tmp_path):
    """A 10**9-wide kernel over a 10**9-wide input: one output of 10**9
    taps per channel pair."""
    net = tmp_path / "wide-kernel.json"
    net.write_text(json.dumps({
        "name": "wide-kernel", "input": [10**9, 1, 1],
        "layers": [
            {"kind": "Conv", "out_channels": 3, "kernel": [10**9, 1]},
            {"kind": "FullyConnected", "out_channels": 2},
        ],
    }))
    return str(net)


def test_analyze_of_a_kernel_of_10_9_taps_fits_in_3_gib(wide_kernel_file):
    """The connection census is O(1) per axis, not a list per kernel tap."""
    proc = run_in_3_gib("analyze", "--arch", wide_kernel_file)
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["layers"][0]["epsilon"] == 10**9 * 3


def test_simulate_on_a_kernel_of_10_9_taps_exits_3(wide_kernel_file):
    """simulate sizes the live kernel in closed form, without a list per
    kernel tap, and refuses its 3 * 10**9 live weights with one error
    line, not a MemoryError traceback."""
    proc = run_in_3_gib("simulate", "--arch", wide_kernel_file, "--trials", "1x1")
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert proc.stdout == b""


def test_emit_weights_on_builtin_fits_in_3_gib(tmp_path):
    """init --emit-weights runs on arch34 under a 3 GiB address-space
    limit."""
    out = tmp_path / "arch34.bin"
    proc = run_in_3_gib("init", "--builtin", "arch34", "--method", "asv-backward",
                        "--emit-weights", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    with open(out, "rb") as fh:
        header = fh.readline()
    geo = asvinit.infer_shapes(asvinit.builtin("arch34"))
    layers = json.loads(header)["layers"]
    assert [(x["channels"], x["kernel_len"]) for x in layers] == [(g.channels, g.s_len) for g in geo]
    assert out.stat().st_size == len(header) + 8 * sum(g.params for g in geo)


def test_emit_weights_over_memory_limit_exits_3(tmp_path):
    """An FC head of 10**6 outputs on a 224x224x64 input is a 25.7 TB
    weight file, more than the disk has free: emit refuses before it
    prints the plan or opens the file.  The child's 1 GiB file-size cap
    makes a lost check fail fast instead of filling the disk."""
    net = tmp_path / "wide.json"
    net.write_text(json.dumps({
        "name": "wide", "input": [224, 224, 64],
        "layers": [{"kind": "FullyConnected", "out_channels": 10**6}],
    }))
    out = tmp_path / "w.bin"
    proc = run_in_3_gib("init", "--arch", str(net), "--emit-weights", str(out))
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (3, b""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_weight_file_is_written_one_draw_block_at_a_time(tmp_path):
    """Writing arch34's weights holds one draw block (about 1 MiB), not its
    largest layer's full (C, S) draw (18.9 MB)."""
    a = asvinit.builtin("arch34")
    plan = asvinit.init_plan("asv-backward", a)
    tracemalloc.start()
    try:
        cli.write_weights(str(tmp_path / "w.bin"), plan, 3, cli._weights_header(a, plan, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_simulate_on_builtin_runs_in_3_gib():
    """The map-free engine runs arch34 at 224x224 under a 3 GiB
    address-space limit: a full report, pass or fail, and no error."""
    proc = run_in_3_gib("simulate", "--builtin", "arch34", "--trials", "1x1")
    err = proc.stderr.decode()
    assert proc.returncode in (0, 1), err
    assert "Traceback" not in err and "error:" not in err
    report = json.loads(proc.stdout)
    assert report["trace"]["trials"] == [1, 1]


def test_simulate_on_toy_runs_chunks_in_3_gib():
    """512 images are 16 chunks, spread over helper threads: under the same
    cap, each thread's stack and arena fit, or the calling thread does its
    share.  A full report, pass or fail, and no error."""
    proc = run_in_3_gib("simulate", "--arch", TOY_FILE, "--trials", "1x512")
    err = proc.stderr.decode()
    assert proc.returncode in (0, 1), err
    assert "Traceback" not in err and "error:" not in err
    report = json.loads(proc.stdout)
    assert report["trace"]["trials"] == [1, 512]


def test_simulate_on_builtin_over_memory_limit_exits_3():
    """64 images of arch34's signals (~150 MB each) exceed 3 GiB: simulate
    refuses before it allocates them, with one error line."""
    proc = run_in_3_gib("simulate", "--builtin", "arch34", "--trials", "1x64")
    err = proc.stderr.decode()
    assert proc.returncode == 3, err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_simulate_passes_with_loose_threshold(capsys, tiny_arch_file):
    code, out, err = run(
        capsys, "simulate", "--arch", tiny_arch_file, "--method", "asv-forward",
        "--trials", "2x16", "--threshold", "5.0", "--seed", "1",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True


def test_simulate_zero_threshold_fails(capsys, tiny_arch_file):
    code, out, err = run(
        capsys, "simulate", "--arch", tiny_arch_file, "--method", "asv-forward",
        "--trials", "1x1", "--threshold", "0",
    )
    assert code == 1
    assert "FAIL" in err


def test_simulate_budget_exceeded_exit_3(capsys, tiny_arch_file, monkeypatch):
    monkeypatch.setenv("ASV_BUDGET", "4")
    code, _, err = run(
        capsys, "simulate", "--arch", tiny_arch_file, "--method", "asv-forward",
        "--trials", "2x16", "--threshold", "0.5",
    )
    assert code == 3
    assert "budget" in err.lower()


def test_simulate_sigma_override_explodes(capsys, tiny_arch_file, tmp_path):
    override = tmp_path / "sigma.json"
    override.write_text(json.dumps([10.0, 10.0, 10.0, 10.0]))
    code, out, err = run(
        capsys, "simulate", "--arch", tiny_arch_file,
        "--sigma-override", str(override),
        "--trials", "2x16", "--threshold", "0.2", "--format", "csv",
    )
    assert code == 1
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    fwd = [float(r[3]) for r in rows if r[0] == "forward"]
    # sigma 10 on every layer: measured levels grow geometrically
    assert fwd[1] > 100 * fwd[0]
    assert fwd[2] > 100 * fwd[1]


def test_simulate_nan_rel_error_fails(capsys, tmp_path):
    """sigma 1e154 on layer 1 makes the layer-1 prediction and estimate
    overflow: inf - inf is a NaN relative error, which is no pass.  The
    report is strict JSON, with null for each non-finite number, and stderr
    holds only the FAIL line."""
    override = tmp_path / "s.json"
    override.write_text("[1e154, 1, 1, 1]")
    code, out, err = run(
        capsys, "simulate", "--arch", TOY_FILE, "--sigma-override", str(override),
        "--trials", "1x4", "--directions", "forward",
    )
    assert code == 1, err

    def not_json(token):
        raise ValueError(f"{token} is not JSON")

    report = json.loads(out, parse_constant=not_json)
    assert report["passed"] is False
    assert report["max_rel_error"] is None
    assert [f["layer"] for f in report["failures"]] == [1, 2, 3, 4]
    assert [f["rel_error"] for f in report["failures"]] == [None] * 4
    assert err.splitlines() == [
        "FAIL: 4 layer(s) beyond threshold 0.2; worst forward layer 1 rel error nan"
    ]


def test_simulate_overflow_on_chunk_threads_warns_nothing(capsys, monkeypatch, tmp_path):
    """The same overflow over two chunks run on two threads, forward and
    backward: numpy's errstate is per thread, so each chunk sets its own,
    and stderr is still the one FAIL line, with no RuntimeWarning."""
    override = tmp_path / "s.json"
    override.write_text("[1e154, 1, 1, 1]")
    monkeypatch.setattr(refnet, "_cpus", lambda: 2)
    ran_on = set()
    chunk_moments = refnet._chunk_moments

    def chunk(*args):
        ran_on.add(threading.current_thread().name)
        return chunk_moments(*args)

    monkeypatch.setattr(refnet, "_chunk_moments", chunk)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "simulate", "--arch", TOY_FILE, "--sigma-override", str(override),
            "--trials", "1x40", "--directions", "both",
        )
    assert code == 1, err
    assert "refnet" in ran_on
    assert [w.category for w in caught] == []
    assert len(err.splitlines()) == 1 and err.startswith("FAIL: "), err


def simulate_predictions(capsys, *argv):
    code, out, err = run(capsys, "simulate", "--arch", TOY_FILE, "--trials", "1x2",
                         "--directions", "both", *argv)
    assert code in (0, 1), err
    rows = json.loads(out)["trace"]["rows"]
    return ([r["predicted"] for r in rows if r["direction"] == "forward"],
            [r["predicted"] for r in rows if r["direction"] == "backward"])


def assert_predictions_are_the_plans(predictions, plan_rows):
    """Forward row 0 is the unit input; forward row l is layer l's q_pred,
    backward row l is layer l+1's r_pred."""
    forward, backward = predictions
    assert forward == [1.0] + [r["q_pred"] for r in plan_rows]
    assert backward == [r["r_pred"] for r in plan_rows[1:]]


@pytest.mark.parametrize("method", asvinit.METHODS)
def test_simulate_predicts_what_init_prints(capsys, method):
    code, out, _ = run(capsys, "init", "--arch", TOY_FILE, "--method", method)
    assert code == 0
    assert_predictions_are_the_plans(
        simulate_predictions(capsys, "--method", method), json.loads(out)["layers"]
    )


def test_simulate_override_predicts_what_its_plan_prints(capsys, tmp_path):
    sigmas = [0.3, 0.07, 0.05, 0.4]
    override = tmp_path / "s.json"
    override.write_text(json.dumps(sigmas))
    plan = asvinit.plan_from_sigmas(asvinit.parse_architecture(Path(TOY_FILE).read_text()),
                                    sigmas)
    assert_predictions_are_the_plans(
        simulate_predictions(capsys, "--sigma-override", str(override)),
        json.loads(cli.render(plan.table(), "json"))["layers"],
    )


def test_simulate_on_a_single_layer_chain(capsys, tmp_path):
    """A lone FC layer has forward rows 0..1 and no backward interface:
    backward reports no row and passes, and both reports forward's rows."""
    path = tmp_path / "fc.json"
    path.write_text(serialize(small_net((4, 4, 2), [], head=16)))
    reports = {}
    for directions in ("forward", "backward", "both"):
        code, out, err = run(capsys, "simulate", "--arch", str(path), "--trials", "2x64",
                             "--directions", directions)
        assert (code, err) == (0, ""), err
        reports[directions] = out
    assert reports["both"] == reports["forward"]
    rows = json.loads(reports["both"])["trace"]["rows"]
    assert [(r["direction"], r["layer"], r["estimate"]) for r in rows] == [
        ("forward", 0, 1.0110560025366206), ("forward", 1, 1.0091472447307268),
    ]
    assert json.loads(reports["backward"])["trace"]["rows"] == []


def test_out_flag_writes_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "analyze", "--builtin", "arch34",
                       "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["name"] == "arch34"


def run_fresh(code, *args):
    """python -c code args... in a fresh interpreter on this package."""
    src = str(Path(asvinit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# one line per step: the step, its exit status (or -), and which of numpy
# and the engine modules are loaded after it
ENGINE_PROBE = """
import contextlib, io, sys
from pathlib import Path
ENGINE = ("numpy", "asvinit.refnet", "asvinit.montecarlo")

def loaded(step, code="-"):
    print(step, code, *[m for m in ENGINE if m in sys.modules])

import asvinit
loaded("import-asvinit")
from asvinit import cli
loaded("import-cli")
chain = asvinit.parse_architecture(Path(sys.argv[1]).read_text())
plan = asvinit.plan_from_sigmas(chain, asvinit.init_plan("xavier", chain).sigma_w)
asvinit.predict_forward(chain.geo, plan.sigma_w)
asvinit.predict_backward(chain.geo, plan.sigma_w)
loaded("plans")
for step, argv in [("analyze", ["analyze", "--builtin", "arch34"]),
                   ("rejected", ["init", "--builtin", "arch18"]),
                   ("all-csv", ["init", "--arch", sys.argv[1], "--method", "all",
                                "--format", "csv"]),
                   ("compare", ["compare-methods", "--arch", sys.argv[1]]),
                   ("max-pool", ["init", "--builtin", "arch34", "--format", "csv"])]:
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    loaded(step, code)
print(out.getvalue().splitlines()[1])
"""


def test_calculator_commands_do_not_load_the_engine(tmp_path):
    """Importing the package or the CLI, an override plan, its sigma_w
    and its levels, analyze, a rejected request and the method table of a
    chain without a max pool leave numpy, refnet and montecarlo unloaded;
    the first max-pool constant loads numpy (and still prints layer 1's tau
    as np.float64(...), the pinned bytes)."""
    chain = tmp_path / "no-max-pool.json"
    chain.write_text(serialize(small_net(
        (8, 8, 3), [(4, 3, 1, 1, asvinit.Pool(kind="Average", size=(2, 2)))], hidden=[5])))
    *steps, last_row = run_fresh(ENGINE_PROBE, str(chain)).splitlines()
    assert steps == [
        "import-asvinit -", "import-cli -", "plans -", "analyze 0", "rejected 2", "all-csv 0",
        "compare 0", "max-pool 0 numpy",
    ]
    assert last_row.split(",")[4] == "np.float64(2.562559127742372)"


ENGINE_NAMES = {
    "montecarlo": ("McConfig", "VarianceTrace", "compare", "estimate_backward",
                   "estimate_both", "estimate_forward"),
    "refnet": ("VectorNet", "backward", "forward", "naive_forward", "sample_parameters"),
}


def test_engine_exports_resolve_on_first_use():
    """A bare `import asvinit` loads neither engine module; the package's
    engine names then resolve to the engine modules' own objects, dir()
    lists them, and an unknown name is an AttributeError."""
    code = """
import sys, asvinit
print(sorted(m for m in ("asvinit.refnet", "asvinit.montecarlo") if m in sys.modules))
print(asvinit.refnet is sys.modules["asvinit.refnet"],
      asvinit.montecarlo is sys.modules["asvinit.montecarlo"])
"""
    assert run_fresh(code).split("\n")[:2] == ["[]", "True True"]
    listed = dir(asvinit)
    for module, names in ENGINE_NAMES.items():
        owner = getattr(asvinit, module)
        assert owner.__name__ == f"asvinit.{module}"
        assert module in listed
        for name in names:
            assert getattr(asvinit, name) is getattr(owner, name), name
            assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'engine'"):
        asvinit.engine


def readme_commands():
    """Every asvinit command of the README's CLI block, as argv: lines
    joined at a trailing backslash, # comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("asvinit ")]


def test_readme_commands_parse():
    """A flag or choice the README shows and the parser lost fails here."""
    commands = readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except asvinit.AsvinitError as exc:
            pytest.fail(f"asvinit {shlex.join(argv)}: {exc}")


def toy_argv(command):
    # "toy.json" stands for the shipped toy net, "vgg.json" for the VGG-style
    # chain under tests/data, whose backward pass unpools max pools at depth
    files = {"toy.json": TOY_FILE, "vgg.json": VGG_FILE}
    return [files.get(a, a) for a in command.split()]


ONE_INFERENCE = [
    "analyze --arch toy.json",
    "init --arch toy.json",
    "init --arch toy.json --method all",
    "compare-methods --arch toy.json",
    "init --arch toy.json --emit-weights @tmp/w.bin",
    "simulate --arch toy.json --trials 1x2",
]


@pytest.mark.parametrize("command", ONE_INFERENCE)
def test_each_command_infers_shapes_once(capsys, monkeypatch, tmp_path, command):
    """The architecture resolves its geometry once; every reader after
    parsing takes it from Architecture.geo."""
    calls = []
    infer = shapes.infer_shapes
    monkeypatch.setattr(shapes, "infer_shapes", lambda a: calls.append(a) or infer(a))
    argv = [a.replace("@tmp", str(tmp_path)) for a in toy_argv(command)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1), err   # simulate may miss its threshold
    assert len(calls) == 1


def test_stdout_matches_golden_digests(capsys):
    # sha256 of stdout per command
    mismatched = []
    for command, digest in json.loads(GOLDEN.read_text()).items():
        _, out, _ = run(capsys, *toy_argv(command))
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            mismatched.append(command)
    assert mismatched == []
    # the simulate digests pin the engine's last-bit rounding; its numbers
    # must still agree with a record taken with the earlier gather/reduceat
    # engine, so a digest change is rounding only
    golden = json.loads(GOLDEN_SIMULATE.read_text())
    _, out, _ = run(capsys, *toy_argv(golden["command"]))
    rows = json.loads(out)["trace"]["rows"]
    assert len(rows) == len(golden["rows"])
    for row, expected in zip(rows, golden["rows"]):
        assert (row["direction"], row["layer"]) == (expected["direction"], expected["layer"])
        for key in ("predicted", "estimate", "stderr"):
            assert row[key] == pytest.approx(expected[key], rel=1e-12, abs=0.0)


def test_option_surface():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: sorted(o for action in p._actions for o in action.option_strings)
        for name, p in sub.choices.items()
    }
    common = ["--arch", "--builtin", "--format", "--help", "--out", "-h"]
    plan = ["--clamp-factor", "--tau0"]
    assert options == {
        "analyze": sorted(common),
        "init": sorted(common + plan + ["--emit-weights", "--method", "--seed"]),
        "compare-methods": sorted(common + plan),
        "simulate": sorted(common + plan + [
            "--directions", "--method", "--seed",
            "--sigma-override", "--threshold", "--trials",
        ]),
    }


def test_help_still_exits_0(capsys):
    """-h is no refusal: argparse prints the help and exits 0."""
    with pytest.raises(SystemExit) as done:
        cli.main(["init", "-h"])
    assert done.value.code == 0 and capsys.readouterr().out.startswith("usage: asvinit init")


# an architecture file with an integer past 2**53, which no float holds
HUGE_INTS = {
    "channels": lambda a: a["layers"][0].update(out_channels=10**400),
    "input": lambda a: a.update(input=[10**200, 10**200, 3]),
    "average-size": lambda a: a["layers"][1]["pool"].update(size=[10**309, 2]),
    "average-padding": lambda a: a["layers"][1]["pool"].update(padding=[0, 10**300]),
    "max-stride": lambda a: a["layers"][0]["pool"].update(stride=[2, 10**400]),
}

# an architecture file with a kind, activation or pool kind the model lacks
UNKNOWN_NAMES = {
    "kind": lambda a: a["layers"][1].update(kind="Deconv"),
    "activation": lambda a: a["layers"][0].update(activation="Tanh"),
    "pool-kind": lambda a: a["layers"][0]["pool"].update(kind="Min"),
}

# an architecture file that breaks a rule of parse_architecture or validate
BROKEN_RULES = {
    "no-layers": lambda a: a.update(layers=[]),
    "zero-channels": lambda a: a["layers"][0].update(out_channels=0),
    "conv-without-kernel": lambda a: a["layers"][0].pop("kernel"),
    "fc-with-kernel": lambda a: a["layers"][-1].update(kernel=[1, 1]),
    "fc-with-pool": lambda a: a["layers"][-1].update(pool={"kind": "Max", "size": [2, 2]}),
    "max-without-size": lambda a: a["layers"][0]["pool"].pop("size"),
    "pool-without-kind": lambda a: a["layers"][0]["pool"].pop("kind"),
    "no-name": lambda a: a.pop("name"),
    "layers-not-a-list": lambda a: a.update(layers={}),
}

BAD_INPUTS = [
    (["analyze", "--builtin", ""], {}),
    (["analyze", "--builtin", "toy"], {}),
    (["simulate", "--arch", "@arch", "--trials", "0x4"], {}),
    (["simulate", "--arch", "@arch", "--trials=-1x4"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/short.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/dict.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/strings.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/bools.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/huge.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/latin1.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/deep.json"], {}),
    (["analyze", "--arch", "@tmp/latin1.json"], {}),
    (["analyze", "--arch", "@tmp/deep.json"], {}),
    (["analyze", "--arch", "@tmp/t-override.json"], {}),
    (["simulate", "--arch", "@arch", "--trials", "1x4"], {"ASV_BUDGET": "abc"}),
    (["simulate", "--arch", "@arch", "--trials", "1x4"], {"ASV_BUDGET": "0"}),
    (["simulate", "--arch", "@arch", "--trials", "1x4"], {"ASV_BUDGET": "-5"}),
    (["simulate", "--arch", "@arch", "--threshold", "nan"], {}),
    (["simulate", "--arch", "@arch", "--seed", "-1"], {}),
    (["init", "--arch", "@arch", "--clamp-factor", "nan"], {}),
    (["init", "--arch", "@arch", "--clamp-factor", "abc"], {}),
    (["init", "--arch", "@arch", "--clamp-factor", "-1"], {}),
    (["init", "--arch", "@arch", "--tau0", "nan"], {}),
    (["init", "--arch", "@arch", "--tau0", "-1"], {}),
    (["init", "--arch", "@arch", "--seed", "-1", "--emit-weights", "@tmp/w.bin"], {}),
    (["compare-methods", "--arch", "@arch", "--clamp-factor", "abc"], {}),
    (["analyze", "--arch", "@arch", "--out", "@tmp/missing/report.json"], {}),
    (["analyze", "--arch", "@arch", "--out", "@tmp"], {}),
    (["init", "--arch", "@arch", "--out", "@tmp/missing/plan.json"], {}),
    (["init", "--arch", "@arch", "--emit-weights", "@tmp/missing/w.bin"], {}),
    (["init", "--arch", "@arch", "--emit-weights", "@tmp"], {}),
    (["simulate", "--arch", "@arch", "--trials", "1x4", "--out", "@tmp/missing/r.json"], {}),
    (["simulate", "--arch", "@arch", "--trials", "1x4", "--out", "@tmp"], {}),
    # an output that names an input file or the other output
    (["analyze", "--arch", "@arch", "--out", "@arch"], {}),
    (["init", "--arch", "@arch", "--emit-weights", "@arch"], {}),
    (["analyze", "--arch", "tiny.json", "--out", "./tiny.json"], {}),
    (["init", "--arch", "@tmp/link.json", "--out", "@arch"], {}),
    (["compare-methods", "--arch", "@arch", "--out", "@tmp/link.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/sigmas.json", "--trials", "1x4",
      "--out", "@tmp/./sigmas.json"], {}),
    (["init", "--arch", "@arch", "--out", "@tmp/w.bin", "--emit-weights", "@tmp/w.bin"], {}),
    (["init", "--arch", "@arch", "--out", "@tmp/./w.bin", "--emit-weights", "@tmp/w.bin"], {}),
    *[
        (argv + ["--arch", f"@tmp/huge-{name}.json"], {})
        for name in HUGE_INTS
        for argv in (["analyze"], ["init"], ["simulate", "--trials", "1x4"],
                     ["init", "--emit-weights", "@tmp/w.bin"])
    ],
    *[(["analyze", "--arch", f"@tmp/unknown-{name}.json"], {}) for name in UNKNOWN_NAMES],
    *[(["analyze", "--arch", f"@tmp/broken-{name}.json"], {}) for name in BROKEN_RULES],
    (["init", "--arch", "@arch", "--method", "all", "--emit-weights", "@tmp/w.bin"], {}),
    # an integer too long for int() to read
    (["analyze", "--arch", "@tmp/long-int.json"], {}),
    (["simulate", "--arch", "@arch", "--sigma-override", "@tmp/long-int.json"], {}),
    # refused by the parser: each is one error: line too, and main returns 2
    (["init", "--arch", "@arch", "--tau0", "abc"], {}),
    (["simulate", "--arch", "@arch", "--seed", "1.5"], {}),
    (["analyze", "--arch", "@arch", "--format", "xml"], {}),
    (["init", "--arch", "@arch", "--method", "he"], {}),
    (["analyze", "--arch", "@arch", "--bogus"], {}),
    ([], {}),
    (["init"], {}),
    (["simulate", "--arch", "@arch", "--trials", "8x512x2"], {}),
]


@pytest.mark.parametrize(
    "argv, env", BAD_INPUTS,
    ids=[" ".join(argv + [f"{k}={v}" for k, v in env.items()]) or "no command"
         for argv, env in BAD_INPUTS],
)
def test_bad_input_is_one_error_line_and_exit_2(capsys, monkeypatch, tiny_arch_file,
                                                tmp_path, argv, env):
    (tmp_path / "short.json").write_text("[1.0, 2.0]")
    (tmp_path / "dict.json").write_text('{"a": 1}')
    # four entries, one per layer of the tiny net
    (tmp_path / "strings.json").write_text('["0.5", "0.5", "0.5", "0.5"]')
    (tmp_path / "bools.json").write_text("[true, true, true, true]")
    (tmp_path / "huge.json").write_text(f"[{10**400}, 1.0, 1.0, 1.0]")
    (tmp_path / "latin1.json").write_bytes(b'["\xe9"]')  # not UTF-8
    (tmp_path / "deep.json").write_text("[" * 200_000)
    (tmp_path / "sigmas.json").write_text("[0.5, 0.5, 0.5, 0.5]")
    (tmp_path / "link.json").symlink_to(tiny_arch_file)
    # the window cardinality is the pool's area; no key overrides it
    doc = json.loads(Path(tiny_arch_file).read_text())
    doc["layers"][0]["pool"]["t_override"] = 4
    (tmp_path / "t-override.json").write_text(json.dumps(doc))
    for prefix, edits in (("huge", HUGE_INTS), ("unknown", UNKNOWN_NAMES),
                          ("broken", BROKEN_RULES)):
        for name, edit in edits.items():
            doc = json.loads(Path(tiny_arch_file).read_text())
            edit(doc)
            (tmp_path / f"{prefix}-{name}.json").write_text(json.dumps(doc))
    (tmp_path / "long-int.json").write_text(f"[{'1' * 5000}, 1.0, 1.0, 1.0]")
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(tmp_path)
    argv = [a.replace("@arch", tiny_arch_file).replace("@tmp", str(tmp_path)) for a in argv]
    inputs = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "w.bin").exists()
    assert {p: p.read_bytes() for p in inputs} == inputs


def test_an_output_that_names_an_input_is_refused_by_name(capsys, tiny_arch_file, tmp_path):
    code, _, err = run(capsys, "analyze", "--arch", tiny_arch_file, "--out", tiny_arch_file)
    assert (code, err) == (2, f"error: cannot write {tiny_arch_file}: it is the --arch file\n")
    weights = str(tmp_path / "w.bin")
    code, _, err = run(capsys, "init", "--arch", tiny_arch_file, "--out", weights,
                       "--emit-weights", weights)
    assert (code, err) == (2, f"error: cannot write {weights}: it is the --out file\n")


def test_read_weights_truncated_file(capsys, tiny_arch_file, tmp_path):
    path = tmp_path / "w.bin"
    run(capsys, "init", "--arch", tiny_arch_file, "--emit-weights", str(path))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(asvinit.AsvinitError, match="truncated"):
        cli.read_weights(str(path))


@pytest.mark.parametrize("channels, kernel_len", [(10**20, 1), (3 * 10**6, 10**7)],
                         ids=["1e20 channels", "3e13 weights"])
def test_read_weights_refuses_a_header_longer_than_the_file(capsys, tiny_arch_file, tmp_path,
                                                           channels, kernel_len):
    """A header that claims more floats than the file holds is a truncated
    file, refused before any read: not an OverflowError or MemoryError."""
    path = tmp_path / "w.bin"
    run(capsys, "init", "--arch", tiny_arch_file, "--emit-weights", str(path))
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    header["layers"][0].update(channels=channels, kernel_len=kernel_len)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + body)
    with pytest.raises(asvinit.AsvinitError, match="truncated"):
        cli.read_weights(str(path))


BAD_HEADERS = {
    "no layers": lambda h: h.pop("layers"),
    "no channels": lambda h: h["layers"][0].pop("channels"),
    "no kernel_len": lambda h: h["layers"][1].pop("kernel_len"),
    "negative count": lambda h: h["layers"][0].update(channels=-3),
    "non-integer count": lambda h: h["layers"][2].update(kernel_len=2.5),
    "layer not an object": lambda h: h["layers"].insert(0, [3, 27]),
    # a damage that returns bytes replaces the whole header line
    "nested too deep": lambda h: b"[" * 200_000,
}


@pytest.mark.parametrize("damage", BAD_HEADERS.values(), ids=BAD_HEADERS.keys())
def test_read_weights_bad_header(capsys, tiny_arch_file, tmp_path, damage):
    path = tmp_path / "w.bin"
    run(capsys, "init", "--arch", tiny_arch_file, "--emit-weights", str(path))
    line, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    line = damage(header)
    if not isinstance(line, bytes):
        line = json.dumps(header).encode("utf-8")
    path.write_bytes(line + b"\n" + body)
    with pytest.raises(asvinit.AsvinitError):
        cli.read_weights(str(path))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("option", ["--out", "--emit-weights"])
def test_failed_write_is_one_error_line_and_exit_2(capsys, tiny_arch_file, option):
    """A write that fails after the file opened (here: no space left on the
    device) ends like an unwritable path, not in a traceback."""
    code, _, err = run(capsys, "init", "--arch", tiny_arch_file, option, "/dev/full")
    assert code == 2
    assert err.startswith("error: cannot write /dev/full: ") and err.count("\n") == 1


BROKEN_PIPE_ARGV = [["init", "--builtin", "arch34"], ["simulate", "--arch", TOY_FILE, "--trials", "1x4"]]


@pytest.mark.parametrize("argv", BROKEN_PIPE_ARGV, ids=["init", "simulate"])
def test_closed_stdout_is_one_error_line_and_exit_2(argv):
    """`asvinit ... | head -1`: a child whose stdout is a pipe with no
    reader prints one error line and exits 2 (simulate's 1 would read as a
    failed threshold), with no traceback and nothing from the
    interpreter's flush at exit."""
    src = str(Path(asvinit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "asvinit.cli", *argv], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (2, "error: cannot write stdout: Broken pipe\n")


class BrokenStdout(io.StringIO):
    """A stdout whose write (or only its flush) fails like a closed pipe."""

    def __init__(self, failing):
        super().__init__()
        self.failing = failing

    def _broken(self):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def write(self, text):
        return self._broken() if self.failing == "write" else super().write(text)

    def flush(self):
        return self._broken() if self.failing == "flush" else super().flush()


@pytest.mark.parametrize("failing", ["write", "flush"])
@pytest.mark.parametrize("argv", BROKEN_PIPE_ARGV, ids=["init", "simulate"])
def test_failed_stdout_write_in_process(capsys, monkeypatch, argv, failing):
    monkeypatch.setattr(sys, "stdout", BrokenStdout(failing))
    code = cli.main(argv)
    assert (code, capsys.readouterr().err) == (2, "error: cannot write stdout: Broken pipe\n")


def test_reused_parser_carries_no_state(capsys, monkeypatch):
    """Every golden command twice in one process, in shuffled order, with an
    argparse usage error and a rejected input after each: the stdout digests
    still match, and the parser is built once."""
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    golden = json.loads(GOLDEN.read_text())
    commands = list(golden) * 2
    random.Random(9).shuffle(commands)
    mismatched = []
    for command in commands:
        _, out, _ = run(capsys, *toy_argv(command))
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != golden[command]:
            mismatched.append(command)
        code, out, err = run(capsys, "init", "--builtin", "arch34", "--method", "he")
        assert (code, out) == (2, "") and "invalid choice" in err
        code, out, err = run(capsys, "simulate", "--arch", TOY_FILE, "--trials", "0x4",
                             "--clamp-factor", "none", "--seed", "3")
        assert (code, out) == (2, "") and err.startswith("error: argument --trials")
    assert mismatched == []
    assert len(builds) == 1


# a size field set to one of these: degenerate, negative, huge, or a small
# value that may exceed the padded extent it slides over
SIZES = st.sampled_from((0, -1, -5, 10**8)) | st.integers(1, 12)


@st.composite
def resized_documents(draw):
    """The JSON text of a valid chain with one to three size fields changed:
    an input extent, a conv kernel, stride or padding, or a pool size,
    stride or padding (added when the chain lacks it)."""
    doc = json.loads(serialize(draw(small_chains())))
    sites = [(doc, "input", 3)]
    for layer in doc["layers"]:
        if "kernel" in layer:
            sites += [(layer, key, 2) for key in ("kernel", "stride", "padding")]
        if "pool" in layer:
            sites += [(layer["pool"], key, 2) for key in ("size", "stride", "padding")]
    for _ in range(draw(st.integers(1, 3))):
        node, key, length = draw(st.sampled_from(sites))
        value = node.get(key) or [1] * length
        if draw(st.booleans()):
            value = [draw(SIZES)] * length
        else:
            value = list(value)
            value[draw(st.integers(0, length - 1))] = draw(SIZES)
        node[key] = value
    return json.dumps(doc)


@pytest.fixture(scope="module")
def resized_file(tmp_path_factory):
    return tmp_path_factory.mktemp("resized") / "net.json"


@settings(max_examples=400)
@given(text=resized_documents())
def test_resized_chains_analyze_or_fail_cleanly(resized_file, text):
    """Every size mutant is either analyzed (exit 0, a JSON report) or
    refused with one error line and exit 2; none ends in a traceback."""
    resized_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["analyze", "--arch", str(resized_file)])
    if code == 0:
        assert err.getvalue() == ""
        assert len(json.loads(out.getvalue())["layers"]) == len(json.loads(text)["layers"])
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
