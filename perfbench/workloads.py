"""Workload table and seeded input generation.

Every input the program receives comes from a fixed request pool per
workload, built from POOL_SEED, and a schedule over that pool built from the
workload seed.  The pool is fixed so that each request has a reference result
recorded by record.py (references.json); the workload seed picks the order,
the per-slot variant and the per-operation Monte Carlo seeds.

This module imports asvinit only inside the pool builders, so the worker can
import it without paying for the program's import before setup is timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

POOL_SEED = 20200615

# A·B trials per Monte Carlo operation
MC_TOY_TRIALS = (1, 512)
MC_DEEP_TRIALS = (1, 8)
MC_SEEDS = 24


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool      # cli.main in the worker, else a capped child per op
    trace_ops: int        # operations in a traced run (fixed, so counts are exact)
    trials: int           # A·B per operation, 0 when not a Monte Carlo workload


# why each workload was chosen
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-toy",
            "The pinned CI shape from acceptance 6a/6b/6c (here one parameter draw "
            "of 512 inputs per operation). Wide batch and tiny index maps (177,616 "
            "forward taps). Nearly all of the time (98% on a 2-core host) is "
            "refnet.forward/refnet.backward, so this workload shows any conv-engine "
            "change. Exit 1 is the correct result here: the model gap behind "
            "acceptance 6a (and the single draw) makes the threshold fail.",
            True, 3, MC_TOY_TRIALS[0] * MC_TOY_TRIALS[1],
        ),
        Workload(
            "mc-deep",
            "The same call on arch34's layer stack with its input set to 16x16x3, "
            "asv-backward, 1x8 trials. Deep (34 layers) with 21.1M parameters, 7.3M "
            "forward taps and 0.23 GB of maps, and a small batch. RNG, per-layer "
            "overhead and map memory all weigh here, unlike in mc-toy. Exit 1 is the "
            "recorded result: one draw is far from the predicted variances.",
            True, 3, MC_DEEP_TRIALS[0] * MC_DEEP_TRIALS[1],
        ),
        Workload(
            "calc",
            "The calculator path: arch -> shapes -> variance -> cli formatting, at a "
            "few ms per request, and more for an emit. It never touches the conv "
            "engine, so an engine change should predict no change here. The emit "
            "share uses the write path (sample_parameters + write_weights) next to "
            "the read-only tables.",
            True, 400, 0,
        ),
        Workload(
            "emit-builtin",
            "The command the README advertises, launched the way users launch it: "
            "cold import and cold tau quadrature. The only workload that reaches "
            "full-size (224x224) built-ins. Today every operation fails (traceback, "
            "exit 1) because sample_parameters builds index maps it never uses; "
            "that is recorded as a 100% failure rate, not hidden.",
            False, 2, 0,
        ),
    )
}

# calc mix: category -> slots in every block of 20 requests
CALC_BLOCK = {
    "analyze": 4, "init": 6, "init-all": 3, "compare": 3, "emit": 2, "invalid": 2,
}
CALC_CHAINS = 40
CALC_EMIT_CHAINS = 24
FORMATS = ("json", "csv")
BUILTINS = ("arch34", "arch50")
ARCH = "@arch"   # argv placeholder for the op's architecture file
OUT = "@out"     # argv placeholder for the op's output file


def _op(kind, argv, arch_text=None, expect="ok"):
    """One request: argv with placeholders, the architecture file text it
    reads, and the class of result it must give ("ok", "fail" or "error")."""
    key = json.dumps([kind, argv, arch_text], sort_keys=True)
    return {
        "id": hashlib.sha256(key.encode()).hexdigest()[:16],
        "kind": kind, "argv": argv, "arch_text": arch_text, "expect": expect,
    }


def random_chain(rng, name, small=False):
    """Serialized random valid chain, checked by arch.validate."""
    from asvinit import arch

    while True:
        w = rng.randint(6, 16) if small else rng.randint(8, 40)
        h = w if rng.random() < 0.7 else rng.randint(6, 16) if small else rng.randint(8, 40)
        d = rng.choice((1, 3, 4))
        n_conv = rng.randint(1, 3) if small else rng.randint(2, 8)
        layers = []
        for i in range(n_conv):
            kw = rng.choice((1, 3, 3, 5))
            kh = kw if rng.random() < 0.8 else rng.choice((1, 3, 5))
            layer = {
                "kind": "Conv",
                "kernel": [kw, kh],
                "stride": [rng.choice((1, 1, 2))] * 2,
                "padding": [rng.randint(0, kw - 1), rng.randint(0, kh - 1)],
                "out_channels": rng.choice((4, 8, 12) if small else (4, 8, 16, 24, 32)),
            }
            r = rng.random()
            if i == n_conv - 1 and r < 0.4:
                layer["pool"] = {"kind": "GlobalAverage"}
            elif r < 0.6:
                size = rng.choice((2, 3))
                pool = {"kind": rng.choice(("Max", "Average")), "size": [size, size]}
                if rng.random() < 0.3:
                    pool["stride"] = [rng.choice((1, 2))] * 2
                if rng.random() < 0.2:
                    pool["padding"] = [1, 1]
                layer["pool"] = pool
            layers.append(layer)
        layers.append({"kind": "FullyConnected", "out_channels": rng.randint(2, 16)})
        text = json.dumps({"name": name, "input": [w, h, d], "layers": layers}, indent=2)
        try:
            arch.validate(arch.parse_architecture(text))
        except arch.ValidationError:
            continue
        return text


def _mutations(text):
    """Invalid variants of a valid chain; each must end in 'error:' and exit 2."""
    out = []

    def mutated(edit):
        d = json.loads(text)
        edit(d)
        out.append(json.dumps(d))

    mutated(lambda d: d.update(extra=1))
    mutated(lambda d: d["layers"][0].update(dilation=[1, 1]))
    mutated(lambda d: d.pop("layers"))
    mutated(lambda d: d["layers"][0].update(kernel=[3.0, 3]))
    mutated(lambda d: d["layers"][0].update(padding=list(d["layers"][0]["kernel"])))
    mutated(lambda d: d["layers"][0].update(stride=[0, 1]))
    mutated(lambda d: d["layers"].pop())
    mutated(lambda d: d.update(input=d["input"][:2]))
    mutated(lambda d: d["layers"][0].update(pool={"kind": "Min", "size": [2, 2]}))
    out.append(text[: len(text) // 2])
    return out


def _mc_pool(rng, text, method, trials):
    """simulate requests that differ only in their Monte Carlo seed."""
    a, b = trials
    return [
        _op("simulate", ["simulate", "--arch", ARCH, "--method", method,
                         "--directions", "both", "--trials", f"{a}x{b}",
                         "--seed", str(rng.randrange(2**31))], text, expect="fail")
        for _ in range(MC_SEEDS)
    ]


def build_pool(name):
    """The fixed request pool of one workload, from POOL_SEED."""
    from asvinit import arch

    rng = random.Random(f"{POOL_SEED}:{name}")
    if name == "mc-toy":
        text = arch.serialize(arch.toy_net())
        return _mc_pool(rng, text, "asv-forward", MC_TOY_TRIALS)
    if name == "mc-deep":
        deep = arch.builtin("arch34")
        deep = dataclasses.replace(deep, name="arch34-16", input_shape=(16, 16, 3))
        return _mc_pool(rng, arch.serialize(deep), "asv-backward", MC_DEEP_TRIALS)
    if name == "emit-builtin":
        return [
            _op("emit", ["init", "--builtin", b, "--method", "asv-backward",
                         "--emit-weights", OUT])
            for b in BUILTINS
        ]
    if name == "calc":
        return _calc_pool(rng)
    raise KeyError(name)


def _calc_pool(rng):
    from asvinit import variance

    chains = [random_chain(rng, f"chain{i}") for i in range(CALC_CHAINS)]
    small = [random_chain(rng, f"small{i}", small=True) for i in range(CALC_EMIT_CHAINS)]
    targets = [(["--arch", ARCH], t) for t in chains] + [(["--builtin", b], None) for b in BUILTINS]
    ops = []
    for target, text in targets:
        for fmt in FORMATS:
            ops.append(_op("analyze", ["analyze", *target, "--format", fmt], text))
            ops.append(_op("init-all", ["init", *target, "--method", "all", "--format", fmt], text))
            ops.append(_op("compare", ["compare-methods", *target, "--format", fmt], text))
            for m in variance.METHODS:
                ops.append(_op("init", ["init", *target, "--method", m, "--format", fmt], text))
    for text in small:
        ops.append(_op("emit", [
            "init", "--arch", ARCH, "--method", rng.choice(variance.METHODS),
            "--seed", str(rng.randrange(2**31)), "--format", rng.choice(FORMATS),
            "--emit-weights", OUT], text))
    for text in chains[:12]:
        for bad in _mutations(text):
            ops.append(_op("invalid", [rng.choice(("analyze", "init", "compare-methods")),
                                       "--arch", ARCH], bad, expect="error"))
    for cmd in ("analyze", "init", "compare-methods"):
        for bad in ("arch18", "resnet34", "ARCH34"):
            ops.append(_op("invalid", [cmd, "--builtin", bad], expect="error"))
    for text in small[:8]:
        for bad in ("8by512", "x512", "8x", "eightx512", "8x512x2"):
            ops.append(_op("invalid", ["simulate", "--arch", ARCH, "--trials", bad],
                           text, expect="error"))
    return ops


def schedule(name, seed, pool):
    """Endless pool indices for one run, from the workload seed.

    calc draws in blocks with the fixed CALC_BLOCK composition (seeded slot
    order, seeded item per slot), so the mix is the same on every seed; the
    other workloads walk seeded permutations of their pool.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "calc":
        by_kind = {}
        for i, op in enumerate(pool):
            by_kind.setdefault(op["kind"], []).append(i)
        slots = [k for k, n in CALC_BLOCK.items() for _ in range(n)]
        while True:
            rng.shuffle(slots)
            for kind in slots:
                yield rng.choice(by_kind[kind])
    order = list(range(len(pool)))
    while True:
        rng.shuffle(order)
        yield from order


def materialize(pool, run_dir):
    """Write the pool's architecture files into run_dir and resolve argv."""
    run_dir = Path(run_dir)
    ops = []
    for op in pool:
        argv = list(op["argv"])
        if op["arch_text"] is not None:
            digest = hashlib.sha256(op["arch_text"].encode()).hexdigest()[:16]
            path = run_dir / f"arch-{digest}.json"
            if not path.exists():
                path.write_text(op["arch_text"], encoding="utf-8")
            argv = [str(path) if a == ARCH else a for a in argv]
        out = str(run_dir / f"out-{op['id']}.bin")
        ops.append({**op, "argv": [out if a == OUT else a for a in argv], "out": out})
    return ops
