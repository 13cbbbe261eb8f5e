"""Acceptance suite: one test per criterion, each reporting a PASS/FAIL line.

Every tolerance is pinned here.  The Monte Carlo criteria run at the stated
trial counts with fixed seeds, so results are reproducible bit for bit.
"""

import math
import time

import numpy as np

import asvinit
from asvinit import montecarlo, refnet, variance
from asvinit.arch import validate

from conftest import (
    brute_force_eps, conv_chain, loss_half_square, pooled_relu_max_second_moment, record_criterion,
)


def timed():
    start = time.time()
    return lambda: f"{time.time() - start:.1f}s"


# ---------------------------------------------------------------------------
# 1. Kaiming reduction (quantitative)
# ---------------------------------------------------------------------------

def test_criterion_1_kaiming_reduction():
    elapsed = timed()
    chain = asvinit.Architecture(
        name="chain", input_shape=(12, 12, 3),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=4, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=8, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=16, kernel=(3, 3)),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=10,
                              activation="Identity"),
        ),
    )
    validate(chain)
    plan_f = variance.init_plan(variance.ASV_FORWARD, chain)
    plan_b = variance.init_plan(variance.ASV_BACKWARD, chain,
                                clamp_factor=None)
    d_in = [3, 4, 8]
    d_out = [4, 8, 16]
    mismatches = []
    for i in range(3):
        want_f = 2.0 / (9 * d_in[i])
        want_b = 2.0 / (9 * d_out[i])
        got_f = plan_f.rows[i].sigma_w ** 2
        got_b = plan_b.rows[i].sigma_w ** 2
        if abs(got_f - want_f) > 1e-12:
            mismatches.append(f"fwd l{i + 1}: {got_f:.6g} != {want_f:.6g}")
        if abs(got_b - want_b) > 1e-12:
            mismatches.append(f"bwd l{i + 1}: {got_b:.6g} != {want_b:.6g}")
    ok = not mismatches
    record_criterion(
        1, "Kaiming reduction on zero-padding pooling-free chain", ok,
        ("; ".join(mismatches) + "; " if mismatches else "") + elapsed(),
    )
    assert ok, (
        "adaptive variances deviate from the fan rules: " + "; ".join(mismatches)
        + " -- layer 1 sees raw inputs (full second moment, not the ReLU half)"
        " and border input units see fewer than 9*d_out backward taps, so the"
        " equalities only hold under the all-units-interior idealization"
    )


# ---------------------------------------------------------------------------
# 2. Constants
# ---------------------------------------------------------------------------

def test_criterion_2_constants():
    elapsed = timed()
    checks = []
    checks.append(abs(variance.tau("Average", 4) - (1 / 8) * (1 + 3 / math.pi)) < 1e-12)
    checks.append(abs(variance.tau("Max", 1) - 0.5) < 1e-9)
    checks.append(abs(variance.gamma("Max", 1) - 0.5) < 1e-9)
    checks.append(abs(variance.gamma("Average", 1) - 0.5) < 1e-9)
    details = []
    for t in (2, 3, 4, 9):
        est, se = pooled_relu_max_second_moment(t, 1_000_000, seed=1000 + t)
        within = abs(variance.tau("Max", t) - est) < 3 * se
        checks.append(within)
        details.append(f"T={t}: |{variance.tau('Max', t):.5f}-{est:.5f}|<3*{se:.2g}")
    ok = all(checks)
    record_criterion(2, "pooling constants vs closed forms and MC oracle", ok, elapsed())
    assert ok, details


# ---------------------------------------------------------------------------
# 3. Connection counting
# ---------------------------------------------------------------------------

def test_criterion_3_connection_counting():
    elapsed = timed()
    base = conv_chain((4, 4, 1), (3, 3), (1, 1), (1, 1), 1)
    ok = base.geo[0].epsilon == 100

    rng = np.random.default_rng(303)
    n_checked = 0
    while n_checked < 200:
        kw, kh = (int(v) for v in rng.integers(1, 5, 2))
        sw, sh = (int(v) for v in rng.integers(1, 4, 2))
        pw, ph = int(rng.integers(0, kw)), int(rng.integers(0, kh))
        d, dp = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        w, h = int(rng.integers(kw, 9)), int(rng.integers(kh, 9))
        a = conv_chain((w, h, d), (kw, kh), (sw, sh), (pw, ph), dp)
        oracle = brute_force_eps((w, h, d), (kw, kh), (sw, sh), (pw, ph), dp)
        ok = ok and a.geo[0].epsilon == oracle
        n_checked += 1
    record_criterion(3, "padding-aware connection counts vs brute force", ok,
                     f"200 random configs; {elapsed()}")
    assert ok


# ---------------------------------------------------------------------------
# 4. Architecture fidelity
# ---------------------------------------------------------------------------

def test_criterion_4_architecture_fidelity():
    elapsed = timed()
    r34 = asvinit.ShapeReport.build(asvinit.builtin("arch34"))
    conv_shapes = [r.conv_shape for r in r34.rows]
    ok = conv_shapes[0] == (112, 112, 64)
    ok = ok and all(s == (56, 56, 64) for s in conv_shapes[1:7])
    ok = ok and all(s == (28, 28, 128) for s in conv_shapes[7:15])
    ok = ok and all(s == (14, 14, 256) for s in conv_shapes[15:27])
    ok = ok and all(s == (7, 7, 512) for s in conv_shapes[27:33])
    ok = ok and r34.rows[0].pool_shape == (56, 56, 64)
    ok = ok and r34.rows[32].pool_shape == (1, 1, 512)
    ok = ok and r34.rows[33].m_prime == 10
    ok = ok and abs(r34.total_params - 2.11e7) / 2.11e7 < 0.02

    r50 = asvinit.ShapeReport.build(asvinit.builtin("arch50"))
    block_ends = {1: (112, 112, 64), 10: (56, 56, 256), 22: (28, 28, 512),
                  40: (14, 14, 1024), 49: (7, 7, 2048)}
    for ell, shape in block_ends.items():
        ok = ok and r50.rows[ell - 1].conv_shape == shape
    ok = ok and r50.rows[48].pool_shape == (1, 1, 2048)
    ok = ok and r50.rows[49].m_prime == 10
    ok = ok and abs(r50.total_params - 2.07e7) / 2.07e7 < 0.02
    record_criterion(
        4, "built-in architectures reproduce reference tables", ok,
        f"params {r34.total_params} and {r50.total_params}; {elapsed()}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 5. Oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_oracle_equivalence():
    elapsed = timed()
    pools = [
        None,
        asvinit.Pool(kind="Max", size=(2, 2)),
        asvinit.Pool(kind="Average", size=(2, 2)),
    ]
    ok = True
    rng = np.random.default_rng(505)
    for padding in (0, 1):
        for stride in (1, 2):
            for pool in pools:
                a = asvinit.Architecture(
                    name="m", input_shape=(8, 8, 3),
                    layers=(
                        asvinit.LayerSpec(kind="Conv", out_channels=4,
                                          kernel=(3, 3), stride=(stride, stride),
                                          padding=(padding, padding), pool=pool),
                        asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                                          activation="Identity"),
                    ),
                )
                validate(a)
                plan = variance.init_plan(variance.KAIMING_FORWARD, a)
                net = refnet.sample_parameters(a, plan, seed=9)
                z0 = rng.normal(size=8 * 8 * 3)
                trace = refnet.forward(net, z0)
                us, zs = refnet.naive_forward(net, z0)
                for i in range(len(us)):
                    ok = ok and np.max(np.abs(trace.u[i][:, 0] - us[i])) < 1e-10
                    ok = ok and np.max(np.abs(trace.z[i + 1][:, 0] - zs[i + 1])) < 1e-10

    # finite differences on every parameter of a three-layer net
    toy3 = asvinit.Architecture(
        name="t3", input_shape=(6, 6, 2),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=3, kernel=(3, 3),
                              padding=(1, 1),
                              pool=asvinit.Pool(kind="Max", size=(2, 2))),
            asvinit.LayerSpec(kind="Conv", out_channels=2, kernel=(2, 2),
                              pool=asvinit.Pool(kind="Average", size=(2, 2))),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                              activation="Identity"),
        ),
    )
    validate(toy3)
    plan = variance.init_plan(variance.KAIMING_FORWARD, toy3)
    net = refnet.sample_parameters(toy3, plan, seed=8)
    z0 = np.random.default_rng(11).normal(size=6 * 6 * 2)
    trace = refnet.forward(net, z0)
    # guard against a dead net making the check vacuous
    assert np.abs(trace.u[-1]).max() > 0.1
    refnet.backward(net, trace, param_grads=True)
    h = 1e-5
    worst = 0.0
    for li, w in enumerate(net.weights):
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            ep = loss_half_square(net, z0)
            w[idx] = orig - h
            em = loss_half_square(net, z0)
            w[idx] = orig
            fd = (ep - em) / (2 * h)
            rel = abs(trace.d_weights[li][idx] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
            it.iternext()
    ok = ok and worst < 1e-5
    record_criterion(
        5, "vectorized engine vs naive oracle and finite differences", ok,
        f"max grad rel err {worst:.2e}; {elapsed()}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 6. Variance preservation (the core claim)
# ---------------------------------------------------------------------------

TOY = asvinit.toy_net()
TRIALS = montecarlo.McConfig(n_param_draws=8, n_input_draws=512, seed=0)


def test_criterion_6a_forward_variance_preservation():
    elapsed = timed()
    plan = variance.init_plan(variance.ASV_FORWARD, TOY)
    trace = montecarlo.estimate_forward(TOY, plan, TRIALS)
    rows = [r for r in trace.rows_for("forward") if r.ell >= 1]
    bad = [(r.ell, round(r.estimate, 3)) for r in rows if r.rel_error > 0.2]
    ok = not bad
    record_criterion(
        "6a", "forward-adaptive init keeps Var(u) within 20% of 1", ok,
        f"estimates {[round(r.estimate, 3) for r in rows]}; {elapsed()}",
    )
    assert ok, (
        f"Var(u) off at layers {bad}: below the second pooling stage the"
        " positive means of rectified signals correlate units inside pooling"
        " windows (through shared kernels), which the independence assumption"
        " behind the forward recursion does not model"
    )


def test_criterion_6b_backward_variance_preservation():
    elapsed = timed()
    plan = variance.init_plan(variance.ASV_BACKWARD, TOY, clamp_factor=None)
    trace = montecarlo.estimate_backward(TOY, plan, TRIALS)
    rows = trace.rows_for("backward")
    bad = [(r.ell, round(r.estimate, 3)) for r in rows if r.rel_error > 0.2]
    ok = not bad
    record_criterion(
        "6b", "backward-adaptive init keeps Var(dz) within 20% of 1", ok,
        f"estimates {[round(r.estimate, 3) for r in rows]}; {elapsed()}",
    )
    assert ok, f"Var(dz) off at layers {bad}"


def test_criterion_6c_arbitrary_sigma_tracking():
    elapsed = timed()
    rng = np.random.default_rng(99)
    base = variance.init_plan(variance.KAIMING_FORWARD, TOY).sigma_w
    sig = base * np.exp(rng.uniform(np.log(1 / 3), np.log(3), size=len(base)))
    plan = variance.plan_from_sigmas(TOY, sig)
    trace = montecarlo.estimate_both(TOY, plan, TRIALS)
    bad = [
        (r.direction, r.ell, round(r.rel_error, 3))
        for r in trace.rows if r.rel_error > 0.25
    ]
    ok = not bad
    record_criterion(
        "6c", "measured variances track the recursions within 25%", ok,
        f"worst {max(r.rel_error for r in trace.rows):.3f}; {elapsed()}",
    )
    assert ok, (
        f"tracking off at {bad}: same correlation mechanism as the forward"
        " preservation check; the backward rows and the first pooling stage"
        " track"
    )


# ---------------------------------------------------------------------------
# 7. Qualitative sigma comparison on arch34
# ---------------------------------------------------------------------------

def test_criterion_7_backward_sigma_largest_at_resolution_change():
    elapsed = timed()
    a34 = asvinit.builtin("arch34")
    asv_b = variance.init_plan(variance.ASV_BACKWARD, a34)
    kaiming_b = variance.init_plan(variance.KAIMING_BACKWARD, a34)
    s_asv = asv_b.rows[0].sigma_w
    s_kai = kaiming_b.rows[0].sigma_w
    ok = s_asv > s_kai
    record_criterion(
        7, "layer-1 backward-adaptive sigma exceeds the fan-out rule", ok,
        f"{s_asv:.4f} > {s_kai:.4f}; {elapsed()}",
    )
    assert ok
