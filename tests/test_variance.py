import argparse
import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import asvinit
from asvinit import cli, variance
from asvinit.errors import AsvinitError
from conftest import pooled_relu_max_second_moment, small_chains, small_net


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_tau_average_closed_form():
    assert variance.tau("Average", 4) == pytest.approx((1 / 8) * (1 + 3 / math.pi), abs=1e-15)
    assert variance.tau("Average", 1) == pytest.approx(0.5, abs=1e-15)


def test_tau_max_degenerate_is_half():
    assert variance.tau("Max", 1) == pytest.approx(0.5, abs=1e-9)


def test_gamma_values():
    assert variance.gamma("Max", 1) == pytest.approx(0.5, abs=1e-15)
    assert variance.gamma("Average", 1) == pytest.approx(0.5, abs=1e-15)
    assert variance.gamma("Max", 4) == pytest.approx(15 / 64, abs=1e-15)
    assert variance.gamma("Average", 4) == pytest.approx(1 / 32, abs=1e-15)
    assert variance.gamma(None, 9) == 0.5


def test_gamma_max_large_t_no_overflow():
    g = variance.gamma("Max", 4096)
    assert g == pytest.approx(1 / 4096, rel=1e-9)


@pytest.mark.parametrize("t", [2, 3, 4, 9])
def test_tau_max_matches_monte_carlo_oracle(t):
    estimate, stderr = pooled_relu_max_second_moment(t, 1_000_000, seed=100 + t)
    assert abs(variance.tau("Max", t) - estimate) < 3 * stderr


def test_tau_monotone_in_t():
    max_vals = [variance.tau("Max", t) for t in range(1, 65)]
    assert all(b > a for a, b in zip(max_vals, max_vals[1:]))
    avg_vals = [variance.tau("Average", t) for t in range(2, 65)]
    assert all(b < a for a, b in zip(avg_vals, avg_vals[1:]))


def test_gamma_monotone_decreasing():
    for kind in ("Max", "Average"):
        vals = [variance.gamma(kind, t) for t in range(1, 65)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tau_cache_thread_safety():
    import threading
    results = []

    def worker():
        results.append(variance.tau("Max", 25))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(set(results)) == 1


def test_ndtr_has_scipys_bits_at_every_quadrature_node():
    """The in-module Phi is scipy.special.ndtr to the bit wherever the
    max-pool quadrature evaluates it, and on a dense grid over [0, 12]."""
    ndtr = pytest.importorskip("scipy.special").ndtr
    panels = 1
    while panels <= 4096:
        x, _ = variance._panel_nodes(panels)
        assert np.array_equal(variance._ndtr(x), ndtr(x)), panels
        panels *= 2
    x = np.linspace(0.0, 12.0, 1_000_001)
    assert np.array_equal(variance._ndtr(x), ndtr(x))


@pytest.mark.parametrize("t, bits", [
    (2, "0x1.d17cc1b727224p-1"),
    (4, "0x1.8b357e98d0ca0p+0"),
    (9, "0x1.4801efffdc219p+1"),
    (25, "0x1.07be029232cccp+2"),
    (256, "0x1.04a2405bb2fb2p+3"),
])
def test_tau_max_bits_are_pinned(t, bits):
    """tau(Max, T) as computed with scipy.special.ndtr, to the bit."""
    assert float(variance.tau("Max", t)).hex() == bits


def test_importing_the_cli_imports_no_scipy():
    src = str(Path(asvinit.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import asvinit.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# recursions
# ---------------------------------------------------------------------------

def test_asv_forward_fixes_q_at_one():
    toy = asvinit.toy_net()
    geo = asvinit.infer_shapes(toy)
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    q = variance.predict_forward(geo, plan.sigma_w)
    assert np.allclose(q, 1.0, atol=1e-12)


def test_asv_backward_unclamped_fixes_r_at_one():
    toy = asvinit.toy_net()
    geo = asvinit.infer_shapes(toy)
    plan = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=None)
    r = variance.predict_backward(geo, plan.sigma_w)
    assert np.allclose(r, 1.0, atol=1e-12)


def test_doubling_sigma_doubles_downstream_q():
    toy = asvinit.toy_net()
    geo = asvinit.infer_shapes(toy)
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    sig = plan.sigma_w.copy()
    k = 1
    sig[k] *= math.sqrt(2.0)
    q = variance.predict_forward(geo, sig)
    assert np.allclose(q[: k + 1], 1.0, atol=1e-12)
    assert np.allclose(q[k + 1:], 2.0, atol=1e-12)


def test_forward_recursion_matches_hand_evaluation():
    # 16x16x1 input; 3x3 conv padding 1 + 2x2 avg pool; FC head
    net = asvinit.Architecture(
        name="hand", input_shape=(16, 16, 1),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=2, kernel=(3, 3),
                              padding=(1, 1),
                              pool=asvinit.Pool(kind="Average", size=(2, 2))),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                              activation="Identity"),
        ),
    )
    geo = asvinit.infer_shapes(net)
    sigma = np.array([0.3, 0.05])
    # layer 1: eps by census: per-axis 3*14 + 2*2 = 46 taps; M' = 16*16*2
    eps1 = 46 * 46 * 1 * 2
    q1 = 0.3 ** 2 * 1.0 * 1.0 * eps1 / (16 * 16 * 2)
    # layer 2: FC from 8*8*2 = 128 pooled units, tau = avg-pool constant
    tau1 = (1 / 8) * (1 + 3 / math.pi)
    q2 = 0.05 ** 2 * q1 * tau1 * (128 * 3) / 3
    q = variance.predict_forward(geo, sigma)
    assert q[1] == pytest.approx(q1, rel=1e-12)
    assert q[2] == pytest.approx(q2, rel=1e-12)


def test_backward_single_fc_layer_hand_value():
    net = asvinit.Architecture(
        name="fc", input_shape=(5, 1, 1),
        layers=(asvinit.LayerSpec(kind="FullyConnected", out_channels=4,
                                  activation="Identity"),),
    )
    geo = asvinit.infer_shapes(net)
    m_prime = 4
    sigma = np.array([math.sqrt(1.0 / m_prime)])
    r = variance.predict_backward(geo, sigma)
    # identity head: gamma = 1, eps = M*M' -> ratio sigma^2 * M' = 1
    assert r[0] == pytest.approx(1.0, rel=1e-12)
    # with the ReLU halving the same layer would give eps/(2 M M') per unit variance
    eps = 5 * 4
    assert (1.0 / m_prime) * 0.5 * eps / 5 == pytest.approx(eps / (2 * 5 * 4), rel=1e-12)


# ---------------------------------------------------------------------------
# initialization methods
# ---------------------------------------------------------------------------

def padding_free_chain():
    return asvinit.Architecture(
        name="chain", input_shape=(12, 12, 3),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=4, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=8, kernel=(3, 3)),
            asvinit.LayerSpec(kind="Conv", out_channels=16, kernel=(3, 3)),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=10,
                              activation="Identity"),
        ),
    )


def test_forward_reduction_above_first_layer():
    """With zero padding and no pooling, the adaptive forward variances
    collapse to 2/fan_in for every layer above a ReLU layer."""
    chain = padding_free_chain()
    asv = variance.init_plan(variance.ASV_FORWARD, chain)
    kaiming = variance.init_plan(variance.KAIMING_FORWARD, chain)
    for i in range(1, 4):
        assert asv.rows[i].sigma_w ** 2 == pytest.approx(
            kaiming.rows[i].sigma_w ** 2, abs=1e-12
        )
    # layer 1 sees raw inputs (full variance), so its adaptive value is half
    # the fan-in rule, which assumes a ReLU below
    assert asv.rows[0].sigma_w ** 2 == pytest.approx(1.0 / 27.0, abs=1e-15)
    assert kaiming.rows[0].sigma_w ** 2 == pytest.approx(2.0 / 27.0, abs=1e-15)


def test_forward_reduction_exact_with_relu_style_input_constant():
    """Forcing the first-layer constant to the ReLU value 1/2 reproduces the
    fan-in rule at every layer exactly."""
    chain = padding_free_chain()
    asv = variance.init_plan(variance.ASV_FORWARD, chain, tau0=0.5)
    kaiming = variance.init_plan(variance.KAIMING_FORWARD, chain)
    for a, k in zip(asv.rows, kaiming.rows):
        assert a.sigma_w ** 2 == pytest.approx(k.sigma_w ** 2, abs=1e-12)


def test_backward_reduction_is_exact_only_without_borders():
    """The backward equivalence assumes every input unit sees the full
    backward kernel; on finite maps the adaptive value exceeds 2/fan_out by
    exactly the input/output area ratio."""
    chain = padding_free_chain()
    geo = asvinit.infer_shapes(chain)
    asv = variance.init_plan(variance.ASV_BACKWARD, chain, clamp_factor=None)
    kaiming = variance.init_plan(variance.KAIMING_BACKWARD, chain)
    for i in range(3):
        g = geo[i]
        area_ratio = (g.in_shape[0] * g.in_shape[1]) / (g.conv_shape[0] * g.conv_shape[1])
        assert asv.rows[i].sigma_w ** 2 == pytest.approx(
            kaiming.rows[i].sigma_w ** 2 * area_ratio, rel=1e-12
        )
    # full padding (k-1) gives every input unit the complete backward kernel,
    # making the equality exact
    full = asvinit.Architecture(
        name="full", input_shape=(10, 10, 4),
        layers=(
            asvinit.LayerSpec(kind="Conv", out_channels=8, kernel=(3, 3),
                              padding=(2, 2)),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=10,
                              activation="Identity"),
        ),
    )
    asv_full = variance.init_plan(variance.ASV_BACKWARD, full,
                                  clamp_factor=None)
    assert asv_full.rows[0].sigma_w ** 2 == pytest.approx(2.0 / (9 * 8), abs=1e-12)


def test_kaiming_formulas():
    toy = asvinit.toy_net()
    geo = asvinit.infer_shapes(toy)
    kf = variance.init_plan(variance.KAIMING_FORWARD, toy)
    kb = variance.init_plan(variance.KAIMING_BACKWARD, toy)
    xa = variance.init_plan(variance.XAVIER, toy)
    for i, g in enumerate(geo):
        assert kf.rows[i].sigma_w ** 2 == pytest.approx(2.0 / g.s_len, rel=1e-15)
        assert kb.rows[i].sigma_w ** 2 == pytest.approx(2.0 / g.j_len, rel=1e-15)
        assert xa.rows[i].sigma_w ** 2 == pytest.approx(
            2.0 / (g.s_len + g.j_len), rel=1e-15
        )


def test_clamp_engages_on_large_t_average_pool():
    toy = asvinit.toy_net()
    clamped = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=3.0)
    raw = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=None)
    # 2x2 average pool (gamma = 1/32) and GAP (gamma = 1/512) exceed 3x the
    # plain-ReLU value; the max pool (gamma = 15/64) and the head do not
    assert [r.clamped for r in clamped.rows] == [False, True, True, False]
    for rc, rr in zip(clamped.rows, raw.rows):
        if rc.clamped:
            expected = 3.0 * rr.shape.m_prev / (0.5 * rr.shape.epsilon)
            assert rc.sigma_w ** 2 == pytest.approx(expected, rel=1e-12)
            assert rc.sigma_w < rr.sigma_w
        else:
            assert rc.sigma_w == rr.sigma_w


def test_clamp_deviation_is_exactly_the_clamp_ratio():
    toy = asvinit.toy_net()
    geo = asvinit.infer_shapes(toy)
    plan = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=3.0)
    r = variance.predict_backward(geo, plan.sigma_w)
    for i, row in enumerate(plan.rows):
        g = variance.layer_constants(geo[i]).gamma
        if row.clamped:
            # r drops below its level above by the clamp ratio 3*(2 gamma)
            expected_ratio = 3.0 * 2.0 * g
            assert r[i] / r[i + 1] == pytest.approx(expected_ratio, rel=1e-12)
        else:
            assert r[i] == pytest.approx(r[i + 1], rel=1e-12)


def test_clamp_stddev_mode():
    """A std-dev cap of F is the variance cap F**2: factor 9 caps sigma at
    3x its no-pool value, and its variance is 3x the factor-3 one."""
    toy = asvinit.toy_net()
    f3 = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=3.0)
    f9 = variance.init_plan(variance.ASV_BACKWARD, toy, clamp_factor=9.0)
    i = 1  # clamped layer
    g = toy.geo[i]
    assert f3.rows[i].clamped and f9.rows[i].clamped
    assert f9.rows[i].sigma_w == pytest.approx(
        3.0 * math.sqrt(g.m_prev / (0.5 * g.epsilon)), rel=1e-12
    )
    assert f9.rows[i].sigma_w ** 2 == pytest.approx(
        3.0 * f3.rows[i].sigma_w ** 2, rel=1e-12
    )


def test_sigma_b_zero_everywhere():
    toy = asvinit.toy_net()
    for m in variance.METHODS:
        plan = variance.init_plan(m, toy)
        _, _, rows, _ = plan.table()
        assert all(r["sigma_b"] == 0.0 for r in rows)
        assert all(r.sigma_w > 0 and math.isfinite(r.sigma_w) for r in plan.rows)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        variance.init_plan("lecun", asvinit.toy_net())


@pytest.mark.parametrize("sigmas", [
    [1.0, 2.0], [0.5] * 5, [0.5, math.nan, 0.5, 0.5], [0.5, 0.5, math.inf, 0.5],
    [-math.inf, 0.5, 0.5, 0.5], [0.5, 0.5, 0.5, -0.1], 0.5, np.float64(0.5), np.array(0.5),
    np.full((4, 1), 0.5), [0.5, "x", 0.5, 0.5], [0.5, None, 0.5, 0.5], [0.5, object(), 0.5, 0.5],
    "0.51",
], ids=["short", "long", "nan", "inf", "-inf", "negative", "scalar", "np-scalar", "0-d",
        "column", "text", "none", "object", "string"])
def test_plan_from_sigmas_refuses_what_is_not_one_number_per_layer(sigmas):
    with pytest.raises(ValueError):
        variance.plan_from_sigmas(asvinit.toy_net(), sigmas)


def test_plan_from_sigmas_reads_a_list_and_an_array_alike():
    toy = asvinit.toy_net()
    sigmas = [0.3, 0.0, 1e-3, 2.5]
    from_list = variance.plan_from_sigmas(toy, sigmas)
    from_array = variance.plan_from_sigmas(toy, np.array(sigmas))
    assert from_list == from_array
    assert from_list.sigma_w == sigmas
    for a, b in zip(from_list.rows, from_array.rows):
        assert [type(x) for x in (a.sigma_w, a.q_pred, a.r_pred)] == [float] * 3
        assert (a.sigma_w.hex(), a.q_pred.hex(), a.r_pred.hex()) == (
            b.sigma_w.hex(), b.q_pred.hex(), b.r_pred.hex())


QUADRATURE = {"_erfc", "_ndtr", "_gauss_legendre", "_panel_nodes", "_tau_max_integral"}


def test_numpy_is_imported_only_by_the_max_pool_quadrature():
    """Every numpy import in variance.py sits inside a function of the
    max-pool quadrature, so plans, levels and overrides stay numpy-free."""
    tree = ast.parse(Path(variance.__file__).read_text(encoding="utf-8"))
    owners = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                owners.add(getattr(top, "name", "<module level>"))
    assert owners <= QUADRATURE, sorted(owners - QUADRATURE)


def test_plan_csv_has_required_columns():
    plan = variance.init_plan(variance.ASV_BACKWARD, asvinit.toy_net())
    header = cli.render(plan.table(), "csv").splitlines()[0]
    for col in ("layer", "method", "sigma_w", "sigma_b", "tau", "gamma",
                "epsilon", "M", "M_prime", "q_pred", "r_pred", "clamped"):
        assert col in header.split(",")


def test_init_plan_computes_each_layers_constants_once(monkeypatch):
    """One layer_constants call per layer per plan on arch50, and the
    plan's levels are exactly the public recursions' levels."""
    arch50 = asvinit.builtin("arch50")
    geo = asvinit.infer_shapes(arch50)
    calls = []
    layer_constants = variance.layer_constants
    monkeypatch.setattr(variance, "layer_constants",
                        lambda g: calls.append(g) or layer_constants(g))
    for method in variance.METHODS:
        calls.clear()
        plan = variance.init_plan(method, arch50)
        assert len(calls) == len(geo)
        q = variance.predict_forward(geo, plan.sigma_w)
        r = variance.predict_backward(geo, plan.sigma_w)
        assert [row.q_pred for row in plan.rows] == list(q[1:])
        assert [row.r_pred for row in plan.rows] == list(r[:-1])


# (clamp_factor, tau0): the CLI defaults, then others that move asv-forward
# and engage the clamp on every pooled layer (1.0) or on every layer (0.25),
# and one that disables it
PLAN_OPTIONS = [(3.0, 1.0), (1.0, 0.5), (0.25, 2.0), (None, 1.0)]


def table_bits_and_plan_bits(a, clamp_factor, tau0):
    """The five-method table's sigma_w cells and init_plan's, as hex."""
    args = argparse.Namespace(clamp_factor=clamp_factor, tau0=tau0)
    _, _, rows, _ = cli._method_table(a, args)
    table = [[row["sigma_w"][m].hex() for m in variance.METHODS] for row in rows]
    plans = [variance.init_plan(m, a, clamp_factor=clamp_factor, tau0=tau0)
             for m in variance.METHODS]
    return table, [[p.rows[i].sigma_w.hex() for p in plans] for i in range(a.num_layers)]


@settings(max_examples=80, deadline=None)
@given(a=small_chains(), options=st.sampled_from(PLAN_OPTIONS))
def test_method_table_is_the_plans_sigmas_on_small_chains(a, options):
    table, plans = table_bits_and_plan_bits(a, *options)
    assert table == plans


@pytest.mark.parametrize("options", PLAN_OPTIONS)
@pytest.mark.parametrize("name", ["arch34", "arch50"])
def test_method_table_is_the_plans_sigmas_on_builtins(name, options):
    table, plans = table_bits_and_plan_bits(asvinit.builtin(name), *options)
    assert table == plans


def numpy_plan_bits(a, method, clamp_factor, tau0):
    """sigma_w, q_pred and r_pred of one plan as hex, computed the numpy
    way: the variances' square roots by np.sqrt over an array, the levels
    collected in np.array and read back per layer."""
    consts = [variance.layer_constants(g) for g in a.geo]
    taus = [tau0] + [c.tau for c in consts[:-1]]
    variances = []
    for g, c, t in zip(a.geo, consts, taus):
        if method == variance.ASV_FORWARD:
            var = g.m_prime / (t * g.epsilon)
        elif method == variance.ASV_BACKWARD:
            var = g.m_prev / (c.gamma * g.epsilon)
            if clamp_factor is not None:
                var = min(var, clamp_factor * (g.m_prev / (0.5 * g.epsilon)))
        elif method == variance.KAIMING_FORWARD:
            var = 2.0 / g.s_len
        elif method == variance.KAIMING_BACKWARD:
            var = 2.0 / g.j_len
        else:
            var = 2.0 / (g.s_len + g.j_len)
        variances.append(var)
    sigma = np.sqrt(variances)
    q = [1.0]
    for g, s, t in zip(a.geo, sigma, taus):
        q.append(float(s) ** 2 * q[-1] * t * g.epsilon / g.m_prime)
    r = [1.0]
    for g, s, c in zip(reversed(a.geo), sigma[::-1], consts[::-1]):
        r.insert(0, float(s) ** 2 * r[0] * c.gamma * g.epsilon / g.m_prev)
    q, r = np.array(q), np.array(r)
    return [(float(sigma[i]).hex(), float(q[i + 1]).hex(), float(r[i]).hex())
            for i in range(a.num_layers)]


def assert_plans_have_numpys_bits(a, clamp_factor, tau0):
    """Every method's plan rows and method_sigmas column carry the numpy
    computation's bits."""
    table = variance.method_sigmas(a, clamp_factor=clamp_factor, tau0=tau0)
    for m in variance.METHODS:
        want = numpy_plan_bits(a, m, clamp_factor, tau0)
        plan = variance.init_plan(m, a, clamp_factor=clamp_factor, tau0=tau0)
        got = [(r.sigma_w.hex(), r.q_pred.hex(), r.r_pred.hex()) for r in plan.rows]
        assert got == want, m
        assert [s.hex() for s in table[m]] == [w[0] for w in want], m


@settings(max_examples=80, deadline=None)
@given(a=small_chains(), options=st.sampled_from(PLAN_OPTIONS))
def test_plans_carry_numpys_bits_on_small_chains(a, options):
    assert_plans_have_numpys_bits(a, *options)


@pytest.mark.parametrize("options", PLAN_OPTIONS)
@pytest.mark.parametrize("name", ["toy", "arch34", "arch50"])
def test_plans_carry_numpys_bits_on_builtins(name, options):
    a = asvinit.toy_net() if name == "toy" else asvinit.builtin(name)
    assert_plans_have_numpys_bits(a, *options)


@pytest.mark.parametrize("tau0, side", [(1e-13, 6), (1.0, 1000), (1e-13, 1000)])
def test_method_table_floor_error_is_init_plans(tau0, side):
    """A chain under the tau floor (asv-forward) or the gamma floor
    (asv-backward, a global average over a 1000x1000 map, T = 10**6) fails
    the table with the error init_plan gives first in METHODS order."""
    if side == 1000:
        pool = asvinit.Pool(kind="GlobalAverage")
    else:
        pool = asvinit.Pool(kind="Average", size=(2, 2))
    a = small_net((side, side, 2), [(3, 3, 1, 1, None), (4, 3, 1, 1, pool)])
    assert a.geo[1].t == (10**6 if side == 1000 else 4)
    errors = []
    for m in variance.METHODS:
        try:
            variance.init_plan(m, a, tau0=tau0)
        except AsvinitError as exc:
            errors.append(str(exc))
    assert errors
    with pytest.raises(AsvinitError) as table_error:
        cli._method_table(a, argparse.Namespace(clamp_factor=3.0, tau0=tau0))
    assert str(table_error.value) == errors[0]
