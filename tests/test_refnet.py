import dataclasses
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import asvinit
from asvinit import cli, refnet, shapes, variance
from asvinit.arch import serialize
from asvinit.errors import MissingForwardTrace, ShapeMismatch
from conftest import (
    OVERLAPPING_AVERAGE, OVERLAPPING_MAX, POOLS, dead_tap_chain, small_chains, small_net,
)


def sampled(a, seed=0, method=variance.KAIMING_FORWARD):
    plan = variance.init_plan(method, a, clamp_factor=None)
    return refnet.sample_parameters(a, plan, seed=seed)


# ---------------------------------------------------------------------------
# vectorized forward vs naive tensor loops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pool_idx", [0, 1, 2, 3])
def test_forward_matches_naive_oracle(padding, stride, pool_idx):
    rng = np.random.default_rng(10 * padding + stride + pool_idx)
    a = small_net(
        (8, 8, 3),
        [(4, 3, stride, padding, POOLS[pool_idx]),
         (2, 1, 1, 0, None)],
    )
    net = sampled(a, seed=pool_idx)
    z0 = rng.normal(size=8 * 8 * 3)
    trace = refnet.forward(net, z0)
    us, zs = refnet.naive_forward(net, z0)
    for i in range(len(us)):
        assert np.max(np.abs(trace.u[i][:, 0] - us[i])) < 1e-10
        assert np.max(np.abs(trace.z[i + 1][:, 0] - zs[i + 1])) < 1e-10


def test_forward_matches_naive_on_randomized_configs():
    rng = np.random.default_rng(77)
    for trial in range(12):
        k = int(rng.integers(1, 4))
        s = int(rng.integers(1, 3))
        p = int(rng.integers(0, k))
        d = int(rng.integers(1, 5))
        ch = int(rng.integers(1, 5))
        pool = POOLS[int(rng.integers(0, 4))]
        w = int(rng.integers(max(4, k), 9))
        a = small_net((w, w, d), [(ch, k, s, p, pool)])
        net = sampled(a, seed=trial)
        z0 = rng.normal(size=w * w * d)
        trace = refnet.forward(net, z0)
        us, zs = refnet.naive_forward(net, z0)
        for i in range(len(us)):
            assert np.max(np.abs(trace.u[i][:, 0] - us[i])) < 1e-10
            assert np.max(np.abs(trace.z[i + 1][:, 0] - zs[i + 1])) < 1e-10


def test_identity_weight_1x1_conv_returns_its_input():
    a = small_net((3, 3, 1), [(1, 1, 1, 0, None)])
    net = sampled(a)
    net.weights[0][:] = 1.0
    z0 = np.random.default_rng(0).normal(size=9)
    trace = refnet.forward(net, z0)
    assert np.array_equal(trace.u[0][:, 0].view(np.int64), z0.view(np.int64))


def test_all_negative_preactivations_give_zero_pool_output():
    a = small_net((4, 4, 1), [(2, 3, 1, 1, asvinit.Pool(kind="Max", size=(2, 2)))])
    net = sampled(a)
    net.weights[0][:] = -1.0
    trace = refnet.forward(net, np.random.default_rng(0).uniform(0.5, 1.5, size=16))
    assert np.all(trace.u[0] < 0.0)
    assert np.all(trace.z[1] == 0.0)


# ---------------------------------------------------------------------------
# parameter sampling
# ---------------------------------------------------------------------------

def test_zero_sigma_gives_zero_weights():
    a = small_net((4, 4, 1), [(2, 3, 1, 1, None)])
    plan = variance.plan_from_sigmas(a, [0.0, 0.0])
    net = refnet.sample_parameters(a, plan, seed=5)
    assert all(np.all(w == 0.0) for w in net.weights)


def test_sampling_deterministic_for_fixed_seed():
    a = asvinit.toy_net(4, 4, 4)
    plan = variance.init_plan(variance.ASV_FORWARD, a)
    n1 = refnet.sample_parameters(a, plan, seed=123)
    n2 = refnet.sample_parameters(a, plan, seed=123)
    for w1, w2 in zip(n1.weights, n2.weights):
        assert np.array_equal(w1, w2)


def test_sample_parameters_refuses_a_plan_of_other_shapes():
    """A plan carries its architecture's shapes; one of the same depth but
    another input is refused, not drawn with the wrong fan-ins."""
    toy = asvinit.toy_net()
    plan = variance.init_plan(variance.ASV_FORWARD, toy)
    wider = dataclasses.replace(toy, input_shape=(20, 20, 3))
    with pytest.raises(ValueError, match="does not fit"):
        refnet.sample_parameters(wider, plan, seed=0)
    assert refnet.sample_parameters(asvinit.toy_net(), plan, seed=0).geo == toy.geo


def test_sample_variance_tracks_sigma():
    a = asvinit.Architecture(
        name="wide", input_shape=(20, 20, 1),
        layers=(asvinit.LayerSpec(kind="FullyConnected", out_channels=300,
                                  activation="Identity"),),
    )
    plan = variance.plan_from_sigmas(a, [0.7])
    net = refnet.sample_parameters(a, plan, seed=9)
    draws = net.weights[0].ravel()
    assert draws.size == 120_000
    assert abs(np.var(draws) - 0.49) / 0.49 < 0.03


# ---------------------------------------------------------------------------
# backward duality: the paper's re-indexed backward product as an oracle
# ---------------------------------------------------------------------------

def backward_kernel(net, layer):
    """Re-indexed backward weights (C_tilde x J); a pure permutation of the
    dense W, zero at the kernel taps that never reach the input."""
    w = refnet.dense_weights(net, layer)
    spec = net.arch.layers[layer]
    if spec.kind == "FullyConnected":
        return w.T.copy()
    kw, kh = spec.kernel
    d = net.geo[layer].in_shape[2]
    dp = net.geo[layer].conv_shape[2]
    # rows flatten (kw, kh, d) first-axis-fastest == C-order (d, kh, kw)
    return (
        w.reshape(dp, d, kh, kw)
        .transpose(1, 0, 2, 3)
        .reshape(d, dp * kh * kw)
        .copy()
    )


def reindexed_backward(net, layer, du):
    """dz_i = <w_tilde[ctil(i), h(i)], du[j(i)]> over the explicit backward
    set of input unit i."""
    maps = shapes.build_backward_maps(net.arch, layer)
    w_tilde = backward_kernel(net, layer)
    rep_in = np.repeat(np.arange(maps.m_prev), np.diff(maps.bwd_indptr))
    terms = w_tilde[maps.ctil[rep_in], maps.bwd_h][:, None] * du[maps.bwd_j]
    dz = np.zeros((maps.m_prev, du.shape[1]))
    np.add.at(dz, rep_in, terms)
    return dz


def oracle_backward(net, trace, delta):
    """dz at every layer interface from the re-indexed products, with
    pooling routed window by window; shares no code with refnet.backward."""
    n = net.num_layers
    dz = [None] * (n + 1)
    dz[n] = du = delta
    for i in range(n - 1, -1, -1):
        dz[i] = reindexed_backward(net, i, du)
        if i == 0:
            break
        below, pool = i - 1, shapes.build_pool_maps(net.arch, i - 1)
        u = trace.u[below]
        if pool is None:
            dv = dz[i]
        else:
            dv = np.zeros_like(u)
            for k in range(pool.m):
                members = pool.members[pool.indptr[k]:pool.indptr[k + 1]]
                if pool.kind == "Max":
                    # the first member attaining the window max wins
                    winner = members[np.argmax(np.maximum(u[members], 0.0), axis=0)]
                    dv[winner, np.arange(u.shape[1])] += dz[i][k]
                else:
                    dv[members] += dz[i][k] / pool.t_nominal
        du = dv * (u >= 0.0) if net.arch.layers[below].activation == "ReLU" else dv
    return dz


def assert_close(actual, expected, rtol):
    """Elementwise agreement to rtol relative to the signal's scale."""
    scale = float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


def test_backward_kernel_is_pure_reindexing():
    a = small_net((5, 5, 2), [(3, 3, 1, 1, None)])
    net = sampled(a, seed=4)
    before = backward_kernel(net, 0)
    delta = 0.731
    net.weights[0][1, 7] += delta
    after = backward_kernel(net, 0)
    diff = after - before
    changed = np.argwhere(diff != 0.0)
    assert len(changed) == 1
    assert diff[tuple(changed[0])] == pytest.approx(delta, rel=1e-15)
    # a = xi1 + kw*(xi2 + kh*xi3) = 7 -> (1, 2, 0); row c=1 -> h row xi3=0,
    # h index = xi1 + kw*(xi2 + kh*c)
    assert tuple(changed[0]) == (0, 1 + 3 * (2 + 3 * 1))


def test_fc_backward_kernel_is_transpose():
    a = asvinit.Architecture(
        name="fc", input_shape=(4, 1, 1),
        layers=(asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                                  activation="Identity"),),
    )
    net = sampled(a)
    assert np.array_equal(backward_kernel(net, 0), net.weights[0].T)


@pytest.mark.parametrize("in_shape, layers", [
    ((16, 16, 2), [(4, 3, 1, 1, POOLS[1]), (3, 3, 2, 1, POOLS[2]), (2, 1, 1, 0, POOLS[3])]),
    ((11, 11, 3), [(3, 3, 2, 0, OVERLAPPING_AVERAGE), (4, 2, 1, 1, OVERLAPPING_MAX)]),
    ((7, 7, 1), [(2, 3, 1, 2, None), (3, 2, 2, 1, POOLS[3])]),
], ids=["padded-strided-every-pool", "overlapping-windows", "wide-padding"])
def test_backward_is_the_reindexed_backward_product(in_shape, layers):
    net = sampled(small_net(in_shape, layers), seed=40)
    rng = np.random.default_rng(50)
    trace = refnet.forward(net, rng.normal(size=(net.geo[0].m_prev, 3)))
    delta = rng.normal(size=(net.geo[-1].m_prime, 3))
    refnet.backward(net, trace, delta_uL=delta)
    expected = oracle_backward(net, trace, delta)
    for i in range(net.num_layers):
        assert np.abs(trace.dz[i]).max() > 0.0
        assert_close(trace.dz[i], expected[i], rtol=1e-12)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def finite_difference_weight_grads(net, z0, h=1e-5):
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            ep = refnet.loss_half_square(net, z0)
            w[idx] = orig - h
            em = refnet.loss_half_square(net, z0)
            w[idx] = orig
            g[idx] = (ep - em) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def test_gradients_match_finite_differences_everywhere():
    a = small_net(
        (6, 6, 2),
        [(3, 3, 1, 1, asvinit.Pool(kind="Max", size=(2, 2))),
         (2, 2, 1, 0, asvinit.Pool(kind="Average", size=(2, 2)))],
        head=3,
    )
    net = sampled(a, seed=8)
    z0 = np.random.default_rng(21).normal(size=6 * 6 * 2)
    trace = refnet.forward(net, z0)
    assert np.abs(trace.u[-1]).max() > 0.1  # vacuous if the net died
    refnet.backward(net, trace, param_grads=True)
    fd = finite_difference_weight_grads(net, z0)
    for layer, (analytic, numeric) in enumerate(zip(trace.d_weights, fd)):
        scale = np.maximum(np.abs(numeric), 1e-6)
        rel = np.abs(analytic[:, :] - numeric) / scale
        assert np.max(rel) < 1e-5, f"layer {layer + 1} max rel {np.max(rel)}"
    # input gradient against finite differences
    g_in = np.zeros_like(z0)
    h = 1e-5
    for i in range(z0.size):
        zp = z0.copy(); zp[i] += h
        zm = z0.copy(); zm[i] -= h
        g_in[i] = (refnet.loss_half_square(net, zp) - refnet.loss_half_square(net, zm)) / (2 * h)
    rel = np.abs(trace.dz[0][:, 0] - g_in) / np.maximum(np.abs(g_in), 1e-6)
    assert np.max(rel) < 1e-5


def test_average_pool_backward_spreads_one_over_t():
    pool = asvinit.Pool(kind="Average", size=(2, 2))
    a = small_net((4, 4, 1), [(1, 1, 1, 0, pool)], head=2)
    net = sampled(a, seed=6)
    trace = refnet.forward(net, np.random.default_rng(3).normal(size=16))
    refnet.backward(net, trace)
    dz1 = trace.dz[1]
    dv1 = trace.dv[0]
    pm = shapes.build_pool_maps(net.arch, 0)
    rep = np.repeat(np.arange(pm.m), np.diff(pm.indptr))
    expected = np.zeros_like(dv1)
    expected[pm.members, :] = dz1[rep, :] / 4.0
    assert np.allclose(dv1, expected)


def test_max_pool_backward_hits_exactly_one_unit_per_window():
    pool = asvinit.Pool(kind="Max", size=(2, 2))
    a = small_net((8, 8, 2), [(3, 3, 1, 1, pool)], head=2)
    net = sampled(a, seed=12)
    trace = refnet.forward(net, np.random.default_rng(5).normal(size=(128, 16)))
    refnet.backward(net, trace)
    dv = trace.dv[0]
    pm = shapes.build_pool_maps(net.arch, 0)
    nonzero_per_window = np.add.reduceat((dv[pm.members, :] != 0.0), pm.indptr[:-1], axis=0)
    assert np.all(nonzero_per_window == 1)


def test_max_pool_ties_go_to_the_first_window_member():
    """A window of equal values routes its gradient to its lowest member."""
    pool = asvinit.Pool(kind="Max", size=(2, 2))
    a = small_net((6, 6, 1), [(2, 3, 1, 1, pool)], head=3)
    net = sampled(a, seed=14)
    net.weights[0][:] = 0.0   # every window of layer 1 ties at 0
    rng = np.random.default_rng(15)
    trace = refnet.forward(net, rng.normal(size=(36, 2)))
    refnet.backward(net, trace, delta_uL=rng.normal(size=(3, 2)))
    pm = shapes.build_pool_maps(a, 0)
    first = pm.members[pm.indptr[:-1]]
    expected = np.zeros_like(trace.dv[0])
    expected[first] = trace.dz[1]
    assert np.abs(trace.dz[1]).min() > 0.0
    assert np.array_equal(trace.dv[0], expected)


def test_max_pool_ties_have_zero_empirical_frequency():
    """The continuous pre-activations never tie within a window; the only
    ties the tie-break path sees are the zero atoms ReLU creates, which the
    mask zeroes out downstream anyway."""
    pool = asvinit.Pool(kind="Max", size=(2, 2))
    a = small_net((8, 8, 1), [(4, 3, 1, 1, pool)], head=2)
    net = sampled(a, seed=13)
    z0 = np.random.default_rng(17).normal(size=(64, 200))  # 64 windows x 200 cols
    trace = refnet.forward(net, z0)
    pm = shapes.build_pool_maps(net.arch, 0)
    gathered = trace.u[0][pm.members, :]
    rep = np.repeat(np.arange(pm.m), np.diff(pm.indptr))
    window_max = np.maximum.reduceat(gathered, pm.indptr[:-1], axis=0)
    hits = np.add.reduceat(gathered == window_max[rep, :], pm.indptr[:-1], axis=0)
    assert hits.size > 10_000
    assert np.all(hits == 1)


def test_injected_gradient_mode_and_errors():
    a = small_net((4, 4, 1), [(2, 3, 1, 1, None)], head=3)
    net = sampled(a, seed=2)
    trace = refnet.forward(net, np.zeros(16))
    delta = np.ones(3)
    refnet.backward(net, trace, delta_uL=delta)
    assert np.array_equal(trace.dz[len(net.geo)][:, 0], delta)
    with pytest.raises(ShapeMismatch):
        refnet.backward(net, trace, delta_uL=np.ones(5))
    empty = refnet.SignalTrace(z=[np.zeros((16, 1))])
    with pytest.raises(MissingForwardTrace):
        refnet.backward(net, empty)
    with pytest.raises(ShapeMismatch):
        refnet.forward(net, np.zeros(7))


def test_empty_batch_is_a_shape_mismatch():
    """A batch of zero columns is refused before any array is made."""
    a = small_net((4, 4, 1), [(2, 3, 1, 1, None)], head=3)
    net = sampled(a, seed=2)
    with pytest.raises(ShapeMismatch, match="no columns"):
        refnet.forward(net, np.zeros((16, 0)))
    with pytest.raises(ShapeMismatch, match="no columns"):
        refnet.signal_moments(net, np.zeros((16, 0)))
    with pytest.raises(ShapeMismatch, match="no columns"):
        refnet.signal_moments(net, np.zeros((16, 0)), np.zeros((3, 0)))


def test_forward_batch_columns_independent():
    a = asvinit.toy_net(3, 3, 4)
    net = sampled(a, seed=19)
    rng = np.random.default_rng(23)
    z = rng.normal(size=(16 * 16 * 3, 5))
    full = refnet.forward(net, z)
    for col in range(5):
        single = refnet.forward(net, z[:, col])
        for i in range(4):
            assert np.array_equal(full.u[i][:, col], single.u[i][:, 0])


def test_backward_batch_columns_independent():
    a = small_net((8, 8, 2), [(4, 3, 1, 1, POOLS[1]), (3, 3, 1, 1, POOLS[2])])
    net = sampled(a, seed=29)
    rng = np.random.default_rng(31)
    z = rng.normal(size=(8 * 8 * 2, 5))
    delta = rng.normal(size=(3, 5))
    full = refnet.backward(net, refnet.forward(net, z), delta_uL=delta)
    for col in range(5):
        single = refnet.backward(
            net, refnet.forward(net, z[:, col]), delta_uL=delta[:, col]
        )
        for i in range(net.num_layers):
            assert np.array_equal(full.du[i][:, col], single.du[i][:, 0])
            assert np.array_equal(full.dz[i][:, col], single.dz[i][:, 0])


# ---------------------------------------------------------------------------
# property test: random small chains against both oracles
# ---------------------------------------------------------------------------

@given(a=small_chains(), seed=st.integers(0, 2**16))
def test_engine_matches_oracles_on_random_chains(a, seed):
    net = sampled(a, seed=seed)
    rng = np.random.default_rng(seed)
    z0 = rng.normal(size=(net.geo[0].m_prev, 2))
    trace = refnet.forward(net, z0)
    for col in range(2):
        us, zs = refnet.naive_forward(net, z0[:, col])
        for i in range(net.num_layers):
            assert_close(trace.u[i][:, col], us[i], rtol=1e-10)
            assert_close(trace.z[i + 1][:, col], zs[i + 1], rtol=1e-10)
    delta = rng.normal(size=(net.geo[-1].m_prime, 2))
    refnet.backward(net, trace, delta_uL=delta)
    expected = oracle_backward(net, trace, delta)
    for i in range(net.num_layers):
        assert_close(trace.dz[i], expected[i], rtol=1e-12)


def test_columns_past_one_chunk_are_independent():
    """Images beyond the first im2col chunk give the same bits as alone."""
    net = sampled(asvinit.toy_net(3, 3, 4), seed=37)
    rng = np.random.default_rng(41)
    cols = refnet.CHUNK + 3
    z = rng.normal(size=(net.geo[0].m_prev, cols))
    delta = rng.normal(size=(net.geo[-1].m_prime, cols))
    full = refnet.backward(net, refnet.forward(net, z), delta_uL=delta)
    for col in (0, refnet.CHUNK, cols - 1):
        single = refnet.backward(
            net, refnet.forward(net, z[:, col]), delta_uL=delta[:, col]
        )
        for i in range(net.num_layers):
            assert np.array_equal(full.u[i][:, col], single.u[i][:, 0])
            assert np.array_equal(full.dz[i][:, col], single.dz[i][:, 0])


@given(a=small_chains(), seed=st.integers(0, 2**16))
def test_batch_columns_independent_on_random_chains(a, seed):
    """Each column of a 4-column run is bit-identical to a one-column run:
    every pool kind, stride and padding, and the FC head's N = 1 products."""
    net = sampled(a, seed=seed)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(net.geo[0].m_prev, 4))
    delta = rng.normal(size=(net.geo[-1].m_prime, 4))
    full = refnet.backward(net, refnet.forward(net, z), delta_uL=delta)
    for col in range(4):
        single = refnet.backward(
            net, refnet.forward(net, z[:, col]), delta_uL=delta[:, col]
        )
        for i in range(net.num_layers):
            assert np.array_equal(full.u[i][:, col], single.u[i][:, 0])
            assert np.array_equal(full.z[i + 1][:, col], single.z[i + 1][:, 0])
            assert np.array_equal(full.du[i][:, col], single.du[i][:, 0])
            assert np.array_equal(full.dz[i][:, col], single.dz[i][:, 0])


# ---------------------------------------------------------------------------
# the chunk pipeline: results do not depend on how many threads run it
# ---------------------------------------------------------------------------

TRACE_FIELDS = ("u", "z", "winners", "du", "dv", "dz", "d_weights")


def with_cpus(monkeypatch, n):
    """Run the engine as if the process could use n CPUs."""
    monkeypatch.setattr(refnet, "_cpus", lambda: n)


def full_trace(net, cols, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(net.geo[0].m_prev, cols))
    delta = rng.normal(size=(net.geo[-1].m_prime, cols))
    return refnet.backward(net, refnet.forward(net, z), delta_uL=delta, param_grads=True)


def assert_same_traces(a, b):
    for name in TRACE_FIELDS:
        for x, y in zip(getattr(a, name), getattr(b, name), strict=True):
            assert (x is None and y is None) or np.array_equal(x, y), name


@pytest.mark.parametrize("name, chunk, cols", [
    ("toy", refnet.CHUNK, 3 * refnet.CHUNK + 5),
    # stride-2 convs, the padded overlapping 3x3 Max pool and GlobalAverage;
    # chunks of 2 images keep the deep net's weight gradients cheap
    ("arch34-32", 2, 2 * 2 + 1),
])
def test_traces_do_not_depend_on_the_worker_count(monkeypatch, name, chunk, cols):
    if name == "toy":
        a = asvinit.toy_net()
    else:
        a = dataclasses.replace(asvinit.builtin("arch34"), input_shape=(32, 32, 3))
    monkeypatch.setattr(refnet, "CHUNK", chunk)
    net = sampled(a, seed=43)
    traces = []
    for cpus in (1, 3):
        with_cpus(monkeypatch, cpus)
        traces.append(full_trace(net, cols, seed=47))
    assert_same_traces(*traces)


def test_weight_gradients_add_the_chunks_in_chunk_order(monkeypatch):
    """Two runs in a row give the same dW, whichever thread finished first:
    the sum, from zeros, of each chunk's dW run alone, in chunk order."""
    with_cpus(monkeypatch, 3)
    net = sampled(asvinit.toy_net(), seed=53)
    cols = 4 * refnet.CHUNK
    first, second = (full_trace(net, cols, seed=59) for _ in range(2))
    rng = np.random.default_rng(59)
    z = rng.normal(size=(net.geo[0].m_prev, cols))
    delta = rng.normal(size=(net.geo[-1].m_prime, cols))
    expected = [np.zeros_like(w) for w in first.d_weights]
    for b0, b1 in refnet._chunks(cols):
        alone = refnet.backward(net, refnet.forward(net, z[:, b0:b1]),
                                delta_uL=delta[:, b0:b1], param_grads=True)
        for dw, part in zip(expected, alone.d_weights):
            dw += part
    for x, y, dw in zip(first.d_weights, second.d_weights, expected, strict=True):
        assert np.array_equal(x, y)
        assert np.array_equal(x, dw)


def test_weight_gradients_form_no_per_image_stack():
    """A chunk's dW is added up image by image: backward(param_grads=True)
    on a wide layer at a 2x2 map peaks below the (n, C, k) stack of the
    chunk's per-image products."""
    net = sampled(small_net((2, 2, 64), [(128, 3, 1, 1, None)]), seed=79)
    z = np.random.default_rng(83).normal(size=(net.geo[0].m_prev, refnet.CHUNK))
    trace = refnet.forward(net, z)
    low = net.lowerings[0]
    stack = 8 * refnet.CHUNK * low.out[0] * low.k
    tracemalloc.start()
    try:
        refnet.backward(net, trace, param_grads=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack


def test_weight_gradients_keep_one_chunk_partial_at_a_time(monkeypatch):
    """Over 4 chunks, dW costs about one copy of the net's weights (the
    sums themselves), not one more copy per chunk: the peak with
    param_grads exceeds the peak without by less than 1.5x the weights."""
    a = dataclasses.replace(asvinit.builtin("arch34"), input_shape=(16, 16, 3))
    monkeypatch.setattr(refnet, "CHUNK", 2)
    net = sampled(a, seed=89)
    z = np.random.default_rng(97).normal(size=(net.geo[0].m_prev, 4 * refnet.CHUNK))
    peaks = []
    for param_grads in (False, True):
        trace = refnet.forward(net, z)
        tracemalloc.start()
        try:
            refnet.backward(net, trace, param_grads=param_grads)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del trace
    weights = sum(w.nbytes for w in net.weights)
    assert peaks[1] - peaks[0] < 1.5 * weights


def refuse_thread_starts(monkeypatch):
    def start(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", start)


def test_one_chunk_starts_no_thread(monkeypatch):
    with_cpus(monkeypatch, 4)
    net = sampled(asvinit.toy_net(), seed=61)
    refuse_thread_starts(monkeypatch)
    full_trace(net, refnet.CHUNK, seed=67)


def test_a_helper_that_cannot_start_leaves_its_chunks_to_the_caller(monkeypatch):
    """A thread start refused (as under an address-space cap) is no error:
    the calling thread runs every chunk, to the same bits."""
    net = sampled(asvinit.toy_net(), seed=71)
    with_cpus(monkeypatch, 1)
    alone = full_trace(net, 2 * refnet.CHUNK + 1, seed=73)
    with_cpus(monkeypatch, 3)
    refuse_thread_starts(monkeypatch)
    assert_same_traces(alone, full_trace(net, 2 * refnet.CHUNK + 1, seed=73))


def test_no_thread_outlives_a_call(monkeypatch):
    with_cpus(monkeypatch, 3)
    net = sampled(asvinit.toy_net(), seed=101)
    before = threading.active_count()
    full_trace(net, 3 * refnet.CHUNK + 5, seed=103)
    assert threading.active_count() == before


def test_concurrent_callers_get_the_serial_bits(monkeypatch):
    """Four threads running forward and backward on one net at once, each
    starting its own chunk threads, give the traces of a serial run."""
    with_cpus(monkeypatch, 3)
    net = sampled(asvinit.toy_net(), seed=107)
    cols = 3 * refnet.CHUNK + 5
    serial = [full_trace(net, cols, seed=109 + k) for k in range(4)]
    traces = [None] * 4

    def call(k):
        traces[k] = full_trace(net, cols, seed=109 + k)

    callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join()
    for alone, concurrent in zip(serial, traces, strict=True):
        assert_same_traces(alone, concurrent)


def test_every_chunk_runs_once_before_the_first_failure_is_raised(monkeypatch):
    """More threads than cores and a short switch interval: each chunk runs
    exactly once, failing ones included, and the caller gets the failure of
    the first failing chunk in chunk order."""
    with_cpus(monkeypatch, 8)
    n_img = 40 * refnet.CHUNK + 1
    ran = []

    def block(c, b0, b1):
        ran.append((c, b0, b1))
        if c in (5, 9):
            raise ValueError(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.raises(ValueError, match="^5$"):
            refnet._each_chunk(n_img, block)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == [(c, b0, b1) for c, (b0, b1) in enumerate(refnet._chunks(n_img))]


# ---------------------------------------------------------------------------
# signal_moments: per-layer sums of the streamed chunks
# ---------------------------------------------------------------------------

@given(a=small_chains(), seed=st.integers(0, 2**16), cols=st.sampled_from([37, 70]))
def test_signal_moments_are_the_trace_sums_chunk_by_chunk(a, seed, cols):
    """Each chunk's (sum x, sum x^2) of every u and of dz at interfaces
    1..L-1 is np.add.reduce over that chunk's slice of the public trace,
    to the bit, and signal_moments adds them in chunk order on one thread
    or two."""
    net = sampled(a, seed=seed)
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(net.geo[0].m_prev, cols))
    delta = rng.normal(size=(net.geo[-1].m_prime, cols))
    trace = refnet.backward(net, refnet.forward(net, z), delta_uL=delta)
    total = None
    for b0, b1 in refnet._chunks(cols):
        slices = [x[:, b0:b1] for x in (*trace.u, *trace.dz[1:-1])]
        sums = np.array([(np.add.reduce(x, axis=None), np.add.reduce(x * x, axis=None))
                         for x in slices])
        assert np.array_equal(refnet._chunk_moments(net, z, delta, b0, b1), sums)
        total = sums if total is None else total + sums
    n = net.num_layers
    for cpus in (1, 2):
        with mock.patch.object(refnet, "_cpus", lambda: cpus):
            u, dz = refnet.signal_moments(net, z, delta)
            u_only, none = refnet.signal_moments(net, z)
        assert np.array_equal(u, total[:n]) and np.array_equal(dz, total[n:])
        assert np.array_equal(u_only, total[:n]) and none is None


def test_the_stream_stops_at_interface_1(monkeypatch):
    """A streamed chunk runs conv^T for layers L..2 and never for layer 1,
    whose dz[0] no row reads; backward() still runs it and fills dz[0]."""
    net = sampled(asvinit.toy_net(3, 4, 4))
    ran = []
    conv_backward = refnet._conv_backward

    def spy(low, *args):
        ran.append(low)
        conv_backward(low, *args)

    monkeypatch.setattr(refnet, "_conv_backward", spy)
    rng = np.random.default_rng(4)
    z = rng.normal(size=(net.geo[0].m_prev, 5))
    delta = rng.normal(size=(net.geo[-1].m_prime, 5))
    refnet.signal_moments(net, z, delta)
    assert [id(low) for low in ran] == [id(low) for low in net.lowerings[:0:-1]]
    ran.clear()
    trace = refnet.backward(net, refnet.forward(net, z), delta_uL=delta)
    assert [id(low) for low in ran] == [id(low) for low in net.lowerings[::-1]]
    assert trace.dz[0].shape == z.shape and np.all(np.isfinite(trace.dz[0]))
    assert np.any(trace.dz[0] != 0.0)


def test_a_single_layer_chain_streams_no_backward_sums():
    net = sampled(small_net((4, 4, 2), [], head=16))
    rng = np.random.default_rng(2)
    z = rng.normal(size=(32, 40))
    u, dz = refnet.signal_moments(net, z, rng.normal(size=(16, 40)))
    assert u.shape == (1, 2) and dz.shape == (0, 2)
    assert np.array_equal(u, refnet.signal_moments(net, z)[0])


# ---------------------------------------------------------------------------
# live kernel taps: a net keeps only the weights that can reach the input
# ---------------------------------------------------------------------------

# per layer, the live rectangle's (rows, columns) within the full kernel
DEAD_TAP_WINDOWS = [
    (slice(0, 3), slice(0, 3)), (slice(2, 4), slice(2, 4)), (slice(1, 2), slice(1, 2)), None,
]


@pytest.mark.parametrize("pool", POOLS[1:3], ids=["max", "average"])
def test_dead_taps_are_dropped_and_change_nothing(pool, tmp_path):
    a = dead_tap_chain(pool)
    net = sampled(a, seed=44, method=variance.ASV_FORWARD)
    assert [w.shape for w in net.weights] == [(3, 18), (4, 12), (3, 4), (3, 3)]

    # the kept weights are the live columns of the full draw a weight file holds
    arch_file, weight_file = tmp_path / "a.json", tmp_path / "w.bin"
    arch_file.write_text(serialize(a))
    assert cli.main(["init", "--arch", str(arch_file), "--method", "asv-forward",
                     "--clamp-factor", "none", "--seed", "44", "--emit-weights", str(weight_file),
                     "--out", str(tmp_path / "plan.csv")]) == 0
    _, file_weights, _ = cli.read_weights(str(weight_file))
    for w, w_file, g, window in zip(net.weights, file_weights, net.geo, DEAD_TAP_WINDOWS):
        assert w_file.shape == (g.channels, g.s_len)
        if window is not None:
            k = a.layers[g.ell - 1].kernel[0]
            w_file = w_file.reshape(g.channels, g.in_shape[2], k, k)[:, :, window[0], window[1]]
        assert np.array_equal(w, w_file.reshape(w.shape))

    # forward against the naive loops, backward against the re-indexed product
    rng = np.random.default_rng(45)
    z0 = rng.normal(size=(net.geo[0].m_prev, 37))
    delta = rng.normal(size=(net.geo[-1].m_prime, 37))
    full = refnet.backward(net, refnet.forward(net, z0), delta_uL=delta)
    for col in (0, 36):
        us, zs = refnet.naive_forward(net, z0[:, col])
        for i in range(net.num_layers):
            assert_close(full.u[i][:, col], us[i], rtol=1e-10)
            assert_close(full.z[i + 1][:, col], zs[i + 1], rtol=1e-10)
    expected = oracle_backward(net, full, delta)
    for i in range(net.num_layers):
        assert np.abs(full.dz[i]).max() > 0.0
        assert_close(full.dz[i], expected[i], rtol=1e-12)

    # batch 1 and batch 37 give the same bits
    for col in (0, 17, 36):
        single = refnet.backward(
            net, refnet.forward(net, z0[:, col]), delta_uL=delta[:, col]
        )
        for i in range(net.num_layers):
            assert np.array_equal(full.u[i][:, col], single.u[i][:, 0])
            assert np.array_equal(full.z[i + 1][:, col], single.z[i + 1][:, 0])
            assert np.array_equal(full.dz[i][:, col], single.dz[i][:, 0])

    # the live-block gradients against finite differences, on the column
    # with the largest output
    z1 = z0[:, np.argmax(np.abs(full.u[-1]).max(axis=0))]
    trace = refnet.forward(net, z1)
    assert np.abs(trace.u[-1]).max() > 0.1  # vacuous if the net died
    refnet.backward(net, trace, param_grads=True)
    fd = finite_difference_weight_grads(net, z1)
    for layer, (analytic, numeric) in enumerate(zip(trace.d_weights, fd)):
        assert analytic.shape == net.weights[layer].shape
        scale = np.maximum(np.abs(numeric), 1e-6)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5, f"layer {layer + 1}"


def test_dense_weights_put_zeros_at_dead_taps():
    net = sampled(dead_tap_chain(POOLS[1]), seed=46)
    dense = refnet.dense_weights(net, 1).reshape(4, 3, 5, 5)
    rows, cols = DEAD_TAP_WINDOWS[1]
    assert np.array_equal(dense[:, :, rows, cols].reshape(4, -1), net.weights[1])
    dense[:, :, rows, cols] = 0.0
    assert not dense.any()
    assert refnet.dense_weights(net, 0) is net.weights[0]


@pytest.mark.parametrize("block", [1, 225, refnet.DRAW_BLOCK])
def test_draws_are_the_normal_stream_in_blocks(monkeypatch, block):
    """The live weights carry the bits of rng.normal(0.0, sigma, (C, S)),
    drawn layer by layer from one stream: layer 2 (4 rows of 75) is drawn
    in 4 blocks of 1 row, in blocks of 3 rows and 1 row, or in one block,
    and layer 3, a dead-tap layer of zero std dev, draws nothing."""
    monkeypatch.setattr(refnet, "DRAW_BLOCK", block)
    a = dead_tap_chain(POOLS[1])
    plan = variance.plan_from_sigmas(a, [0.7, 1.3, 0.0, 0.5])
    net = refnet.sample_parameters(a, plan, seed=49)
    rng = np.random.default_rng(49)
    for w, row, g, window in zip(net.weights, plan.rows, net.geo, DEAD_TAP_WINDOWS):
        shape = (g.channels, g.s_len)
        full = np.zeros(shape) if row.sigma_w == 0.0 else rng.normal(0.0, row.sigma_w, shape)
        if window is not None:
            k = a.layers[g.ell - 1].kernel[0]
            full = full.reshape(g.channels, g.in_shape[2], k, k)[:, :, window[0], window[1]]
        expected = np.ascontiguousarray(full).reshape(w.shape)
        assert np.array_equal(w.view(np.int64), expected.view(np.int64))
    assert not net.weights[2].any() and net.weights[1].all()


def test_sampling_holds_the_live_weights_and_one_draw_block():
    """arch34 at 16x16x3 keeps 27.7 MiB of live weights; sampling them
    peaks within 2 MiB of that, as it holds no layer's full (C, S) draw
    (18.9 MiB for the largest)."""
    a = dataclasses.replace(asvinit.builtin("arch34"), input_shape=(16, 16, 3))
    plan = variance.init_plan(variance.ASV_BACKWARD, a)
    tracemalloc.start()
    try:
        net = refnet.sample_parameters(a, plan, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    live = sum(w.nbytes for w in net.weights)
    assert live > 27 * 2**20
    assert peak < live + 2 * 2**20
    # the scratch is one block, and an all-live net needs none
    assert refnet._draw_scratch(net.lowerings) <= refnet.DRAW_BLOCK
    assert refnet._draw_scratch(sampled(asvinit.toy_net()).lowerings) == 0


@pytest.mark.parametrize("name, input_shape, kept", [
    ("toy", None, None),
    ("arch34", None, None),
    ("arch34", (16, 16, 3), 3_635_392),
])
def test_sampled_net_keeps_exactly_the_live_weights(name, input_shape, kept):
    """Every weight is kept where every tap is live (toy, the built-ins at
    224x224); at 16x16 arch34's 3x3 layers on 2x2 and 1x1 maps keep only
    the taps that reach the input."""
    a = asvinit.toy_net() if name == "toy" else asvinit.builtin(name)
    if input_shape is not None:
        a = dataclasses.replace(a, input_shape=input_shape)
    net = sampled(a, seed=1)
    if kept is None:
        kept = sum(g.channels * g.s_len for g in net.geo)
    assert sum(w.size for w in net.weights) == kept


def test_global_average_pool_matches_naive_pool():
    """A whole-map average sums in the naive loop's order: equal bits."""
    a = small_net((64, 64, 2), [(3, 1, 1, 0, POOLS[3])])
    net = sampled(a, seed=47)
    rng = np.random.default_rng(48)
    z0 = rng.normal(size=(net.geo[0].m_prev, 2))
    trace = refnet.forward(net, z0)
    g = net.geo[0]
    for col in range(2):
        v = refnet._to_tensor(np.maximum(trace.u[0][:, col], 0.0), g.conv_shape)
        z = refnet.naive_pool(v, g.pool_kind, g.pool_size, g.pool_stride, g.pool_padding)
        assert np.array_equal(trace.z[1][:, col], refnet._from_tensor(z))
    delta = rng.normal(size=(net.geo[-1].m_prime, 2))
    refnet.backward(net, trace, delta_uL=delta)
    expected = oracle_backward(net, trace, delta)
    assert_close(trace.dz[0], expected[0], rtol=1e-12)
    assert np.array_equal(trace.dv[0], np.repeat(trace.dz[1] / 4096, 4096, axis=0))


# ---------------------------------------------------------------------------
# map building
# ---------------------------------------------------------------------------

def test_build_maps_infers_shapes_once(monkeypatch):
    calls = []
    infer = shapes.infer_shapes
    monkeypatch.setattr(shapes, "infer_shapes", lambda a: calls.append(a) or infer(a))
    refnet.build_maps(asvinit.toy_net())
    assert len(calls) == 1
