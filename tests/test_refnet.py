import numpy as np
import pytest
from hypothesis import given, strategies as st

import asvinit
from asvinit import refnet, shapes, variance
from asvinit.errors import MissingForwardTrace, ShapeMismatch
from conftest import OVERLAPPING_AVERAGE, OVERLAPPING_MAX, POOLS, small_chains, small_net


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


def test_identity_weight_1x1_conv_adds_bias():
    a = small_net((3, 3, 1), [(1, 1, 1, 0, None)])
    net = sampled(a)
    net.weights[0][:] = 1.0
    net.biases[0][:] = 0.25
    z0 = np.arange(9, dtype=float)
    trace = refnet.forward(net, z0)
    assert np.allclose(trace.u[0][:, 0], z0 + 0.25)


def test_all_negative_preactivations_give_zero_pool_output():
    a = small_net((4, 4, 1), [(2, 3, 1, 1, asvinit.Pool(kind="Max", size=(2, 2)))])
    net = sampled(a)
    net.weights[0][:] = 0.0
    net.biases[0][:] = -1.0
    trace = refnet.forward(net, np.random.default_rng(0).normal(size=16))
    assert np.all(trace.z[1] == 0.0)


# ---------------------------------------------------------------------------
# parameter sampling
# ---------------------------------------------------------------------------

def test_zero_sigma_gives_zero_weights():
    a = small_net((4, 4, 1), [(2, 3, 1, 1, None)])
    plan = variance.plan_from_sigmas(a, [0.0, 0.0])
    net = refnet.sample_parameters(a, plan, seed=5)
    assert all(np.all(w == 0.0) for w in net.weights)
    assert all(np.all(b == 0.0) for b in net.biases)


def test_sampling_deterministic_for_fixed_seed():
    a = asvinit.toy_net(4, 4, 4)
    plan = variance.init_plan(variance.ASV_FORWARD, a)
    n1 = refnet.sample_parameters(a, plan, seed=123)
    n2 = refnet.sample_parameters(a, plan, seed=123)
    for w1, w2 in zip(n1.weights, n2.weights):
        assert np.array_equal(w1, w2)


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
    """Re-indexed backward weights (C_tilde x J); a pure permutation of W."""
    w = net.weights[layer]
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


def test_bias_gradients_match_finite_differences():
    a = small_net((5, 5, 1), [(2, 3, 1, 0, None)], head=2)
    net = sampled(a, seed=3)
    for b in net.biases:
        b[:] = np.random.default_rng(1).normal(size=b.shape)
    z0 = np.random.default_rng(2).normal(size=25)
    trace = refnet.forward(net, z0)
    refnet.backward(net, trace, param_grads=True)
    h = 1e-5
    for li, b in enumerate(net.biases):
        for i in range(b.size):
            orig = b[i]
            b[i] = orig + h
            ep = refnet.loss_half_square(net, z0)
            b[i] = orig - h
            em = refnet.loss_half_square(net, z0)
            b[i] = orig
            fd = (ep - em) / (2 * h)
            assert trace.d_biases[li][i] == pytest.approx(fd, rel=1e-5, abs=1e-8)


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
    empty = refnet.SignalTrace(z0=np.zeros((16, 1)))
    with pytest.raises(MissingForwardTrace):
        refnet.backward(net, empty)
    with pytest.raises(ShapeMismatch):
        refnet.forward(net, np.zeros(7))


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
# map building
# ---------------------------------------------------------------------------

def test_build_maps_infers_shapes_once(monkeypatch):
    calls = []
    infer = shapes.infer_shapes
    monkeypatch.setattr(shapes, "infer_shapes", lambda a: calls.append(a) or infer(a))
    refnet.build_maps(asvinit.toy_net())
    assert len(calls) == 1
