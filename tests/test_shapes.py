import json
import time

import numpy as np
from hypothesis import assume, given, strategies as st

import asvinit
from asvinit import arch, cli, refnet, shapes


def conv_chain(in_shape, kernel, stride, padding, out_channels, pool=None):
    """One conv layer plus the mandatory head, for map-level tests."""
    return asvinit.Architecture(
        name="t", input_shape=in_shape,
        layers=(
            asvinit.LayerSpec(
                kind="Conv", out_channels=out_channels, kernel=kernel,
                stride=stride, padding=padding, pool=pool,
            ),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=2,
                              activation="Identity"),
        ),
    )


def brute_force_eps(in_shape, kernel, stride, padding, out_channels):
    """Slow oracle: walk every output spatial unit and kernel tap."""
    w, h, d = in_shape
    kw, kh = kernel
    sw, sh = stride
    pw, ph = padding
    wp = (w + 2 * pw - kw) // sw + 1
    hp = (h + 2 * ph - kh) // sh + 1
    total = 0
    for x in range(wp):
        for y in range(hp):
            for xi in range(kw):
                for eta in range(kh):
                    lx = x * sw - pw + xi
                    ly = y * sh - ph + eta
                    if 0 <= lx < w and 0 <= ly < h:
                        total += 1
    return total * d * out_channels


# ---------------------------------------------------------------------------
# vectorization order: unit (x, y, c) of a (w, h, d) map is x + w*(y + h*c)
# ---------------------------------------------------------------------------

def test_vec_index_first_axis_fastest():
    # a 2x1 kernel on a 2x3 map: output row y reads inputs (0, y) and (1, y)
    a = conv_chain((2, 3, 1), (2, 1), (1, 1), (0, 0), 1)
    maps = shapes.build_forward_maps(a, 0)
    taps = [list(maps.fwd_s[maps.fwd_indptr[i]:maps.fwd_indptr[i + 1]]) for i in range(3)]
    assert taps == [[0, 1], [2, 3], [4, 5]]
    # the engine's image view and the oracle's tensor read the same order
    lin = np.arange(12, dtype=float)
    images = refnet._images(lin[:, None], (2, 3, 2))
    tensor = refnet._to_tensor(lin, (2, 3, 2))
    assert images[0, 0, 0, 1] == tensor[1, 0, 0] == 1
    assert images[0, 0, 1, 0] == tensor[0, 1, 0] == 2
    assert images[0, 1, 0, 0] == tensor[0, 0, 1] == 6


def test_vec_index_roundtrip():
    shape = (3, 4, 5)
    lin = np.arange(60, dtype=float)
    tensor = refnet._to_tensor(lin, shape)
    images = refnet._images(lin[:, None], shape)
    seen = set()
    for i in range(3):
        for j in range(4):
            for k in range(5):
                assert tensor[i, j, k] == images[0, k, j, i] == i + 3 * (j + 4 * k)
                seen.add(int(tensor[i, j, k]))
    assert seen == set(range(60))
    assert np.array_equal(refnet._from_tensor(tensor), lin)
    x = np.random.default_rng(0).normal(size=(60, 4))
    assert np.array_equal(refnet._signals(refnet._images(x, shape)), x)


# ---------------------------------------------------------------------------
# forward maps
# ---------------------------------------------------------------------------

def test_forward_map_tap_counts_4x4_padded():
    a = conv_chain((4, 4, 1), (3, 3), (1, 1), (1, 1), 1)
    maps = shapes.build_forward_maps(a, 0)
    counts = np.diff(maps.fwd_indptr)
    grid = counts.reshape(4, 4)  # x fastest, single channel
    corners = [grid[0, 0], grid[0, 3], grid[3, 0], grid[3, 3]]
    edges = [grid[0, 1], grid[1, 0], grid[2, 3], grid[3, 2]]
    assert corners == [4, 4, 4, 4]
    assert edges == [6, 6, 6, 6]
    assert grid[1, 1] == grid[2, 2] == 9
    assert counts.sum() == 100


def test_forward_map_no_padding_full_kernel():
    a = conv_chain((4, 4, 1), (3, 3), (1, 1), (0, 0), 1)
    maps = shapes.build_forward_maps(a, 0)
    assert np.all(np.diff(maps.fwd_indptr) == 9)
    assert maps.m_prime == 4


def test_fully_connected_maps_are_dense():
    a = asvinit.Architecture(
        name="t", input_shape=(5, 1, 1),
        layers=(asvinit.LayerSpec(kind="FullyConnected", out_channels=3,
                                  activation="Identity"),),
    )
    maps = shapes.build_forward_maps(a, 0)
    for i in range(3):
        lo, hi = maps.fwd_indptr[i], maps.fwd_indptr[i + 1]
        assert list(maps.fwd_s[lo:hi]) == [0, 1, 2, 3, 4]
        assert maps.c[i] == i
    bwd = shapes.build_backward_maps(a, 0)
    for i in range(5):
        lo, hi = bwd.bwd_indptr[i], bwd.bwd_indptr[i + 1]
        assert list(bwd.bwd_j[lo:hi]) == [0, 1, 2]
        assert bwd.ctil[i] == i


def test_identity_topology_1x1():
    a = conv_chain((1, 1, 1), (1, 1), (1, 1), (0, 0), 1)
    maps = shapes.build_layer_maps(a, 0)
    assert list(maps.fwd_s) == [0]
    assert list(maps.bwd_j) == [0]
    assert list(maps.bwd_h) == [0]


# ---------------------------------------------------------------------------
# connection counts
# ---------------------------------------------------------------------------

def test_eps_4x4_padded_is_100():
    a = conv_chain((4, 4, 1), (3, 3), (1, 1), (1, 1), 1)
    fwd, bwd = shapes.connection_counts(a)[0]
    assert fwd == bwd == 100


def test_eps_no_padding_equals_mprime_s():
    a = conv_chain((4, 4, 1), (3, 3), (1, 1), (0, 0), 1)
    fwd, bwd = shapes.connection_counts(a)[0]
    assert fwd == bwd == 4 * 9


def test_eps_random_configs_match_brute_force_and_maps():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        kw, kh = rng.integers(1, 5, 2)
        sw, sh = rng.integers(1, 4, 2)
        pw = int(rng.integers(0, kw))
        ph = int(rng.integers(0, kh))
        d = int(rng.integers(1, 4))
        dp = int(rng.integers(1, 4))
        w = int(rng.integers(max(1, kw - 2 * pw), 9))
        h = int(rng.integers(max(1, kh - 2 * ph), 9))
        if (w + 2 * pw - kw) < 0 or (h + 2 * ph - kh) < 0:
            continue
        a = conv_chain((w, h, d), (int(kw), int(kh)), (int(sw), int(sh)), (pw, ph), dp)
        fwd, bwd = shapes.connection_counts(a)[0]
        oracle = brute_force_eps((w, h, d), (kw, kh), (sw, sh), (pw, ph), dp)
        assert fwd == oracle
        assert fwd == bwd
        maps = shapes.build_layer_maps(a, 0)
        assert len(maps.fwd_s) == oracle
        assert len(maps.bwd_j) == oracle


def loop_forward_census(n, k, p, s, n_out):
    """Loop oracle: in-bounds kernel taps summed over output positions."""
    total = 0
    for i in range(n_out):
        lo = i * s - p
        total += min(k, n - lo) - max(0, -lo)
    return total


def loop_backward_census(n, k, p, s, n_out):
    """Loop oracle: kernel applications covering each input position."""
    total = 0
    for l in range(n):
        i_lo = max(0, -(-(l + p - k + 1) // s))
        i_hi = min(n_out - 1, (l + p) // s)
        if i_hi >= i_lo:
            total += i_hi - i_lo + 1
    return total


@given(n=st.integers(1, 2000), k=st.integers(1, 12), s=st.integers(1, 6),
       data=st.data())
def test_closed_form_census_matches_both_loops(n, k, s, data):
    p = data.draw(st.integers(0, k - 1))
    assume(n + 2 * p >= k)
    n_out = shapes.conv_output_extent(n, k, p, s)
    census = shapes._axis_forward_census(n, k, p, s, n_out)
    assert census == loop_forward_census(n, k, p, s, n_out)
    assert census == loop_backward_census(n, k, p, s, n_out)


def test_analyze_on_a_huge_extent_is_fast(tmp_path, capsys):
    """The census is O(kernel taps), not O(extent)."""
    path = tmp_path / "long.json"
    path.write_text(arch.serialize(conv_chain((10**8, 1, 1), (3, 1), (1, 1), (1, 0), 2)))
    start = time.perf_counter()
    assert cli.main(["analyze", "--arch", str(path)]) == 0
    assert time.perf_counter() - start < 1.0
    first = json.loads(capsys.readouterr().out)["layers"][0]
    assert first["epsilon"] == 2 * (3 * 10**8 - 2)


def test_eps_arch34_first_layer_matches_slow_enumeration():
    a34 = arch.builtin("arch34")
    fwd, bwd = shapes.connection_counts(a34)[0]
    oracle = brute_force_eps((224, 224, 3), (7, 7), (2, 2), (3, 3), 64)
    assert fwd == oracle
    assert fwd == bwd


# ---------------------------------------------------------------------------
# backward maps and duality
# ---------------------------------------------------------------------------

def _dual_triples_from_forward(maps, kernel, channels_in):
    """Map each forward tap (i, a, s) to its backward form (s, h, j=i)."""
    kw, kh = kernel
    rep_out = np.repeat(np.arange(maps.m_prime), np.diff(maps.fwd_indptr))
    xi1 = maps.fwd_a % kw
    xi2 = (maps.fwd_a // kw) % kh
    xi3 = maps.fwd_a // (kw * kh)
    k_out = maps.c[rep_out]
    h = xi1 + kw * (xi2 + kh * k_out)
    return set(zip(maps.fwd_s.tolist(), h.tolist(), rep_out.tolist())), xi3


def test_duality_exhaustive_on_small_nets():
    rng = np.random.default_rng(7)
    for _ in range(25):
        kw, kh = rng.integers(1, 4, 2)
        sw, sh = rng.integers(1, 3, 2)
        pw = int(rng.integers(0, kw))
        ph = int(rng.integers(0, kh))
        d = int(rng.integers(1, 3))
        dp = int(rng.integers(1, 3))
        w = int(rng.integers(max(1, kw), 7))
        h = int(rng.integers(max(1, kh), 7))
        a = conv_chain((w, h, d), (int(kw), int(kh)), (int(sw), int(sh)), (pw, ph), dp)
        maps = shapes.build_layer_maps(a, 0)
        fwd_set, xi3 = _dual_triples_from_forward(maps, (kw, kh), d)
        rep_in = np.repeat(np.arange(maps.m_prev), np.diff(maps.bwd_indptr))
        bwd_set = set(zip(rep_in.tolist(), maps.bwd_h.tolist(), maps.bwd_j.tolist()))
        assert fwd_set == bwd_set
        # the backward channel of input unit s is the kernel depth of its taps
        rep_out = np.repeat(np.arange(maps.m_prime), np.diff(maps.fwd_indptr))
        assert np.all(maps.ctil[maps.fwd_s] == xi3)


def test_backward_tap_total_equals_forward():
    rng = np.random.default_rng(11)
    for _ in range(30):
        kw, kh = rng.integers(1, 5, 2)
        sw, sh = rng.integers(1, 4, 2)
        pw = int(rng.integers(0, kw))
        ph = int(rng.integers(0, kh))
        w = int(rng.integers(max(1, kw), 8))
        h = int(rng.integers(max(1, kh), 8))
        a = conv_chain((w, h, 2), (int(kw), int(kh)), (int(sw), int(sh)), (pw, ph), 3)
        fwd = shapes.build_forward_maps(a, 0)
        bwd = shapes.build_backward_maps(a, 0)
        assert len(fwd.fwd_s) == len(bwd.bwd_j)


# ---------------------------------------------------------------------------
# index dtype
# ---------------------------------------------------------------------------

def test_index_dtype_rule_and_map_dtypes():
    """Every index-map array is int64, on conv and FC layers alike."""
    a = asvinit.toy_net()
    for i in range(a.num_layers):
        maps = shapes.build_layer_maps(a, i)
        for name in ("c", "fwd_a", "fwd_s", "fwd_indptr", "ctil", "bwd_h", "bwd_j", "bwd_indptr"):
            assert getattr(maps, name).dtype == np.int64
        pool = shapes.build_pool_maps(a, i)
        if pool is not None:
            assert pool.members.dtype == pool.indptr.dtype == np.int64


# ---------------------------------------------------------------------------
# pooling maps
# ---------------------------------------------------------------------------

def test_exclusive_avg_pool_partitions():
    pool = asvinit.Pool(kind="Average", size=(2, 2))
    a = conv_chain((4, 4, 1), (1, 1), (1, 1), (0, 0), 1, pool=pool)
    pm = shapes.build_pool_maps(a, 0)
    assert pm.m_prime == 16 and pm.m == 4
    counts = np.diff(pm.indptr)
    assert np.all(counts == 4)
    # exclusive partition: every pre-pool unit in exactly one window
    assert sorted(pm.members.tolist()) == list(range(16))


def test_exclusive_pools_partition_randomized():
    rng = np.random.default_rng(44)
    for _ in range(20):
        tw, th = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        w = tw * int(rng.integers(1, 4))
        h = th * int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        kind = "Max" if rng.integers(0, 2) else "Average"
        pool = asvinit.Pool(kind=kind, size=(tw, th))
        a = conv_chain((w, h, d), (1, 1), (1, 1), (0, 0), d, pool=pool)
        pm = shapes.build_pool_maps(a, 0)
        assert np.all(np.diff(pm.indptr) == tw * th)
        assert sorted(pm.members.tolist()) == list(range(pm.m_prime))


def test_overlapping_pool_covers_every_unit():
    pool = asvinit.Pool(kind="Max", size=(3, 3), stride=(2, 2), padding=(1, 1))
    a = conv_chain((8, 8, 1), (1, 1), (1, 1), (0, 0), 2, pool=pool)
    pm = shapes.build_pool_maps(a, 0)
    covered = np.unique(pm.members)
    assert len(covered) == pm.m_prime


def test_global_average_resolves_to_full_extent():
    pool = asvinit.Pool(kind="GlobalAverage")
    a = conv_chain((6, 6, 1), (3, 3), (1, 1), (1, 1), 4, pool=pool)
    geo = shapes.infer_shapes(a)[0]
    assert geo.pool_size == (6, 6)
    assert geo.t == 36
    assert geo.pool_shape == (1, 1, 4)


def test_t_override_changes_t_only():
    pool = asvinit.Pool(kind="Max", size=(3, 3), stride=(2, 2), padding=(1, 1),
                        t_override=5)
    a = conv_chain((8, 8, 1), (3, 3), (1, 1), (1, 1), 2, pool=pool)
    geo = shapes.infer_shapes(a)[0]
    assert geo.t == 5
    assert geo.pool_shape[:2] == (4, 4)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_csv_has_one_row_per_layer():
    report = asvinit.ShapeReport.build(asvinit.toy_net())
    lines = cli.render(report.table(), "csv").strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].startswith("layer,kind,")
