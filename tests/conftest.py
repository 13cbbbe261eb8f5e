import math
import threading

import numpy as np
import pytest
from hypothesis import assume, settings, strategies as st

import asvinit
from asvinit import refnet, shapes
from asvinit.arch import validate

# Tier-1 runs are reproducible: the same examples every run, none replayed
# from a local example database.
settings.register_profile(
    "tier1", derandomize=True, database=None, max_examples=100, deadline=None
)
settings.load_profile("tier1")


def small_net(in_shape, conv_layers, head=3, hidden=()):
    """conv_layers: list of (channels, kernel, stride, padding, pool);
    hidden: widths of the ReLU FC layers between the convs and the head."""
    layers = []
    for ch, k, s, p, pool in conv_layers:
        layers.append(asvinit.LayerSpec(
            kind="Conv", out_channels=ch, kernel=(k, k), stride=(s, s),
            padding=(p, p), pool=pool,
        ))
    for width in hidden:
        layers.append(asvinit.LayerSpec(kind="FullyConnected", out_channels=width))
    layers.append(asvinit.LayerSpec(kind="FullyConnected", out_channels=head,
                                    activation="Identity"))
    a = asvinit.Architecture(name="small", input_shape=in_shape,
                             layers=tuple(layers))
    validate(a)
    return a


def conv_chain(in_shape, kernel, stride, padding, out_channels, pool=None):
    """One conv layer plus the mandatory head, for map-level tests."""
    a = asvinit.Architecture(
        name="conv", input_shape=in_shape,
        layers=(
            asvinit.LayerSpec(
                kind="Conv", out_channels=out_channels, kernel=kernel,
                stride=stride, padding=padding, pool=pool,
            ),
            asvinit.LayerSpec(kind="FullyConnected", out_channels=2,
                              activation="Identity"),
        ),
    )
    validate(a)
    return a


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


def _csr(units):
    """(indptr, *columns) of per-unit lists of entry tuples, all int64."""
    indptr = np.cumsum([0] + [len(entries) for entries in units], dtype=np.int64)
    flat = [e for entries in units for e in entries]
    columns = np.array(flat, dtype=np.int64).reshape(len(flat), -1).T
    return (indptr, *columns)


def enumerate_index_sets(a, layer):
    """Nested-loop oracle of one layer's index sets, each unit's entries in
    their documented order.  Forward: per output unit (channel-major, x
    fastest), (a, s) over input channel, then tap (x fastest).  Backward:
    per input unit, (h, j) over output channel, then output unit.  Pool:
    per window, conv-output members x fastest, channel outermost.
    Returns (indptr, a, s, c), (indptr, h, j, ctil) and (indptr, members)
    or None without a pool."""
    spec, g = a.layers[layer], a.geo[layer]
    (w, h, d), (kw, kh), (sw, sh), (pw, ph) = shapes.conv_view(spec, g.in_shape)
    wp, hp, dp = g.conv_shape
    fwd = []
    for co in range(dp):
        for y in range(hp):
            for x in range(wp):
                entries = []
                for ci in range(d):
                    for ay in range(kh):
                        for ax in range(kw):
                            lx, ly = x * sw - pw + ax, y * sh - ph + ay
                            if 0 <= lx < w and 0 <= ly < h:
                                entries.append((ax + kw * (ay + kh * ci), lx + w * (ly + h * ci)))
                fwd.append(entries)
    bwd = []
    for ci in range(d):
        for ly in range(h):
            for lx in range(w):
                entries = []
                for co in range(dp):
                    for y in range(hp):
                        for x in range(wp):
                            ax, ay = lx + pw - x * sw, ly + ph - y * sh
                            if 0 <= ax < kw and 0 <= ay < kh:
                                entries.append((ax + kw * (ay + kh * co), x + wp * (y + hp * co)))
                bwd.append(entries)
    forward = (*_csr(fwd), np.repeat(np.arange(dp, dtype=np.int64), wp * hp))
    backward = (*_csr(bwd), np.repeat(np.arange(d, dtype=np.int64), w * h))
    if g.pool_kind is None:
        return forward, backward, None
    ww, hh, _ = g.pool_shape
    (tw, th), (qsw, qsh), (qw, qh) = g.pool_size, g.pool_stride, g.pool_padding
    windows = []
    for ch in range(dp):
        for y in range(hh):
            for x in range(ww):
                entries = []
                for ty in range(th):
                    for tx in range(tw):
                        mx, my = x * qsw - qw + tx, y * qsh - qh + ty
                        if 0 <= mx < wp and 0 <= my < hp:
                            entries.append((mx + wp * (my + hp * ch),))
                windows.append(entries)
    return forward, backward, _csr(windows)


def pooled_relu_max_second_moment(t, n_samples, seed):
    """Monte Carlo oracle: E[max(0, max of t iid standard normals)^2] and
    its standard error."""
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    n_done = 0
    chunk = 200_000
    while n_done < n_samples:
        n = min(chunk, n_samples - n_done)
        x = rng.standard_normal((n, t)).max(axis=1)
        y = np.maximum(x, 0.0) ** 2
        total += float(y.sum())
        total_sq += float((y * y).sum())
        n_done += n
    mean = total / n_samples
    var = total_sq / n_samples - mean * mean
    return mean, math.sqrt(var / n_samples)


def loss_half_square(net, z0):
    """E = 0.5 * ||u^(L)||^2 of refnet.forward, for gradient checking."""
    u_top = refnet.forward(net, z0).u[-1]
    return 0.5 * float(np.sum(u_top * u_top))


POOLS = [
    None,
    asvinit.Pool(kind="Max", size=(2, 2)),
    asvinit.Pool(kind="Average", size=(2, 2)),
    asvinit.Pool(kind="GlobalAverage"),
]
OVERLAPPING_AVERAGE = asvinit.Pool(kind="Average", size=(3, 3), stride=(2, 2), padding=(1, 1))
OVERLAPPING_MAX = asvinit.Pool(kind="Max", size=(3, 3), stride=(1, 1))


def dead_tap_chain(pool):
    """A 5x5 pad-2 stride-2 conv on a 2x2 map (live taps 2..3 per axis) and
    a 3x3 pad-1 conv on a 1x1 map (live tap 1 per axis), after a pooled
    layer whose taps are all live."""
    return small_net((4, 4, 2), [(3, 3, 1, 1, pool), (4, 5, 2, 2, None), (3, 3, 1, 1, POOLS[3])])


@st.composite
def small_chains(draw):
    """Valid chains of up to two small conv layers (every pool kind,
    overlapping windows included), up to one hidden ReLU FC layer and an
    FC head: FC-only and FC->FC chains among them."""
    width = draw(st.integers(4, 9))
    depth = draw(st.integers(1, 3))
    layers = []
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(1, 3))
        layers.append((
            draw(st.integers(1, 3)), k, draw(st.integers(1, 2)),
            draw(st.integers(0, k - 1)),
            draw(st.sampled_from(POOLS + [OVERLAPPING_AVERAGE, OVERLAPPING_MAX])),
        ))
    try:
        return small_net((width, width, depth), layers, head=draw(st.integers(1, 3)),
                         hidden=draw(st.lists(st.integers(1, 5), max_size=1)))
    except asvinit.ValidationError:
        assume(False)


def record_streams(monkeypatch):
    """Every refnet.NormalStream made from now on, in the order made."""
    made = []

    class Recorded(refnet.NormalStream):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(refnet, "NormalStream", Recorded)
    return made


def refnet_threads():
    """The live threads refnet started: chunk threads and stream helpers."""
    return [t for t in threading.enumerate() if t.name.startswith("refnet")]


@pytest.fixture(autouse=True)
def no_refnet_thread_outlives_a_test():
    """Fail a test that leaves a refnet thread alive: each is joined by
    the call or the stream that started it."""
    yield
    assert not refnet_threads()


_criterion_lines = []


def record_criterion(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number}: {status} - {label}"
    if detail:
        line += f" ({detail})"
    _criterion_lines.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _criterion_lines:
        terminalreporter.write_line(line)
