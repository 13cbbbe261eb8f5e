"""Executable network: one sparse linear operator per layer, plus a naive oracle.

Each conv or FC layer is the paper's linear map over flattened index sets,
held as one (M' x M_prev) CSR matrix A per weight draw: row i carries
w[c(i), a] at column s for every forward tap (a, s) of output unit i.
forward() and backward() each build A from the net's current weights, so A
is never held between passes.  The structure (fwd_s, fwd_indptr) is the
forward maps' own index arrays (int32 below 2**31 taps), taken as they are,
without a scan or a copy.  The data is one gather of w's columns per
channel block, np.take(w, a_sp, axis=1).ravel(), because the rows run
channel-major and every channel repeats the same spatial tap pattern a_sp
(see shapes.ConvMaps).  Forward is u = A @ z + b.  The paper's re-indexed backward kernel is exactly
the transpose of that map, so backward is dz = A.T @ du.  Average pooling is
the same kind of operator P with entries 1/T (forward P @ v, backward
P.T @ dz); max pooling keeps the window max and routes each gradient to its
winner.  Signals are float64 column batches (units x batch).  Each output
sums its terms one after another in a fixed order, whatever the batch width,
so results are bit-identical for a given seed across batch sizes.

naive_forward walks the same layers with plain nested loops over tensor
indices; it exists as an independent oracle for the vectorized path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import MissingForwardTrace, ShapeMismatch


def _segment_max_and_winner(values, members, indptr):
    """Per-segment max and the member id (lowest index wins ties) attaining it."""
    starts = indptr[:-1]
    top = np.maximum.reduceat(values, starts, axis=0)
    seg_of = np.repeat(np.arange(len(starts)), np.diff(indptr))
    hit = values == top[seg_of, :]
    order = np.arange(values.shape[0])[:, None]
    pos = np.where(hit, order, values.shape[0])
    first = np.minimum.reduceat(pos, starts, axis=0)
    return top, members[first]


@dataclass(frozen=True)
class VectorNet:
    """Sampled parameters plus the index maps needed to run them."""

    arch: arch_mod.Architecture
    geo: tuple[shapes_mod.LayerShape, ...]
    maps: tuple[shapes_mod.ConvMaps, ...]
    pools: tuple[shapes_mod.PoolMaps | None, ...]
    weights: tuple[np.ndarray, ...]   # per layer, (C, S)
    biases: tuple[np.ndarray, ...]    # per layer, (C,)
    seed: int | None = None

    @property
    def num_layers(self):
        return len(self.geo)


def build_maps(architecture):
    """Materialize index maps for every layer (shapes inferred once)."""
    geo = shapes_mod.infer_shapes(architecture)
    layers = range(len(architecture.layers))
    maps = tuple(shapes_mod.build_layer_maps(architecture, i, geo) for i in layers)
    pools = tuple(shapes_mod.build_pool_maps(architecture, i, geo) for i in layers)
    return maps, pools


def sample_parameters(architecture, plan, seed, maps=None, pools=None) -> VectorNet:
    """Draw iid zero-mean normal weights with the plan's per-layer std devs."""
    geo = tuple(shapes_mod.infer_shapes(architecture))
    if len(plan.rows) != len(geo):
        raise ValueError(
            f"plan covers {len(plan.rows)} layers, architecture has {len(geo)}"
        )
    if maps is None or pools is None:
        maps, pools = build_maps(architecture)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for g, row in zip(geo, plan.rows):
        c, s = g.channels, g.s_len
        if row.sigma_w == 0.0:
            weights.append(np.zeros((c, s)))
        else:
            weights.append(rng.normal(0.0, row.sigma_w, size=(c, s)))
        if row.sigma_b == 0.0:
            biases.append(np.zeros(c))
        else:
            biases.append(rng.normal(0.0, row.sigma_b, size=c))
    return VectorNet(
        arch=architecture, geo=geo, maps=maps, pools=pools,
        weights=tuple(weights), biases=tuple(biases), seed=seed,
    )


@dataclass
class SignalTrace:
    """Forward (and optionally backward) signals of one evaluation batch.

    Lists are indexed by layer (0-based); z[0] is the input.  Backward
    fields are filled by backward(); gradients for weights/biases appear in
    d_weights/d_biases when requested.
    """

    z0: np.ndarray
    u: list = field(default_factory=list)
    v: list = field(default_factory=list)
    z: list = field(default_factory=list)        # z[ell], ell = 0..L
    winners: list = field(default_factory=list)  # per layer, or None
    du: list = field(default_factory=list)
    dv: list = field(default_factory=list)
    dz: list = field(default_factory=list)       # dz[ell], ell = 0..L
    d_weights: list = field(default_factory=list)
    d_biases: list = field(default_factory=list)

    @property
    def batch(self):
        return self.z0.shape[1]


def _as_batch(x, m, what):
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[:, None]
    if x.shape[0] != m:
        raise ShapeMismatch(f"{what} has {x.shape[0]} entries, expected {m}")
    return x, squeeze


def _rep_out(maps):
    return np.repeat(np.arange(maps.m_prime), np.diff(maps.fwd_indptr))


def _layer_operator(maps, w):
    """The layer's linear map as CSR: row i holds w[c(i), a] at column s for
    each forward tap (a, s) of output unit i, in tap order.  Channel k's rows
    carry w[k, a_sp], so the data is one gather per channel block."""
    a_sp = maps.fwd_a[:maps.fwd_indptr[maps.m_prime // w.shape[0]]]
    data = np.take(w, a_sp, axis=1).ravel()
    return sparse.csr_matrix(
        (data, maps.fwd_s, maps.fwd_indptr), shape=(maps.m_prime, maps.m_prev)
    )


def _average_operator(pool):
    """Average pooling as CSR: row i holds 1/T at each member of window i."""
    data = np.full(pool.members.size, 1.0 / pool.t_nominal)
    return sparse.csr_matrix(
        (data, pool.members, pool.indptr), shape=(pool.m, pool.m_prime)
    )


def forward(net: VectorNet, z0, keep_signals=True) -> SignalTrace:
    """Run the forward chain; z0 is (M0,) or (M0, batch)."""
    m0 = net.geo[0].m_prev
    z, _ = _as_batch(z0, m0, "input")
    trace = SignalTrace(z0=z)
    trace.z.append(z)
    for i in range(net.num_layers):
        maps, pool = net.maps[i], net.pools[i]
        u = _layer_operator(maps, net.weights[i]) @ z + net.biases[i][maps.c][:, None]
        if net.arch.layers[i].activation == arch_mod.RELU:
            v = np.maximum(u, 0.0)
        else:
            v = u
        winners = None
        if pool is None:
            znext = v
        elif pool.kind == arch_mod.MAX:
            gathered = v[pool.members, :]
            znext, winners = _segment_max_and_winner(gathered, pool.members, pool.indptr)
        else:
            znext = _average_operator(pool) @ v
        trace.u.append(u)
        trace.v.append(v)
        trace.z.append(znext)
        trace.winners.append(winners)
        z = znext
    if not keep_signals:
        # keep only what backward() needs: u (ReLU masks) and winners
        trace.v = [None] * len(trace.v)
    return trace


def backward(net: VectorNet, trace: SignalTrace, delta_uL=None, param_grads=False):
    """Fill the backward half of a trace.

    delta_uL defaults to u^(L), i.e. the gradient of E = 0.5 * ||u^(L)||^2.
    Max pooling routes each window's gradient to its winner unit; average
    pooling spreads it as 1/T; the ReLU subgradient at 0 is 1.
    """
    if not trace.u:
        raise MissingForwardTrace("run forward() before backward()")
    n = net.num_layers
    if delta_uL is None:
        delta_uL = trace.u[-1]
    du_top, _ = _as_batch(delta_uL, net.geo[-1].m_prime, "delta_uL")
    if du_top.shape[1] != trace.batch:
        raise ShapeMismatch(
            f"delta_uL batch {du_top.shape[1]} != trace batch {trace.batch}"
        )

    trace.du = [None] * n
    trace.dv = [None] * n
    trace.dz = [None] * (n + 1)
    trace.d_weights = [None] * n
    trace.d_biases = [None] * n

    du = du_top
    for i in range(n - 1, -1, -1):
        g = net.geo[i]
        maps = net.maps[i]
        trace.du[i] = du
        if param_grads:
            rep = _rep_out(maps)
            rowdot = np.einsum("tb,tb->t", du[rep], trace.z[i][maps.fwd_s])
            trace.d_weights[i] = np.bincount(
                maps.c[rep] * g.s_len + maps.fwd_a, weights=rowdot,
                minlength=g.channels * g.s_len,
            ).reshape(g.channels, g.s_len)
            trace.d_biases[i] = np.bincount(
                maps.c, weights=du.sum(axis=1), minlength=g.channels
            )
        dz_prev = _layer_operator(maps, net.weights[i]).T @ du
        trace.dz[i] = dz_prev
        if i == 0:
            break
        # through layer i-1's pooling and activation
        below = i - 1
        pool = net.pools[below]
        if pool is None:
            dv = dz_prev
        elif pool.kind == arch_mod.MAX:
            winners = trace.winners[below]
            if winners is None:
                raise MissingForwardTrace("forward trace lacks max-pool winners")
            # one target unit per (window, column)
            b = trace.batch
            flat = winners * b + np.arange(b)[None, :]
            dv = np.bincount(
                flat.ravel(), weights=dz_prev.ravel(),
                minlength=net.geo[below].m_prime * b,
            ).reshape(net.geo[below].m_prime, b)
        else:
            dv = _average_operator(pool).T @ dz_prev
        if net.arch.layers[below].activation == arch_mod.RELU:
            du = dv * (trace.u[below] >= 0.0)
        else:
            du = dv
        trace.dv[below] = dv
    # dz[L] is the injected gradient itself (z^(L) := v^(L) := u^(L))
    trace.dz[n] = du_top
    return trace


def loss_half_square(net, z0):
    """E = 0.5 * ||u^(L)||^2 for gradient checking."""
    trace = forward(net, z0)
    u_top = trace.u[-1]
    return 0.5 * float(np.sum(u_top * u_top))


# ---------------------------------------------------------------------------
# Naive tensor-loop oracle
# ---------------------------------------------------------------------------

def _to_tensor(vec, shape):
    return np.asarray(vec, dtype=float).reshape(shape, order="F")


def _from_tensor(t):
    return t.reshape(-1, order="F")


def naive_conv(z_tensor, w_rows, bias, kernel, stride, padding):
    """Plain nested-loop 2D convolution with zero padding."""
    w, h, d = z_tensor.shape
    kw, kh = kernel
    sw, sh = stride
    pw, ph = padding
    dp = w_rows.shape[0]
    padded = np.zeros((w + 2 * pw, h + 2 * ph, d))
    padded[pw:pw + w, ph:ph + h, :] = z_tensor
    wp = (w + 2 * pw - kw) // sw + 1
    hp = (h + 2 * ph - kh) // sh + 1
    out = np.zeros((wp, hp, dp))
    kernels = [_to_tensor(w_rows[k], (kw, kh, d)) for k in range(dp)]
    for k in range(dp):
        for j in range(hp):
            for i in range(wp):
                acc = bias[k]
                for x2 in range(kh):
                    for x1 in range(kw):
                        for x3 in range(d):
                            acc += kernels[k][x1, x2, x3] * padded[sw * i + x1, sh * j + x2, x3]
                out[i, j, k] = acc
    return out


def naive_pool(v_tensor, kind, size, stride, padding):
    """Plain nested-loop pooling (max over valid members; average divides by
    the nominal window area, treating padding as zeros)."""
    w, h, d = v_tensor.shape
    tw, th = size
    sw, sh = stride
    qw, qh = padding
    ww = (w + 2 * qw - tw) // sw + 1
    hh = (h + 2 * qh - th) // sh + 1
    out = np.zeros((ww, hh, d))
    for k in range(d):
        for j in range(hh):
            for i in range(ww):
                xs = [x for x in range(sw * i - qw, sw * i - qw + tw) if 0 <= x < w]
                ys = [y for y in range(sh * j - qh, sh * j - qh + th) if 0 <= y < h]
                vals = [v_tensor[x, y, k] for y in ys for x in xs]
                if kind == arch_mod.MAX:
                    out[i, j, k] = max(vals)
                else:
                    out[i, j, k] = sum(vals) / (tw * th)
    return out


def naive_forward(net: VectorNet, z0):
    """Independent tensor-loop evaluation of the whole chain.

    Returns (u_list, z_list) of flattened signals matching forward().
    """
    geo = net.geo
    z = np.asarray(z0, dtype=float)
    if z.ndim != 1:
        raise ShapeMismatch("naive_forward takes a single flattened input")
    us, zs = [], [z]
    for i, g in enumerate(geo):
        spec = net.arch.layers[i]
        if spec.kind == arch_mod.FULLY_CONNECTED:
            u = net.weights[i] @ z + net.biases[i]
            u_t = None
        else:
            z_t = _to_tensor(z, g.in_shape)
            u_t = naive_conv(
                z_t, net.weights[i], net.biases[i],
                spec.kernel, spec.stride, spec.padding,
            )
            u = _from_tensor(u_t)
        us.append(u)
        if spec.activation == arch_mod.RELU:
            v = np.maximum(u, 0.0)
        else:
            v = u
        if g.pool_kind is None:
            z = v
        else:
            v_t = _to_tensor(v, g.conv_shape)
            z_t = naive_pool(v_t, g.pool_kind, g.pool_size, g.pool_stride, g.pool_padding)
            z = _from_tensor(z_t)
        zs.append(z)
    return us, zs
