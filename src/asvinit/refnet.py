"""Executable network: a map-free per-image engine, plus a naive oracle.

Each conv or FC layer is the paper's linear map over flattened index sets,
u = W * z + b.  The engine applies it without materializing those sets.
Inside forward() and backward() signals are (B, D, H, W) arrays, images
outermost, so one image is one C-contiguous (D, H, W) block and its
flattening is the paper's first-axis-fastest order (w fastest, then h,
then d).  The public signals in a SignalTrace are (M, B) arrays in that
order: a (B, D, H, W) array's .reshape(B, -1).T, a view with no copy.

Conv layers are lowered to matrix products (im2col): for a chunk of
CHUNK images the padded, strided kernel taps are gathered into a
(n, D*kh*kw, H'*W') buffer whose rows run (d, kh, kw) like the columns of
w, and u = np.matmul(w, buffer).  Only kernel taps that land inside the
input are copied (shapes.tap_ranges); the buffer's other entries stay 0,
which is the zero padding.  A 1x1 stride-1 unpadded conv and an FC layer
need no gather: their buffer is the input itself, reshaped.  Backward is
the transpose: np.matmul(w.T, du), then a loop over kernel taps adds each
tap's rows back into the input gradient.  That is the paper's re-indexed
backward kernel, applied without index sets.

Every BLAS call is a per-image product of the same shape whatever the batch
width (images are the stack axis of np.matmul, never a GEMM dimension), and
every other step is elementwise or a fixed-order loop over taps, so each
column of a trace is bit-identical to a single-column run with the same
weights.

Pooling loops over window taps on strided slices.  Max pooling starts from
-inf and takes a tap only when it is strictly greater, so the first maximum
in window order (x fastest, then y) wins, i.e. the lowest member; it keeps
the winning tap per window for backward, which routes each gradient to it.
Average pooling sums the in-bounds members (padding counts as 0) and
divides by the nominal window area T; backward spreads dz / T.

naive_forward walks the same layers with plain nested loops over tensor
indices; it exists as an independent oracle for the vectorized path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import MissingForwardTrace, ShapeMismatch

# images per im2col buffer: bounds the buffer, not a tuning option
CHUNK = 32


@dataclass(frozen=True)
class VectorNet:
    """Sampled parameters of one architecture."""

    arch: arch_mod.Architecture
    geo: tuple[shapes_mod.LayerShape, ...]
    weights: tuple[np.ndarray, ...]   # per layer, (C, S)
    biases: tuple[np.ndarray, ...]    # per layer, (C,)
    seed: int | None = None

    @property
    def num_layers(self):
        return len(self.geo)

    @property
    def maps(self):
        """Always (): the engine holds no index maps.  Kept because the
        benchmark's traced tap counters (perfbench/spans.py) read it; they
        report 0."""
        return ()


def build_maps(architecture):
    """Materialize index maps for every layer (shapes inferred once).

    The engine does not use them.  Kept as the paper's index sets for the
    tests' oracles, and because the benchmark's tracer wraps it."""
    geo = shapes_mod.infer_shapes(architecture)
    layers = range(len(architecture.layers))
    maps = tuple(shapes_mod.build_layer_maps(architecture, i, geo) for i in layers)
    pools = tuple(shapes_mod.build_pool_maps(architecture, i, geo) for i in layers)
    return maps, pools


def sample_parameters(architecture, plan, seed) -> VectorNet:
    """Draw iid zero-mean normal weights with the plan's per-layer std devs."""
    geo = tuple(shapes_mod.infer_shapes(architecture))
    if len(plan.rows) != len(geo):
        raise ValueError(
            f"plan covers {len(plan.rows)} layers, architecture has {len(geo)}"
        )
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
        arch=architecture, geo=geo,
        weights=tuple(weights), biases=tuple(biases), seed=seed,
    )


@dataclass
class SignalTrace:
    """Forward (and optionally backward) signals of one evaluation batch.

    Lists are indexed by layer (0-based); z[0] is the input.  Signals are
    (M, B) arrays, M in first-axis-fastest order.  winners holds, per
    max-pooled layer, the winning window tap of every (image, channel,
    window) as a (B, C, H, W) integer array, else None.  Backward fields are
    filled by backward(); gradients for weights/biases appear in
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


def _images(x, shape):
    """(M, B) signals of a (w, h, d) shape as C-contiguous (B, d, h, w)
    images; no copy when x is the view _signals returns."""
    w, h, d = shape
    return np.ascontiguousarray(x.T).reshape(x.shape[1], d, h, w)


def _signals(images):
    """(B, D, H, W) images as (M, B) signals, a view."""
    return images.reshape(images.shape[0], -1).T


def _taps(in_hw, out_hw, size, stride, padding):
    """Every kernel (or window) tap (ty, tx) that reaches an output, as
    (ty, tx, out_index, in_index): the outputs it reaches and the inputs
    they read, as indexes over the trailing (H, W) axes."""
    axes = []
    for n, n_out, k, s, p in zip(in_hw, out_hw, size, stride, padding):
        axis = []
        for a, (lo, hi) in enumerate(shapes_mod.tap_ranges(n, k, p, s, n_out)):
            if hi > lo:
                first = lo * s - p + a
                axis.append((a, slice(lo, hi), slice(first, first + (hi - lo - 1) * s + 1, s)))
        axes.append(axis)
    return [
        (ty, tx, (..., oy, ox), (..., iy, ix))
        for ty, oy, iy in axes[0] for tx, ox, ix in axes[1]
    ]


@dataclass(frozen=True)
class _Lowering:
    """A conv or FC layer as the per-image product u = w @ cols(z) + b, with
    cols(z) of shape (k, p): k the kernel length, p the output positions.
    taps is None when cols(z) is z itself, reshaped: an FC layer (its
    kernel is its whole input, p = 1) or a 1x1 stride-1 unpadded conv."""

    image: tuple[int, int, int]   # input (D, H, W)
    out: tuple[int, int, int]     # output (C, H', W')
    kernel: tuple[int, int]       # (kh, kw)
    taps: list | None

    @property
    def k(self):
        return self.image[0] * self.kernel[0] * self.kernel[1]

    @property
    def p(self):
        return self.out[1] * self.out[2]


def _lowering(spec, g):
    w, h, d = g.in_shape
    wp, hp, c = g.conv_shape
    if spec.kind == arch_mod.FULLY_CONNECTED:
        return _Lowering((d, h, w), (c, 1, 1), (h, w), None)
    kw, kh = spec.kernel
    (sw, sh), (pw, ph) = spec.stride, spec.padding
    if (kw, kh, sw, sh, pw, ph) == (1, 1, 1, 1, 0, 0):
        return _Lowering((d, h, w), (c, hp, wp), (1, 1), None)
    taps = _taps((h, w), (hp, wp), (kh, kw), (sh, sw), (ph, pw))
    return _Lowering((d, h, w), (c, hp, wp), (kh, kw), taps)


def _chunks(n_img):
    return [(b0, min(b0 + CHUNK, n_img)) for b0 in range(0, n_img, CHUNK)]


def _col_buffer(low, n_img):
    """One chunk's zeroed im2col buffer (n, D, kh, kw, H', W'), or None."""
    if low.taps is None:
        return None
    return np.zeros((min(CHUNK, n_img), low.image[0], *low.kernel, *low.out[1:]))


def _cols(low, x, buf):
    """cols(z) of a chunk of images x, as (n, k, p).  Entries of buf that
    no tap writes stay 0 from one chunk to the next."""
    n = x.shape[0]
    if low.taps is None:
        return x.reshape(n, low.k, low.p)
    cols = buf[:n]
    for ty, tx, o, i in low.taps:
        cols[:, :, ty, tx][o] = x[i]
    return cols.reshape(n, low.k, low.p)


def _conv_forward(low, w, b, x):
    u = np.empty((x.shape[0], *low.out))
    u_cols = u.reshape(x.shape[0], low.out[0], low.p)
    buf = _col_buffer(low, x.shape[0])
    for b0, b1 in _chunks(x.shape[0]):
        np.matmul(w, _cols(low, x[b0:b1], buf), out=u_cols[b0:b1])
    u += b[:, None, None]
    return u


def _conv_backward(low, w, du):
    """dz = W^T du: per-image products, then each tap's rows added back into
    the input positions it read."""
    n_img = du.shape[0]
    du_cols = du.reshape(n_img, low.out[0], low.p)
    if low.taps is None:
        dz = np.empty((n_img, *low.image))
        np.matmul(w.T, du_cols, out=dz.reshape(n_img, low.k, low.p))
        return dz
    dz = np.zeros((n_img, *low.image))
    buf = _col_buffer(low, n_img)
    for b0, b1 in _chunks(n_img):
        dcols = buf[:b1 - b0]
        np.matmul(w.T, du_cols[b0:b1], out=dcols.reshape(b1 - b0, low.k, low.p))
        dz_chunk = dz[b0:b1]
        for ty, tx, o, i in low.taps:
            dz_chunk[i] += dcols[:, :, ty, tx][o]
    return dz


def _param_grads(low, du, x):
    """(dW, db) summed over images, one per-image product per image."""
    n_img = du.shape[0]
    du_cols = du.reshape(n_img, low.out[0], low.p)
    dw = np.zeros((low.out[0], low.k))
    buf = _col_buffer(low, n_img)
    for b0, b1 in _chunks(n_img):
        cols = _cols(low, x[b0:b1], buf)
        dw += np.matmul(du_cols[b0:b1], cols.transpose(0, 2, 1)).sum(axis=0)
    return dw, du_cols.sum(axis=(0, 2))


def _pool_taps(g):
    (wp, hp, _), (ww, hh, _) = g.conv_shape, g.pool_shape
    (tw, th), (sw, sh), (qw, qh) = g.pool_size, g.pool_stride, g.pool_padding
    return _taps((hp, wp), (hh, ww), (th, tw), (sh, sw), (qh, qw))


def _pooled(v, g):
    ww, hh, c = g.pool_shape
    return (v.shape[0], c, hh, ww)


def _max_pool(v, g):
    """Window max and the winning tap (first maximum in window order)."""
    tw, th = g.pool_size
    z = np.full(_pooled(v, g), -np.inf)
    winners = np.zeros(z.shape, dtype=np.min_scalar_type(tw * th - 1))
    for ty, tx, o, i in _pool_taps(g):
        cand, best = v[i], z[o]
        hit = cand > best
        np.maximum(best, cand, out=best)
        np.putmask(winners[o], hit, ty * tw + tx)
    return z, winners


def _max_unpool(dz, winners, g):
    tw, _ = g.pool_size
    dv = np.zeros((dz.shape[0], *reversed(g.conv_shape)))
    for ty, tx, o, i in _pool_taps(g):
        dv[i] += dz[o] * (winners[o] == ty * tw + tx)
    return dv


def _average_pool(v, g):
    z = np.zeros(_pooled(v, g))
    for _, _, o, i in _pool_taps(g):
        z[o] += v[i]
    z /= g.pool_size[0] * g.pool_size[1]
    return z


def _average_unpool(dz, g):
    share = dz / (g.pool_size[0] * g.pool_size[1])
    dv = np.zeros((dz.shape[0], *reversed(g.conv_shape)))
    for _, _, o, i in _pool_taps(g):
        dv[i] += share[o]
    return dv


def forward(net: VectorNet, z0, keep_signals=True) -> SignalTrace:
    """Run the forward chain; z0 is (M0,) or (M0, batch)."""
    g0 = net.geo[0]
    z, _ = _as_batch(z0, g0.m_prev, "input")
    trace = SignalTrace(z0=z)
    trace.z.append(z)
    x = _images(z, g0.in_shape)
    for i, (spec, g) in enumerate(zip(net.arch.layers, net.geo)):
        u = _conv_forward(_lowering(spec, g), net.weights[i], net.biases[i], x)
        v = np.maximum(u, 0.0) if spec.activation == arch_mod.RELU else u
        winners = None
        if g.pool_kind is None:
            x = v
        elif g.pool_kind == arch_mod.MAX:
            x, winners = _max_pool(v, g)
        else:
            x = _average_pool(v, g)
        trace.u.append(_signals(u))
        trace.v.append(_signals(v))
        trace.z.append(_signals(x))
        trace.winners.append(winners)
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

    du = _images(du_top, net.geo[-1].conv_shape)
    for i in range(n - 1, -1, -1):
        g = net.geo[i]
        low = _lowering(net.arch.layers[i], g)
        trace.du[i] = _signals(du)
        if param_grads:
            trace.d_weights[i], trace.d_biases[i] = _param_grads(
                low, du, _images(trace.z[i], g.in_shape)
            )
        dz = _conv_backward(low, net.weights[i], du)
        trace.dz[i] = _signals(dz)
        if i == 0:
            break
        # through layer i-1's pooling and activation
        below = net.geo[i - 1]
        if below.pool_kind is None:
            dv = dz
        elif below.pool_kind == arch_mod.MAX:
            winners = trace.winners[i - 1]
            if winners is None:
                raise MissingForwardTrace("forward trace lacks max-pool winners")
            dv = _max_unpool(dz, winners, below)
        else:
            dv = _average_unpool(dz, below)
        if below.activation == arch_mod.RELU:
            du = dv * (_images(trace.u[i - 1], below.conv_shape) >= 0.0)
        else:
            du = dv
        trace.dv[i - 1] = _signals(dv)
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
