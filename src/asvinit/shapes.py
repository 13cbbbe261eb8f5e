"""Shape inference, index sets, connection counts.

All indices are 0-based internally; reports print 1-based layer numbers.
Tensors of shape (n1, ..., nd) are flattened first-axis-fastest:
linear = i1 + n1*(i2 + n2*(i3 + ...)).  Feature maps use (w, h, d) order,
convolution kernels (kw, kh, d), backward kernels (kw, kh, d_out).

Every layer's linear map is a convolution, read through conv_view: a fully
connected layer is a 1x1 convolution over a 1x1 map whose channels are its
M_prev inputs, so S = M_prev, J = C and epsilon = M_prev*C come out of the
same formulas as a conv layer's, and so do its index maps.

infer_shapes resolves each layer once into a LayerShape, and every reader
after it takes the shapes from Architecture.geo.  Its two counts have one
definition each: the window cardinality T is LayerShape.t, the pooling
window's area (the count the engine's average divides by), and the
padding-aware connection count is LayerShape.epsilon, a closed-form census
of in-bounds kernel taps that costs O(1) per axis.

The index maps (build_*_maps) materialize the paper's forward and backward
index sets.  The reference engine in refnet does not use them; they stay
because they are the paper's formulation, the tests' oracles for the
engine, and functions the benchmark's tracer (perfbench/spans.py) wraps.
Every array they hold is int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from .errors import ValidationError


# ---------------------------------------------------------------------------
# Per-layer geometry
# ---------------------------------------------------------------------------

def conv_output_extent(n, k, p, s):
    return (n + 2 * p - k) // s + 1


@dataclass(frozen=True)
class LayerShape:
    """Resolved geometry of one layer."""

    ell: int                       # 1-based layer number
    kind: str
    in_shape: tuple[int, int, int]
    conv_shape: tuple[int, int, int]
    pool_shape: tuple[int, int, int]
    m_prev: int                    # units fed to the layer
    m_prime: int                   # units after convolution
    m: int                         # units after pooling
    s_len: int                     # kernel length (fan-in per unit when unpadded)
    j_len: int                     # backward kernel length
    t: int                         # pooling window area T (1 without a pool)
    channels: int
    pool_kind: str | None          # Max | Average | None (GlobalAverage -> Average)
    pool_size: tuple[int, int] | None
    pool_stride: tuple[int, int] | None
    pool_padding: tuple[int, int] | None
    activation: str
    params: int
    epsilon: int


def tap_ranges(n, k, p, s, n_out):
    """Per kernel tap a along one axis (input extent n, padding p, stride s):
    the half-open range [lo, hi) of outputs i whose tap lands inside the
    input, 0 <= i*s - p + a < n.  The range is empty when hi <= lo."""
    return [
        (max(0, -((a - p) // s)), min(n_out, (n - 1 + p - a) // s + 1))
        for a in range(k)
    ]


def live_taps(n, k, p, s, n_out):
    """The half-open range [first, last + 1) of the kernel taps along one
    axis that land inside the input for some output: the bounding range of
    tap_ranges' non-empty entries, in closed form (p < k).  The last
    output reads the input from tap p - (n_out - 1)*s on, the first up to
    tap n - 1 + p."""
    return max(0, p - (n_out - 1) * s), min(k, n + p)


def _padding_taps(e, s, n_out):
    """Taps that land in one side's padding: e at the edge output, s fewer
    at each next output, over at most n_out outputs."""
    m = min(n_out, max(0, -(-e // s)))
    return m * e - s * m * (m - 1) // 2


def _axis_forward_census(n, k, p, s, n_out):
    """Number of (output position, in-bounds kernel tap) pairs along one
    axis: all k * n_out pairs less the arithmetic series of taps in the low
    and the high padding.  The same pairs, counted from the input side,
    give the backward census."""
    high = (n_out - 1) * s + k - n - p
    return k * n_out - _padding_taps(p, s, n_out) - _padding_taps(high, s, n_out)


def conv_view(spec, in_shape):
    """A layer's linear map as a convolution: (input (w, h, d), kernel,
    stride, padding).  A fully connected layer is a 1x1 convolution over a
    1x1 map whose channels are its M_prev inputs, in their flattening
    order."""
    if spec.kind == arch_mod.FULLY_CONNECTED:
        w, h, d = in_shape
        return (1, 1, w * h * d), (1, 1), (1, 1), (0, 0)
    return in_shape, spec.kernel, spec.stride, spec.padding


def infer_shapes(arch: arch_mod.Architecture) -> list[LayerShape]:
    """Resolve every layer's geometry, each through its conv_view; raises
    ValidationError on collapse."""
    rows = []
    current = arch.input_shape
    for idx, layer in enumerate(arch.layers):
        ell = idx + 1
        (w, h, d), (kw, kh), (sw, sh), (pw, ph) = conv_view(layer, current)
        m_prev = w * h * d
        wp = conv_output_extent(w, kw, pw, sw)
        hp = conv_output_extent(h, kh, ph, sh)
        dp = layer.out_channels
        if wp < 1 or hp < 1:
            raise ValidationError(
                f"convolution collapses {w}x{h} to {wp}x{hp}", layer=ell
            )
        conv_shape = (wp, hp, dp)
        m_prime = wp * hp * dp

        pool = layer.pool
        if pool is None:
            pool_shape = conv_shape
            pool_kind = pool_size = pool_stride = pool_padding = None
            t = 1
        else:
            if pool.kind == arch_mod.GLOBAL_AVERAGE:
                pool_kind = arch_mod.AVERAGE
                pool_size = (wp, hp)
                pool_stride = (wp, hp)
                pool_padding = (0, 0)
            else:
                pool_kind = pool.kind
                pool_size = pool.size
                pool_stride = pool.effective_stride()
                pool_padding = pool.padding
            ww = conv_output_extent(wp, pool_size[0], pool_padding[0], pool_stride[0])
            hh = conv_output_extent(hp, pool_size[1], pool_padding[1], pool_stride[1])
            if ww < 1 or hh < 1:
                raise ValidationError(
                    f"pooling collapses {wp}x{hp} to {ww}x{hh}", layer=ell
                )
            pool_shape = (ww, hh, dp)
            t = pool_size[0] * pool_size[1]
        m = pool_shape[0] * pool_shape[1] * dp

        s_len = kw * kh * d
        j_len = kw * kh * dp
        w_f = _axis_forward_census(w, kw, pw, sw, wp)
        h_f = _axis_forward_census(h, kh, ph, sh, hp)
        eps = w_f * h_f * d * dp

        rows.append(
            LayerShape(
                ell=ell, kind=layer.kind, in_shape=current,
                conv_shape=conv_shape, pool_shape=pool_shape,
                m_prev=m_prev, m_prime=m_prime, m=m,
                s_len=s_len, j_len=j_len, t=t,
                channels=dp, pool_kind=pool_kind, pool_size=pool_size,
                pool_stride=pool_stride, pool_padding=pool_padding,
                activation=layer.activation,
                params=dp * s_len + dp,
                epsilon=eps,
            )
        )
        current = pool_shape
    return rows


# ---------------------------------------------------------------------------
# Shape report
# ---------------------------------------------------------------------------

_CSV_COLUMNS = (
    "layer", "kind", "activation", "pool",
    "in_w", "in_h", "in_d", "conv_w", "conv_h", "conv_d",
    "pool_w", "pool_h", "pool_d",
    "M_prev", "M_prime", "M", "S", "J", "T", "epsilon", "params",
)


@dataclass(frozen=True)
class ShapeReport:
    """Per-layer geometry and connection counts for a whole architecture."""

    name: str
    rows: tuple[LayerShape, ...]
    total_params: int = field(default=0)

    @classmethod
    def build(cls, arch: arch_mod.Architecture):
        rows = arch.geo
        return cls(name=arch.name, rows=rows, total_params=sum(r.params for r in rows))

    def table(self):
        """(head, key, rows, csv columns) for cli.render."""
        rows = [
            {
                "layer": r.ell, "kind": r.kind, "activation": r.activation,
                "pool": r.pool_kind if r.pool_kind is not None else "",
                "in_w": r.in_shape[0], "in_h": r.in_shape[1], "in_d": r.in_shape[2],
                "conv_w": r.conv_shape[0], "conv_h": r.conv_shape[1], "conv_d": r.conv_shape[2],
                "pool_w": r.pool_shape[0], "pool_h": r.pool_shape[1], "pool_d": r.pool_shape[2],
                "M_prev": r.m_prev, "M_prime": r.m_prime, "M": r.m,
                "S": r.s_len, "J": r.j_len, "T": r.t,
                "epsilon": r.epsilon, "params": r.params,
                "pool_size": list(r.pool_size) if r.pool_size else None,
                "pool_stride": list(r.pool_stride) if r.pool_stride else None,
                "pool_padding": list(r.pool_padding) if r.pool_padding else None,
            }
            for r in self.rows
        ]
        return {"name": self.name, "total_params": self.total_params}, "layers", rows, _CSV_COLUMNS


# ---------------------------------------------------------------------------
# Index maps (explicit forward/backward connection sets)
#
# The reference engine does not read these.  They stay as the paper's index
# sets: the tests' oracles for the engine, and functions the benchmark's
# tracer wraps.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvMaps:
    """Flattened connection sets of one layer's linear map.

    Forward: for output unit i, taps (a, s) live in
    fwd_a[fwd_indptr[i]:fwd_indptr[i+1]] and fwd_s[...]; c[i] is the kernel
    row applied.  Backward: for input unit i, taps (h, j) analogously, with
    ctil[i] the backward kernel row.

    Layout: output units run channel-major (c is non-decreasing) and every
    output channel repeats one spatial tap pattern, so with C channels
    fwd_a = tile(a_sp, C) where a_sp = fwd_a[:fwd_indptr[m_prime // C]]
    (for an FC layer C = m_prime and a_sp = arange(m_prev)).  Input units
    of the backward sets are laid out the same way over input channels.
    Every array is int64.
    """

    m_prev: int
    m_prime: int
    s_len: int
    j_len: int
    c: np.ndarray
    fwd_indptr: np.ndarray
    fwd_a: np.ndarray
    fwd_s: np.ndarray
    ctil: np.ndarray
    bwd_indptr: np.ndarray
    bwd_h: np.ndarray
    bwd_j: np.ndarray


@dataclass(frozen=True)
class PoolMaps:
    """Window membership of one layer's pooling step.

    Window of pooled unit i: members[indptr[i]:indptr[i+1]] (conv-output
    unit ids)."""

    m_prime: int
    m: int
    t_nominal: int
    kind: str
    indptr: np.ndarray
    members: np.ndarray


def _axis_taps(n, k, p, s, n_out):
    """For each output position: (first valid tap, input position of it,
    tap count)."""
    out = []
    for i in range(n_out):
        lo = i * s - p
        first = max(0, -lo)
        last = min(k, n - lo)
        out.append((first, lo + first, last - first))
    return out


def build_forward_maps(architecture, layer):
    """Explicit forward sets {a, s, c} for one layer (0-based index)."""
    spec = architecture.layers[layer]
    geo = architecture.geo[layer]
    (w, h, d), (kw, kh), (sw, sh), (pw, ph) = conv_view(spec, geo.in_shape)
    wp, hp, dp = geo.conv_shape

    x_taps = _axis_taps(w, kw, pw, sw, wp)
    y_taps = _axis_taps(h, kh, ph, sh, hp)
    ch_in = np.arange(d, dtype=np.int64)

    a_blocks, s_blocks, counts = [], [], np.empty(wp * hp, dtype=np.int64)
    for y in range(hp):
        yf, yi, yn = y_taps[y]
        for x in range(wp):
            xf, xi, xn = x_taps[x]
            xs_a = np.arange(xf, xf + xn, dtype=np.int64)
            ys_a = np.arange(yf, yf + yn, dtype=np.int64)
            xs_s = np.arange(xi, xi + xn, dtype=np.int64)
            ys_s = np.arange(yi, yi + yn, dtype=np.int64)
            # tap order: xi fastest, then eta, then input channel
            a_blk = (xs_a[:, None, None] + kw * (ys_a[None, :, None] + kh * ch_in[None, None, :]))
            s_blk = (xs_s[:, None, None] + w * (ys_s[None, :, None] + h * ch_in[None, None, :]))
            a_blocks.append(a_blk.reshape(-1, order="F"))
            s_blocks.append(s_blk.reshape(-1, order="F"))
            counts[x + wp * y] = xn * yn * d
    a_sp = np.concatenate(a_blocks)
    s_sp = np.concatenate(s_blocks)

    # replicate the spatial pattern across output channels (same a/s, c = ch)
    fwd_a = np.tile(a_sp, dp)
    fwd_s = np.tile(s_sp, dp)
    indptr = np.zeros(wp * hp * dp + 1, dtype=np.int64)
    np.cumsum(np.tile(counts, dp), out=indptr[1:])
    c = np.repeat(np.arange(dp, dtype=np.int64), wp * hp)
    return ConvMaps(
        m_prev=geo.m_prev, m_prime=geo.m_prime, s_len=geo.s_len, j_len=geo.j_len,
        c=c, fwd_indptr=indptr, fwd_a=fwd_a, fwd_s=fwd_s,
        ctil=None, bwd_indptr=None, bwd_h=None, bwd_j=None,
    )


def _axis_cover(n, k, p, s, n_out):
    """For each input position: list of (output position, tap index)."""
    out = []
    for l in range(n):
        i_lo = max(0, -(-(l + p - k + 1) // s))
        i_hi = min(n_out - 1, (l + p) // s)
        pairs = [(i, l + p - i * s) for i in range(i_lo, i_hi + 1)]
        out.append(pairs)
    return out


def build_backward_maps(architecture, layer):
    """Explicit backward sets {j, h, ctil} for one layer (0-based index)."""
    spec = architecture.layers[layer]
    geo = architecture.geo[layer]
    (w, h, d), (kw, kh), (sw, sh), (pw, ph) = conv_view(spec, geo.in_shape)
    wp, hp, dp = geo.conv_shape

    x_cover = _axis_cover(w, kw, pw, sw, wp)
    y_cover = _axis_cover(h, kh, ph, sh, hp)
    ch_out = np.arange(dp, dtype=np.int64)

    h_blocks, j_blocks, counts = [], [], np.empty(w * h, dtype=np.int64)
    for m in range(h):
        ym = y_cover[m]
        ys_i = np.array([ij[0] for ij in ym], dtype=np.int64)
        ys_z = np.array([ij[1] for ij in ym], dtype=np.int64)
        for l in range(w):
            xl = x_cover[l]
            xs_i = np.array([ij[0] for ij in xl], dtype=np.int64)
            xs_z = np.array([ij[1] for ij in xl], dtype=np.int64)
            # backward kernel flattened over (kw, kh, d_out)
            h_blk = (xs_z[:, None, None] + kw * (ys_z[None, :, None] + kh * ch_out[None, None, :]))
            j_blk = (xs_i[:, None, None] + wp * (ys_i[None, :, None] + hp * ch_out[None, None, :]))
            h_blocks.append(h_blk.reshape(-1, order="F"))
            j_blocks.append(j_blk.reshape(-1, order="F"))
            counts[l + w * m] = len(xl) * len(ym) * dp
    h_sp = np.concatenate(h_blocks)
    j_sp = np.concatenate(j_blocks)

    bwd_h = np.tile(h_sp, d)
    bwd_j = np.tile(j_sp, d)
    indptr = np.zeros(w * h * d + 1, dtype=np.int64)
    np.cumsum(np.tile(counts, d), out=indptr[1:])
    ctil = np.repeat(np.arange(d, dtype=np.int64), w * h)
    return ConvMaps(
        m_prev=geo.m_prev, m_prime=geo.m_prime, s_len=geo.s_len, j_len=geo.j_len,
        c=None, fwd_indptr=None, fwd_a=None, fwd_s=None,
        ctil=ctil, bwd_indptr=indptr, bwd_h=bwd_h, bwd_j=bwd_j,
    )


def build_layer_maps(architecture, layer):
    """Both directions merged into one ConvMaps."""
    fwd = build_forward_maps(architecture, layer)
    bwd = build_backward_maps(architecture, layer)
    return ConvMaps(
        m_prev=fwd.m_prev, m_prime=fwd.m_prime, s_len=fwd.s_len, j_len=fwd.j_len,
        c=fwd.c, fwd_indptr=fwd.fwd_indptr, fwd_a=fwd.fwd_a, fwd_s=fwd.fwd_s,
        ctil=bwd.ctil, bwd_indptr=bwd.bwd_indptr, bwd_h=bwd.bwd_h, bwd_j=bwd.bwd_j,
    )


def build_pool_maps(architecture, layer):
    """Window membership of one layer's pooling step (None without pooling)."""
    geo = architecture.geo[layer]
    if geo.pool_kind is None:
        return None
    wp, hp, dp = geo.conv_shape
    ww, hh, _ = geo.pool_shape
    tw, th = geo.pool_size
    sw, sh = geo.pool_stride
    qw, qh = geo.pool_padding

    members, counts = [], np.empty(ww * hh, dtype=np.int64)
    for y in range(hh):
        y0 = y * sh - qh
        ys = np.arange(max(0, y0), min(hp, y0 + th), dtype=np.int64)
        for x in range(ww):
            x0 = x * sw - qw
            xs = np.arange(max(0, x0), min(wp, x0 + tw), dtype=np.int64)
            blk = xs[:, None] + wp * ys[None, :]
            members.append(blk.reshape(-1, order="F"))
            counts[x + ww * y] = xs.size * ys.size
    mem_sp = np.concatenate(members)
    # per-channel replication with channel offsets on member ids
    offs = np.arange(dp, dtype=np.int64) * (wp * hp)
    members_full = (mem_sp[None, :] + offs[:, None]).reshape(-1)
    counts_full = np.tile(counts, dp)
    indptr = np.zeros(ww * hh * dp + 1, dtype=np.int64)
    np.cumsum(counts_full, out=indptr[1:])
    return PoolMaps(
        m_prime=geo.m_prime, m=geo.m, t_nominal=geo.pool_size[0] * geo.pool_size[1],
        kind=geo.pool_kind, indptr=indptr, members=members_full,
    )
