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
index sets and the pooling windows.  The three are one connection relation
in three orders: output i reads input i*s - p + a through tap a whenever
that input is in bounds, the relation tap_ranges states per axis.  The
forward sets {a, s, c} group it by output unit, the backward sets
{h, j, ctil} by input unit (the paper's re-indexing), and a pool's members
by window.  The reference engine in refnet does not use them; they stay
because they are the paper's formulation, the tests' oracles for the
engine, and functions the benchmark's tracer (perfbench/spans.py) wraps.
Every array they hold is int64.  They are the only code here that uses
numpy, and they import it when called, so shape inference and the shape
report do not load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from . import arch as arch_mod
from .errors import ValidationError

if TYPE_CHECKING:   # the index maps' annotations
    import numpy as np


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
    """Flattened connection sets of one layer's linear map: the connection
    relation grouped by output unit (forward) and by input unit (backward).

    Forward: for output unit i, taps (a, s) live in
    fwd_a[fwd_indptr[i]:fwd_indptr[i+1]] and fwd_s[...], input channel
    outer, then tap order (x fastest); c[i] is the kernel row applied.
    Backward, the paper's re-indexing of the same (output, tap, input)
    entries: for input unit i, taps (h, j) analogously, output channel
    outer, then output order; ctil[i] is the backward kernel row.

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
    """Window membership of one layer's pooling step: the connection
    relation of the pooling window, grouped by window.

    Window of pooled unit i: members[indptr[i]:indptr[i+1]] (conv-output
    unit ids, x fastest), channel outermost.  Every array is int64."""

    m_prime: int
    m: int
    t_nominal: int
    kind: str
    indptr: np.ndarray
    members: np.ndarray


def _axis_relation(n, k, p, s, n_out):
    """The in-bounds (output i, tap a, input i*s - p + a) triples of one
    axis, read off tap_ranges, as int64 arrays sorted by output, then tap."""
    import numpy as np

    lo, hi = np.array(tap_ranges(n, k, p, s, n_out), dtype=np.int64).T
    i = np.arange(n_out, dtype=np.int64)[:, None]
    out, tap = np.nonzero((lo <= i) & (i < hi))
    return out, tap, out * s - p + tap


def _plane_relation(in_wh, kernel, padding, stride, out_wh):
    """The relation over one channel's plane, the product of the two axes'
    with units and taps flattened x fastest: (output, tap, input) arrays
    sorted by output, then tap."""
    import numpy as np

    (xo, xa, xl), (yo, ya, yl) = map(_axis_relation, in_wh, kernel, padding, stride, out_wh)
    out = (xo + out_wh[0] * yo[:, None]).ravel()
    tap = (xa + kernel[0] * ya[:, None]).ravel()
    inp = (xl + in_wh[0] * yl[:, None]).ravel()
    order = np.lexsort((tap, out))
    return out[order], tap[order], inp[order]


def _group(unit, n_units, inner, outer, *columns):
    """Lay out a plane's entries, sorted by unit, over channels: outer
    channel outermost, then unit, then inner channel, then the entries' own
    order.  Each column is (values, inner channel stride, outer channel
    stride).  Returns the int64 indptr over outer * n_units units and the
    expanded columns."""
    import numpy as np

    order = np.argsort(np.broadcast_to(unit, (inner, unit.size)), axis=None, kind="stable")
    indptr = np.zeros(outer * n_units + 1, dtype=np.int64)
    np.cumsum(np.tile(np.bincount(unit, minlength=n_units) * inner, outer), out=indptr[1:])
    inner_ch = np.arange(inner, dtype=np.int64)[:, None]
    outer_ch = np.arange(outer, dtype=np.int64)[:, None]
    return indptr, [
        ((values + step_in * inner_ch).ravel()[order] + step_out * outer_ch).ravel()
        for values, step_in, step_out in columns
    ]


def _conv_relation(architecture, layer):
    """One layer's shape, conv view and plane relation."""
    geo = architecture.geo[layer]
    view = conv_view(architecture.layers[layer], geo.in_shape)
    (w, h, _), kernel, stride, padding = view
    return geo, view, _plane_relation((w, h), kernel, padding, stride, geo.conv_shape[:2])


def build_forward_maps(architecture, layer):
    """Explicit forward sets {a, s, c} for one layer (0-based index)."""
    import numpy as np

    geo, ((w, h, d), (kw, kh), _, _), (out, tap, inp) = _conv_relation(architecture, layer)
    wp, hp, dp = geo.conv_shape
    indptr, (fwd_a, fwd_s) = _group(out, wp * hp, d, dp, (tap, kw * kh, 0), (inp, w * h, 0))
    return ConvMaps(
        m_prev=geo.m_prev, m_prime=geo.m_prime, s_len=geo.s_len, j_len=geo.j_len,
        c=np.repeat(np.arange(dp, dtype=np.int64), wp * hp),
        fwd_indptr=indptr, fwd_a=fwd_a, fwd_s=fwd_s,
        ctil=None, bwd_indptr=None, bwd_h=None, bwd_j=None,
    )


def build_backward_maps(architecture, layer):
    """Explicit backward sets {j, h, ctil} for one layer (0-based index):
    the forward relation re-indexed by input unit."""
    import numpy as np

    geo, ((w, h, d), (kw, kh), _, _), (out, tap, inp) = _conv_relation(architecture, layer)
    wp, hp, dp = geo.conv_shape
    order = np.lexsort((out, inp))
    indptr, (bwd_h, bwd_j) = _group(
        inp[order], w * h, dp, d, (tap[order], kw * kh, 0), (out[order], wp * hp, 0)
    )
    return ConvMaps(
        m_prev=geo.m_prev, m_prime=geo.m_prime, s_len=geo.s_len, j_len=geo.j_len,
        c=None, fwd_indptr=None, fwd_a=None, fwd_s=None,
        ctil=np.repeat(np.arange(d, dtype=np.int64), w * h),
        bwd_indptr=indptr, bwd_h=bwd_h, bwd_j=bwd_j,
    )


def build_layer_maps(architecture, layer):
    """Both directions merged into one ConvMaps."""
    fwd = build_forward_maps(architecture, layer)
    bwd = build_backward_maps(architecture, layer)
    return replace(fwd, ctil=bwd.ctil, bwd_indptr=bwd.bwd_indptr, bwd_h=bwd.bwd_h, bwd_j=bwd.bwd_j)


def build_pool_maps(architecture, layer):
    """Window membership of one layer's pooling step (None without pooling)."""
    geo = architecture.geo[layer]
    if geo.pool_kind is None:
        return None
    wp, hp, dp = geo.conv_shape
    ww, hh, _ = geo.pool_shape
    out, _, inp = _plane_relation(
        (wp, hp), geo.pool_size, geo.pool_padding, geo.pool_stride, (ww, hh)
    )
    indptr, (members,) = _group(out, ww * hh, 1, dp, (inp, 0, wp * hp))
    return PoolMaps(
        m_prime=geo.m_prime, m=geo.m, t_nominal=geo.t,
        kind=geo.pool_kind, indptr=indptr, members=members,
    )
