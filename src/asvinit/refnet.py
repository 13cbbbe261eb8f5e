"""Executable network: a map-free per-image engine, plus a naive oracle.

Each conv or FC layer is the paper's linear map over flattened index sets,
u = W * z + b.  The engine applies it without materializing those sets.
Inside forward() and backward() signals are (B, D, H, W) arrays, images
outermost, so one image is one C-contiguous (D, H, W) block and its
flattening is the paper's first-axis-fastest order (w fastest, then h,
then d).  The public signals in a SignalTrace are (M, B) arrays in that
order: a (B, D, H, W) array's .reshape(B, -1).T, a view with no copy.

A live tap is a kernel position (ty, tx) that lands inside the input for
at least one output position (shapes.tap_ranges); a dead tap only ever
multiplies zero padding, so its weights change no signal.  Each conv layer
has one lowering, built once by sample_parameters and kept on the
VectorNet: the bounding rectangle kh' x kw' of its live taps.  The net
keeps only the weights of that rectangle, (C, D*kh'*kw'), which is the
full (C, S) matrix whenever every tap is live (FC and 1x1 layers always,
the built-ins at 224x224).  dense_weights gives the full matrix back,
zero at the dropped taps, for the naive oracle.

forward() and backward() run a batch as a pipeline of chunks.  Each call
allocates the trace's arrays once, then takes each chunk of CHUNK images
through every layer, writing straight into that chunk's slices: conv,
activation and pooling going forward; conv^T, unpooling and the ReLU mask
going backward.  Chunks run on min(CPUs in the process's affinity mask,
chunks) threads at once: the calling thread and threads started for that
call, all joined before it returns, so none is kept between calls and a
one-chunk batch starts none.  numpy releases the interpreter lock inside
its products and array loops, so the threads overlap.  A thread that
cannot start leaves its chunks to the others.

Conv layers are lowered to matrix products (im2col): for a chunk of
n <= CHUNK images the padded, strided live taps are gathered into a
(n, D*kh'*kw', H'*W') buffer whose rows run (d, ty, tx) like the columns
of w, and u = np.matmul(w, buffer).  Only the in-bounds positions of each
tap are copied; the buffer's other entries stay 0, which is the zero
padding.  A 1x1 stride-1 unpadded conv and an FC layer need no gather:
their buffer is the input itself, reshaped.  Backward is the transpose:
np.matmul(w.T, du), then a loop over live taps adds each tap's rows back
into the input gradient.  That is the paper's re-indexed backward kernel,
applied without index sets.  Weight gradients come out in the live shape.

Every BLAS call is a per-image product of the same shape whatever the batch
width (images are the stack axis of np.matmul, never a GEMM dimension), and
every other step is elementwise or a fixed-order loop over taps, so each
column of a trace is bit-identical to a single-column run with the same
weights.  For the same reason a trace does not depend on how many threads
ran it, or which thread ran which chunk: no chunk reads another's slices,
and weight gradients are summed after the pipeline, on the calling
thread: per chunk, image by image, each chunk's sum added in chunk order.

Pooling loops over window taps on strided slices.  Max pooling starts from
-inf and takes a tap only when it is strictly greater, so the first maximum
in window order (x fastest, then y) wins, i.e. the lowest member; it keeps
the winning tap per window for backward, which routes each gradient to it.
Average pooling sums the in-bounds members (padding counts as 0) and
divides by the nominal window area T; backward spreads dz / T.  A window
that is the whole map (GlobalAverage) is one running sum over the map and
one broadcast back.

A SignalTrace keeps only the signals something reads; a pooled layer's
activations are a per-chunk temporary.  memory_need bounds, from the
shapes alone, the bytes one draw of sample_parameters, forward and
backward holds at once, one set of chunk temporaries per thread
included.  check_memory holds a need against the memory this process may use;
simulate (through montecarlo) and init --emit-weights call it before they
allocate.

naive_forward walks the same layers with plain nested loops over tensor
indices; it exists as an independent oracle for the vectorized path.
"""

from __future__ import annotations

import os
import queue
import resource
import threading
from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import BudgetExceeded, MissingForwardTrace, ShapeMismatch

# images per im2col buffer: bounds the buffer, not a tuning option
CHUNK = 32


@dataclass(frozen=True)
class VectorNet:
    """Sampled parameters of one architecture.

    A conv layer keeps only the weights of its live kernel taps: the
    bounding rectangle of the taps (ty, tx) that land inside the input for
    at least one output position.  A tap outside it only ever multiplies
    zero padding.  weights[i] is (C, D*kh'*kw') with kh' x kw' that
    rectangle, its columns running (d, ty, tx) like the full kernel's; it
    is the full (C, S) matrix whenever every tap is live, as on FC and 1x1
    layers.  lowerings[i] names those columns; dense_weights gives the
    full matrix back, zero at the dropped taps.  geo is arch.geo, read
    through, not a copy."""

    arch: arch_mod.Architecture
    weights: tuple[np.ndarray, ...]   # per layer, (C, D*kh'*kw'), live taps
    biases: tuple[np.ndarray, ...]    # per layer, (C,)
    lowerings: tuple[_Lowering, ...]

    @property
    def geo(self):
        return self.arch.geo

    @property
    def num_layers(self):
        return self.arch.num_layers

    @property
    def maps(self):
        """Always (): the engine holds no index maps.  Kept because the
        benchmark's traced tap counters (perfbench/spans.py) read it; they
        report 0."""
        return ()


def build_maps(architecture):
    """Materialize index maps for every layer.

    The engine does not use them.  Kept as the paper's index sets for the
    tests' oracles, and because the benchmark's tracer wraps it."""
    layers = range(architecture.num_layers)
    maps = tuple(shapes_mod.build_layer_maps(architecture, i) for i in layers)
    pools = tuple(shapes_mod.build_pool_maps(architecture, i) for i in layers)
    return maps, pools


def layer_draws(plan, seed):
    """Each layer's full (C, S) weights, iid zero-mean normal with the
    plan's std dev and drawn from one stream layer by layer, with its (C,)
    biases, which are zero.  A zero std dev draws nothing.  sample_parameters
    and the weight-file writer both read this stream, so a file and a net
    of the same seed hold the same numbers.  Nothing here keeps a layer
    once it is yielded."""
    rng = np.random.default_rng(seed)

    def normal(sigma, shape):
        return np.zeros(shape) if sigma == 0.0 else rng.normal(0.0, sigma, size=shape)

    for row in plan.rows:
        g = row.shape
        yield normal(row.sigma_w, (g.channels, g.s_len)), np.zeros(g.channels)


def sample_parameters(architecture, plan, seed) -> VectorNet:
    """Draw the plan's weights and keep each conv layer's live-tap block."""
    geo = architecture.geo
    if tuple(row.shape for row in plan.rows) != geo:
        raise ValueError(
            f"plan for {plan.arch_name} ({len(plan.rows)} layers) does not fit "
            f"the shapes of {architecture.name} ({len(geo)} layers)"
        )
    lowerings = tuple(_lowering(spec, g) for spec, g in zip(architecture.layers, geo))
    weights, biases = [], []
    draws = layer_draws(plan, seed)
    for low in lowerings:
        # not zip: its reused result tuple would keep this full draw alive
        # while the next one is drawn
        w, b = next(draws)
        weights.append(low.live(w))
        biases.append(b)
        del w
    return VectorNet(
        arch=architecture, weights=tuple(weights), biases=tuple(biases),
        lowerings=lowerings,
    )


def dense_weights(net, layer):
    """Layer's weights as the full (C, S) kernel matrix, zero at the taps
    outside the live rectangle."""
    low, w = net.lowerings[layer], net.weights[layer]
    if low.kernel == low.full:
        return w
    rows, cols = low.window
    full = np.zeros((low.out[0], low.image[0], *low.full))
    full[:, :, rows, cols] = w.reshape(low.out[0], low.image[0], *low.kernel)
    return full.reshape(low.out[0], -1)


@dataclass
class SignalTrace:
    """Forward (and optionally backward) signals of one evaluation batch.

    Lists are indexed by layer (0-based); z[0] is the input.  Signals are
    (M, B) arrays, M in first-axis-fastest order.  A trace keeps what
    backward() and the Monte Carlo estimates read: u (the ReLU masks), z
    and, per max-pooled layer, the winning window tap of every (image,
    channel, window) as a (B, C, H, W) integer array in winners (else
    None).  Backward fields are filled by backward(); gradients for
    weights/biases appear in d_weights/d_biases when requested.
    """

    u: list = field(default_factory=list)
    z: list = field(default_factory=list)        # z[ell], ell = 0..L
    winners: list = field(default_factory=list)  # per layer, or None
    du: list = field(default_factory=list)
    dv: list = field(default_factory=list)
    dz: list = field(default_factory=list)       # dz[ell], ell = 0..L
    d_weights: list = field(default_factory=list)
    d_biases: list = field(default_factory=list)

    @property
    def batch(self):
        return self.z[0].shape[1]


def _as_batch(x, m, what):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != m:
        raise ShapeMismatch(f"{what} has {x.shape[0]} entries, expected {m}")
    return x


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
    cols(z) of shape (k, p): k the live kernel length, p the output
    positions.  The live kernel is the kh' x kw' rectangle of the full
    kernel, from origin on, that holds every tap reaching the input; taps
    index it.  taps is None when cols(z) is z itself, reshaped: an FC layer
    (its kernel is its whole input, p = 1) or a 1x1 stride-1 unpadded
    conv."""

    image: tuple[int, int, int]   # input (D, H, W)
    out: tuple[int, int, int]     # output (C, H', W')
    full: tuple[int, int]         # the kernel (kh, kw)
    kernel: tuple[int, int]       # the live rectangle (kh', kw')
    origin: tuple[int, int] = (0, 0)
    taps: list | None = None

    @property
    def k(self):
        return self.image[0] * self.kernel[0] * self.kernel[1]

    @property
    def p(self):
        return self.out[1] * self.out[2]

    @property
    def window(self):
        """The live rectangle's (rows, columns) within the full kernel."""
        (y0, x0), (kh, kw) = self.origin, self.kernel
        return slice(y0, y0 + kh), slice(x0, x0 + kw)

    def live(self, w):
        """The live block of a full (C, S) weight matrix: w itself, no copy,
        when every tap is live."""
        if self.kernel == self.full:
            return w
        rows, cols = self.window
        block = w.reshape(self.out[0], self.image[0], *self.full)[:, :, rows, cols]
        # a copy: a view, even a reshaped one, would keep all of w alive
        return np.ascontiguousarray(block).reshape(self.out[0], -1)


def _lowering(spec, g):
    w, h, d = g.in_shape
    wp, hp, c = g.conv_shape
    if spec.kind == arch_mod.FULLY_CONNECTED:
        return _Lowering((d, h, w), (c, 1, 1), (h, w), (h, w))
    kw, kh = spec.kernel
    (sw, sh), (pw, ph) = spec.stride, spec.padding
    if (kw, kh, sw, sh, pw, ph) == (1, 1, 1, 1, 0, 0):
        return _Lowering((d, h, w), (c, hp, wp), (1, 1), (1, 1))
    taps = _taps((h, w), (hp, wp), (kh, kw), (sh, sw), (ph, pw))
    ys, xs = [t[0] for t in taps], [t[1] for t in taps]
    y0, x0 = min(ys), min(xs)
    return _Lowering(
        (d, h, w), (c, hp, wp), (kh, kw), (max(ys) - y0 + 1, max(xs) - x0 + 1), (y0, x0),
        [(ty - y0, tx - x0, o, i) for ty, tx, o, i in taps],
    )


def _chunks(n_img):
    return [(b0, min(b0 + CHUNK, n_img)) for b0 in range(0, n_img, CHUNK)]


def _cpus():
    """CPUs this process may run on (its affinity mask)."""
    return len(os.sched_getaffinity(0))


def _workers(n_img):
    """Chunks of a batch of n_img images that run at once."""
    return min(_cpus(), len(_chunks(n_img)))


def _each_chunk(n_img, block):
    """Call block(c, b0, b1) for every chunk c, images [b0, b1), of a batch.

    The calling thread and _workers(n_img) - 1 threads started for this
    call take chunks from one queue; a one-chunk batch starts no thread.  A
    thread that cannot start (it needs address space for its stack) leaves
    its share to the others.  Returns once every started thread is joined,
    then raises the exception of the first chunk that failed, if any."""
    chunks = _chunks(n_img)
    todo = queue.SimpleQueue()
    for item in enumerate(chunks):
        todo.put(item)
    errors = [None] * len(chunks)

    def drain():
        while True:
            try:
                c, (b0, b1) = todo.get_nowait()
            except queue.Empty:
                return
            try:
                block(c, b0, b1)
            except Exception as exc:  # re-raised by the calling thread
                errors[c] = exc

    started = []
    for _ in range(_workers(n_img) - 1):
        thread = threading.Thread(target=drain, name="refnet")
        try:
            thread.start()
        except RuntimeError:   # can't start new thread
            break
        started.append(thread)
    drain()
    for thread in started:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _cols(low, x):
    """cols(z) of a chunk of images x, as (n, k, p): a zeroed buffer
    (n, D, kh', kw', H', W') whose entries no tap writes stay 0."""
    n = x.shape[0]
    if low.taps is None:
        return x.reshape(n, low.k, low.p)
    cols = np.zeros((n, low.image[0], *low.kernel, *low.out[1:]))
    for ty, tx, o, i in low.taps:
        cols[:, :, ty, tx][o] = x[i]
    return cols.reshape(n, low.k, low.p)


def _conv_forward(low, w, b, x, out):
    """u = W cols(x) + b of a chunk of images x into out, (n, C, H', W')."""
    np.matmul(w, _cols(low, x), out=out.reshape(x.shape[0], low.out[0], low.p))
    out += b[:, None, None]


def _conv_backward(low, w, du, out):
    """dz = W^T du of a chunk into out, zero on entry: per-image products,
    then each tap's rows added back into the input positions it read."""
    n = du.shape[0]
    du_cols = du.reshape(n, low.out[0], low.p)
    if low.taps is None:
        np.matmul(w.T, du_cols, out=out.reshape(n, low.k, low.p))
        return
    dcols = np.empty((n, low.image[0], *low.kernel, *low.out[1:]))
    np.matmul(w.T, du_cols, out=dcols.reshape(n, low.k, low.p))
    for ty, tx, o, i in low.taps:
        out[i] += dcols[:, :, ty, tx][o]


def _weight_grad(du_cols, cols):
    """dW of a chunk, sum over its images j of du_j cols_j^T, as (C, k).
    The per-image products are added in image order into one array, so no
    (n, C, k) stack is formed; the bits are those of the stack's sum over
    images."""
    dw = np.matmul(du_cols[0], cols[0].T)
    product = np.empty_like(dw)
    for du_j, cols_j in zip(du_cols[1:], cols[1:]):
        dw += np.matmul(du_j, cols_j.T, out=product)
    return dw


def _pool_taps(g):
    (wp, hp, _), (ww, hh, _) = g.conv_shape, g.pool_shape
    (tw, th), (sw, sh), (qw, qh) = g.pool_size, g.pool_stride, g.pool_padding
    return _taps((hp, wp), (hh, ww), (th, tw), (sh, sw), (qh, qw))


def _max_pool(v, g, z, winners):
    """Window max into z and the winning tap (first maximum in window
    order) into winners, zero on entry."""
    tw, _ = g.pool_size
    z.fill(-np.inf)
    for ty, tx, o, i in _pool_taps(g):
        cand, best = v[i], z[o]
        hit = cand > best
        np.maximum(best, cand, out=best)
        np.putmask(winners[o], hit, ty * tw + tx)


def _max_unpool(dz, winners, g, dv):
    """Each window's gradient into its winner's slot of dv, zero on entry."""
    tw, _ = g.pool_size
    for ty, tx, o, i in _pool_taps(g):
        dv[i] += dz[o] * (winners[o] == ty * tw + tx)


def _whole_map(g):
    """The pooling window is the whole map: one window per channel."""
    return g.pool_padding == (0, 0) and g.pool_size == g.conv_shape[:2]


def _average_pool(v, g, z):
    """Window means into z, zero on entry."""
    area = g.pool_size[0] * g.pool_size[1]
    if _whole_map(g):
        # cumsum adds left to right, in the tap loop's order, so the sum is
        # the same to the bit; np.sum would add pairwise
        n, c = v.shape[:2]
        total = np.cumsum(v.reshape(n, c, -1), axis=-1)[..., -1]
        np.divide(total, area, out=z.reshape(n, c))
        return
    for _, _, o, i in _pool_taps(g):
        z[o] += v[i]
    z /= area


def _average_unpool(dz, g, dv):
    """dz / T spread over each window's members into dv, zero on entry."""
    share = dz / (g.pool_size[0] * g.pool_size[1])
    if _whole_map(g):
        dv[...] = share
        return
    for _, _, o, i in _pool_taps(g):
        dv[i] += share[o]


def forward(net: VectorNet, z0) -> SignalTrace:
    """Run the forward chain; z0 is (M0,) or (M0, batch)."""
    g0 = net.geo[0]
    z = _as_batch(z0, g0.m_prev, "input")
    n_img = z.shape[1]
    us, zs, winners = [], [], []
    for spec, g, low in zip(net.arch.layers, net.geo, net.lowerings):
        u = np.empty((n_img, *low.out))
        pooled = (n_img, *reversed(g.pool_shape))
        if g.pool_kind is not None:
            x = np.zeros(pooled)
        elif spec.activation == arch_mod.RELU:
            x = np.empty(u.shape)
        else:
            x = u
        us.append(u)
        zs.append(x)
        if g.pool_kind == arch_mod.MAX:
            tw, th = g.pool_size
            winners.append(np.zeros(pooled, np.min_scalar_type(tw * th - 1)))
        else:
            winners.append(None)

    def block(c, b0, b1):
        x = _images(z[:, b0:b1], g0.in_shape)
        for i, (spec, g) in enumerate(zip(net.arch.layers, net.geo)):
            u, out = us[i][b0:b1], zs[i][b0:b1]
            _conv_forward(net.lowerings[i], net.weights[i], net.biases[i], x, u)
            relu = spec.activation == arch_mod.RELU
            if g.pool_kind is None:
                if relu:
                    np.maximum(u, 0.0, out=out)
            else:
                v = np.maximum(u, 0.0) if relu else u
                if g.pool_kind == arch_mod.MAX:
                    _max_pool(v, g, out, winners[i][b0:b1])
                else:
                    _average_pool(v, g, out)
            x = out

    _each_chunk(n_img, block)
    return SignalTrace(
        u=[_signals(u) for u in us], z=[z] + [_signals(x) for x in zs], winners=winners,
    )


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
    du_top = _as_batch(delta_uL, net.geo[-1].m_prime, "delta_uL")
    n_img = trace.batch
    if du_top.shape[1] != n_img:
        raise ShapeMismatch(
            f"delta_uL batch {du_top.shape[1]} != trace batch {n_img}"
        )
    if any(g.pool_kind == arch_mod.MAX and w is None
           for g, w in zip(net.geo[:-1], trace.winners)):
        raise MissingForwardTrace("forward trace lacks max-pool winners")

    # dz[i] is W^T du[i]; dv[i] is dz[i + 1] through layer i's pooling (the
    # same array when it has none), du[i] is dv[i] through its activation
    dz = [
        np.zeros((n_img, *low.image)) if low.taps else np.empty((n_img, *low.image))
        for low in net.lowerings
    ]
    du = [None] * n
    dv = [None] * n
    du[n - 1] = np.empty((n_img, *net.lowerings[-1].out))
    for i, (spec, g) in enumerate(zip(net.arch.layers[:-1], net.geo[:-1])):
        dv[i] = dz[i + 1] if g.pool_kind is None else np.zeros((n_img, *net.lowerings[i].out))
        du[i] = np.empty(dv[i].shape) if spec.activation == arch_mod.RELU else dv[i]

    def block(c, b0, b1):
        _signals(du[n - 1])[:, b0:b1] = du_top[:, b0:b1]
        for i in range(n - 1, -1, -1):
            low, du_c, dz_c = net.lowerings[i], du[i][b0:b1], dz[i][b0:b1]
            _conv_backward(low, net.weights[i], du_c, dz_c)
            if i == 0:
                break
            # through layer i-1's pooling and activation
            below = net.geo[i - 1]
            dv_c = dv[i - 1][b0:b1]
            if below.pool_kind == arch_mod.MAX:
                _max_unpool(dz_c, trace.winners[i - 1][b0:b1], below, dv_c)
            elif below.pool_kind is not None:
                _average_unpool(dz_c, below, dv_c)
            if net.arch.layers[i - 1].activation == arch_mod.RELU:
                u = _images(trace.u[i - 1][:, b0:b1], below.conv_shape)
                np.multiply(dv_c, u >= 0.0, out=du[i - 1][b0:b1])

    _each_chunk(n_img, block)
    trace.du = [_signals(x) for x in du]
    trace.dv = [_signals(x) for x in dv[:-1]] + [None]
    # dz[L] is the injected gradient itself (z^(L) := v^(L) := u^(L))
    trace.dz = [_signals(x) for x in dz] + [du_top]
    trace.d_weights = [None] * n
    trace.d_biases = [None] * n
    if param_grads:
        for i, low in enumerate(net.lowerings):
            # each chunk's sum over its images, added in chunk order as soon
            # as it is made: one chunk's partial is alive at a time
            du_i = du[i].reshape(n_img, low.out[0], low.p)
            dw = np.zeros((low.out[0], low.k))
            for b0, b1 in _chunks(n_img):
                z_c = _images(trace.z[i][:, b0:b1], net.geo[i].in_shape)
                dw += _weight_grad(du_i[b0:b1], _cols(low, z_c))
            trace.d_weights[i] = dw
            trace.d_biases[i] = du_i.sum(axis=(0, 2))
    return trace


def memory_need(architecture, batch, want_backward):
    """Upper bound on the bytes one draw of batch images holds at once: the
    VectorNet's float64 live-tap weights and biases plus one layer's full
    draw in flight, the signals its trace keeps (u, z, max-pool winners
    and, for backward, du, dv, dz), the drawn input, one signal-sized
    temporary (the square a variance estimate takes), and, for each chunk
    that runs at once (_workers), one chunk's temporaries: its input images,
    one layer's im2col buffer, a pooled layer's activations and the
    pooling's or the ReLU mask's scratch of the same size."""
    geo = architecture.geo
    lows = [_lowering(spec, g) for spec, g in zip(architecture.layers, geo)]
    weights = sum(low.out[0] * (low.k + 1) for low in lows)
    weights += max(g.channels * g.s_len for g in geo)
    per_image = geo[0].m_prev
    for g in geo:
        per_image += g.m_prime + g.m                       # u, z
        if g.pool_kind == arch_mod.MAX:
            per_image += g.m                               # winners (<= 8 bytes)
        if want_backward:
            per_image += 2 * g.m_prime + g.m_prev          # du, dv, dz
    per_image += max(max(g.m_prime, g.m_prev) for g in geo)
    chunk_image = geo[0].m_prev + max(
        low.k * low.p + 2 * g.m_prime for low, g in zip(lows, geo)
    )
    chunks = _workers(batch) * min(CHUNK, batch) * chunk_image
    return 8 * (weights + batch * per_image + chunks)


def check_memory(need, what):
    """Refuse need bytes over the memory this process may use (the soft
    RLIMIT_AS when one is set, else the machine's physical memory) with
    BudgetExceeded; what names the need in the message."""
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > limit:
        raise BudgetExceeded(
            f"{what} need {need / 2**30:.1f} GiB, over the {limit / 2**30:.1f} GiB memory limit"
        )


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
        w = dense_weights(net, i)
        if spec.kind == arch_mod.FULLY_CONNECTED:
            u = w @ z + net.biases[i]
            u_t = None
        else:
            z_t = _to_tensor(z, g.in_shape)
            u_t = naive_conv(
                z_t, w, net.biases[i],
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
