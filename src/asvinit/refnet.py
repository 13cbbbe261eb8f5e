"""Executable network: a map-free per-image engine, plus a naive oracle.

Each conv or FC layer is the paper's linear map over flattened index sets,
u = W * z: every method draws zero biases, so the engine keeps none.  The
engine applies the map without materializing those sets.  Inside the
engine signals are (B, D, H, W) arrays, images outermost, so one image is
one C-contiguous (D, H, W) block and its flattening is the paper's
first-axis-fastest order (w fastest, then h, then d).  The public
signals in a SignalTrace are (M, B) arrays in that order: a (B, D, H, W)
array's .reshape(B, -1).T, a view with no copy.

A live tap is a kernel position (ty, tx) that lands inside the input for
at least one output position (shapes.tap_ranges); a dead tap only ever
multiplies zero padding, so its weights change no signal.  Each conv layer
has one lowering, built once by sample_parameters and kept on the
VectorNet: the bounding rectangle kh' x kw' of its live taps.  The net
keeps only the weights of that rectangle, (C, D*kh'*kw'), which is the
full (C, S) matrix whenever every tap is live (FC and 1x1 layers always,
the built-ins at 224x224).  dense_weights gives the full matrix back,
zero at the dropped taps, for the naive oracle.

The weights are one seeded stream of normals, drawn layer by layer as
rng.normal(0.0, sigma, (C, S)) would draw them, to the bit, dead taps
included, but for a layer of sigma 0: it is all zeros and draws nothing,
so the next layer's normals are the ones numpy's call for it would have
drawn.  weight_blocks is that stream: each layer in blocks of whole
rows, at most DRAW_BLOCK normals each (never less than one row), drawn
into one scratch buffer.  sample_parameters copies each block's live
columns into its rows of the weights, and the weight-file writer
(cli.write_weights) writes each block as it comes, so neither holds a
layer's full draw.

Every normal, weights and simulate's inputs alike, comes from a
NormalStream, which draws a long stream on two threads to the bits of one.
numpy's ziggurat reads one raw 64-bit draw per normal, except on its slow
path (about 2% of normals), where it reads a few more.  So two walks over
the same raws that start at different raws give the same normals from the
first raw at which both begin one: from there on they read the same raws
the same way.  A helper thread that starts LEAD raws short of where the
calling thread's segment should end (at RAWS_PER_NORMAL raws per normal)
soon repeats the segment's last normals.  OVERLAP of them equal in a row
(each normal fixes 61 bits of its first raw) mark where it joined the
stream; from there on its normals, and its end state, are the stream's.
The calling thread checks every join.  The first round that does not
join ends the helper, and the calling thread draws the rest of the stream
alone, so a miss costs one round's time, not bits.  A stream of at most
ROUND normals (toy's weights, a small batch), one CPU or a refused thread
start draws on the calling thread alone, and the helper is joined when its
stream closes, so none outlives the call that drew it.

The engine runs a batch as a pipeline of chunks of CHUNK images, and the
layer loop exists once: _forward_chunk takes a chunk through every layer
(conv, activation, pooling) and _backward_chunk takes it back down (conv^T,
unpooling, the ReLU mask) to a given interface, each writing into
per-layer arrays of the chunk's images.  forward() and backward() allocate
the trace's arrays once and hand each chunk its slices; backward() goes
down to interface 0, the input's gradient.  signal_moments(), which
simulate runs, keeps no trace: each chunk runs forward and back down to
interface 1 (no estimate reads dz[0]) in arrays of its own size, keeping
between the passes what backward reads: every layer's u and z.  It
leaves the (sum x, sum x^2) of every u and of dz at interfaces 1..L-1,
np.add.reduce over the chunk's block; the calling thread adds the
chunks' sums in chunk order.  Chunks run on min(CPUs in
the process's affinity mask, chunks) threads at once: the calling thread
and threads started for that call, all joined before it returns, so none
is kept between calls and a one-chunk batch starts none.  numpy releases the
interpreter lock inside its products and array loops, so the threads
overlap.  A thread that cannot start leaves its chunks to the others.

Conv layers are lowered to matrix products (im2col): for a chunk of
n <= CHUNK images the padded, strided live taps are gathered into a
(n, D*kh'*kw', H'*W') buffer whose rows run (d, ty, tx) like the columns
of w, and u = np.matmul(w, buffer).  Only the in-bounds positions of each
tap are copied; the buffer's other entries stay 0, which is the zero
padding.  Every layer is lowered through its conv view (shapes.conv_view),
in which an FC layer is a 1x1 conv over its M_prev inputs as the channels
of a 1x1 map, read through one tap.  Backward is the transpose:
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
signal_moments' sums are added the same way, so they do not depend on the
threads either.

Pooling loops over window taps on strided slices.  Max pooling keeps only
the running maximum, from -inf.  Max unpooling recomputes the layer's
activations v and sends each window's gradient to the first member in
window order (x fastest, then y) whose v equals the pooled z: np.maximum
returns one of its inputs bit for bit, so the test is exact.
Average pooling sums the in-bounds members (padding counts as 0) and
divides by the nominal window area T; backward spreads dz / T.  A window
that is the whole map (GlobalAverage) takes the same loop, one tap per map
position, so its sum adds the members in window order as well.

A SignalTrace keeps only the signals something reads; a pooled layer's
activations are a per-chunk temporary.  The Monte Carlo estimates need no
trace: they read signal_moments' sums, whose bits are those of one
reduction over the whole signal when the batch is one chunk (B <= CHUNK)
and, past that, a few ulp away, since the chunks' partial sums are added
in chunk order.  memory_need bounds, from the shapes alone, the bytes one
simulate draw (sample_parameters and signal_moments) holds at once: the
weights and the drawn batch, and one chunk's signals and temporaries per
thread.  check_memory holds a need against the memory this process may
use; simulate (through montecarlo) calls it before it allocates.

naive_forward walks the same layers with plain nested loops over tensor
indices; it exists as an independent oracle for the vectorized path.
"""

from __future__ import annotations

import contextlib
import os
import queue
import resource
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import BudgetExceeded, MissingForwardTrace, ShapeMismatch

# images per im2col buffer: bounds the buffer, not a tuning option
CHUNK = 32
# normals per block of a layer's draw: bounds the scratch buffer,
# not a tuning option
DRAW_BLOCK = 1 << 15
# a NormalStream's round: the calling thread draws SEGMENT normals, its
# helper at least RUN more, from RUN + WINDOW drawn, which join the stream
# where OVERLAP of them repeat the segment's last; not tuning options
SEGMENT = 48_000
RUN = 56_000
WINDOW = 1_024
OVERLAP = 128
ROUND = SEGMENT + RUN + WINDOW
# raws the helper starts short of the segment's expected end: the middle
# of the window
LEAD = WINDOW // 2
# raw 64-bit draws per normal of numpy's ziggurat (one, but for its slow
# path): 2,872 +- 54 raws over 131,072 normals, as PCG64 state distance
RAWS_PER_NORMAL = 1.0219


@dataclass(frozen=True)
class VectorNet:
    """Sampled weights of one architecture; biases are zero for every
    method, so none are kept.

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


def _draw_ahead(state, free, done):
    """The helper thread of a NormalStream, from the stream's start state:
    fill each free buffer with the normals that start LEAD raws short of
    where a segment from the previous buffer's end (from state, for the
    first) should end, and hand it back with its end state; stop at None.
    Its last word is None, which tells a waiting stream that it is gone."""
    try:
        bits = np.random.PCG64(0)
        bits.state = state
        gen = np.random.Generator(bits)
        while (buf := free.get()) is not None:
            bits.advance(int(SEGMENT * RAWS_PER_NORMAL) - LEAD)
            gen.standard_normal(out=buf)
            done.put((buf, bits.state))
    finally:
        done.put(None)


class NormalStream:
    """count standard normals of one seeded stream, handed out in order by
    fill, with the bits np.random.default_rng(seed) draws them.

    Past one round (SEGMENT + RUN + WINDOW normals) and with two CPUs, a
    helper thread draws part of the stream: in each round the calling
    thread draws SEGMENT normals exactly, while the helper, started LEAD
    raws short of the segment's expected end, draws RUN + WINDOW normals
    into one of two buffers.  Where its first WINDOW normals repeat the
    segment's last OVERLAP, the helper's walk has joined the stream: its
    normals from there on, and its end state, are the stream's.  The
    helper starts each round from its previous end state, so it runs up
    to one round ahead.  The first round that does not join, or a helper
    that is gone, ends the helper, and the calling thread draws the rest.
    One CPU, a short stream or a thread that cannot start draw every
    normal on the calling thread.  close (or leaving a with block) stops
    and joins the helper; joins lists each round's join offset, None for
    the miss that ended the helper."""

    def __init__(self, seed, count):
        self._rng = np.random.default_rng(seed)
        self._left = count        # normals not yet handed out
        self._own = count         # left in the calling thread's segment
        self._buf, self._pos, self._end, self._state = None, 0, 0, None
        self._tail = np.zeros(OVERLAP)
        self._jobs = 0            # buffers with the helper
        self._helper = None
        self.joins = []
        if count > ROUND and _cpus() > 1:
            self._free, self._done = queue.SimpleQueue(), queue.SimpleQueue()
            # a daemon, and stopped when the stream is collected, so that a
            # stream nobody closes holds up neither exit nor a thread
            thread = threading.Thread(
                target=_draw_ahead, args=(self._rng.bit_generator.state, self._free, self._done),
                name="refnet-normals", daemon=True,
            )
            try:
                thread.start()
            except RuntimeError:   # can't start new thread
                pass
            else:
                self._helper = thread
                self._stop = weakref.finalize(self, self._free.put, None)
                self._give(np.empty(RUN + WINDOW))
                if count > SEGMENT + ROUND:
                    self._give(np.empty(RUN + WINDOW))
                self._own = SEGMENT

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._helper is not None:
            self._stop()
            self._helper.join()
            self._helper = None
            self._jobs = 0

    def fill(self, out, sigma):
        """Fill out, a C-contiguous float64 array, with the stream's next
        out.size normals as rng.normal(0.0, sigma, out.shape) returns them:
        numpy's normal is loc + scale * z, and adding 0.0 turns a -0.0 into
        +0.0 as it does.  A zero std dev draws nothing and fills zeros."""
        if sigma == 0.0:
            out.fill(0.0)
            return
        flat = out.reshape(-1)
        if flat.size > self._left:
            raise ValueError(f"{flat.size} normals asked of a stream with {self._left} left")
        i = 0
        while i < flat.size:
            if self._own == 0 and self._pos == self._end:
                self._turn()
            if self._own:
                piece = flat[i:i + min(self._own, flat.size - i)]
                self._rng.standard_normal(out=piece)
                self._own -= piece.size
                n = min(piece.size, OVERLAP)
                self._tail[:OVERLAP - n] = self._tail[n:]
                self._tail[OVERLAP - n:] = piece[piece.size - n:]
            else:
                piece = flat[i:i + min(self._end - self._pos, flat.size - i)]
                piece[...] = self._buf[self._pos:self._pos + piece.size]
                self._pos += piece.size
            self._left -= piece.size
            i += piece.size
        flat *= sigma
        flat += 0.0

    def _give(self, buf):
        """Hand the helper a buffer to fill with the next round."""
        self._jobs += 1
        self._free.put(buf)

    def _turn(self):
        """Begin the next stretch of the stream once the current one is
        used up."""
        if self._buf is not None:
            # the helper's normals are used up: its end state is exact
            self._rng.bit_generator.state = self._state
            if self._left > SEGMENT + ROUND:
                self._give(self._buf)
            self._buf = None
        else:
            self._jobs -= 1
            job = self._done.get()
            offset = None if job is None else self._join(job[0])
            if job is not None:
                self.joins.append(offset)
            if offset is not None:
                self._buf, self._state = job
                self._pos, self._end = offset, min(len(self._buf), offset + self._left)
                return
            # the calling thread is at its segment's exact end: it draws
            # the rest
            self.close()
        self._own = SEGMENT if self._jobs else self._left

    def _join(self, buf):
        """The index in buf of the first normal past the calling thread's
        segment: the first place within WINDOW where OVERLAP normals of
        buf equal the segment's last OVERLAP.  None when there is none."""
        for j in np.flatnonzero(buf[:WINDOW - OVERLAP + 1] == self._tail[0]):
            if np.array_equal(buf[j:j + OVERLAP], self._tail):
                return j + OVERLAP
        return None


def seeded_normal(seed, shape):
    """The bits np.random.default_rng(seed).normal(0.0, 1.0, shape)
    returns, drawn through a NormalStream."""
    out = np.empty(shape)
    with NormalStream(seed, out.size) as stream:
        stream.fill(out, 1.0)
    return out


def _block_rows(g):
    """Rows of layer shape g's full (C, S) draw per block: at most
    DRAW_BLOCK normals, never less than one row."""
    return min(g.channels, max(1, DRAW_BLOCK // g.s_len))


def _draw_scratch(geo):
    """Floats of the buffer every layer is drawn through: one block of the
    largest."""
    return max(_block_rows(g) * g.s_len for g in geo)


def weight_blocks(plan, seed):
    """The plan's weights, one seeded stream: yields (layer, first_row,
    block) in stream order, layer 0-based and block a (rows, S) run of
    whole rows of the layer's full (C, S) draw, dead taps included, with
    the bits rng.normal(0.0, sigma, (C, S)) gives.  Every block is a view
    of one scratch buffer, which the next block overwrites.  The stream's
    helper thread stops when the generator ends or is closed: a caller
    that may stop early closes it (contextlib.closing)."""
    geo = [row.shape for row in plan.rows]
    count = sum(g.channels * g.s_len for row, g in zip(plan.rows, geo) if row.sigma_w != 0.0)
    scratch = np.empty(_draw_scratch(geo))
    with NormalStream(seed, count) as stream:
        for i, (row, g) in enumerate(zip(plan.rows, geo)):
            step = _block_rows(g)
            for r0 in range(0, g.channels, step):
                block = scratch[:min(step, g.channels - r0) * g.s_len].reshape(-1, g.s_len)
                stream.fill(block, row.sigma_w)
                yield i, r0, block


def sample_parameters(architecture, plan, seed) -> VectorNet:
    """Draw the plan's weights, keeping each conv layer's live-tap block."""
    geo = architecture.geo
    if tuple(row.shape for row in plan.rows) != geo:
        raise ValueError(
            f"plan for {plan.arch_name} ({len(plan.rows)} layers) does not fit "
            f"the shapes of {architecture.name} ({len(geo)} layers)"
        )
    lowerings = tuple(_lowering(spec, g) for spec, g in zip(architecture.layers, geo))
    weights = tuple(np.empty((low.out[0], low.k)) for low in lowerings)
    with contextlib.closing(weight_blocks(plan, seed)) as blocks:
        for i, r0, block in blocks:
            low = lowerings[i]
            live = weights[i].reshape(low.out[0], low.image[0], *low.kernel)
            live[r0:r0 + len(block)] = low.live(block)
    return VectorNet(arch=architecture, weights=weights, lowerings=lowerings)


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
    backward() and its callers read: u (the ReLU masks, and the
    activations max unpooling recomputes to compare with z) and z.
    Backward fields are filled by backward(); weight gradients appear in
    d_weights when requested.  The Monte Carlo estimates build no trace:
    they read signal_moments' sums.
    """

    u: list = field(default_factory=list)
    z: list = field(default_factory=list)        # z[ell], ell = 0..L
    du: list = field(default_factory=list)
    dv: list = field(default_factory=list)
    dz: list = field(default_factory=list)       # dz[ell], ell = 0..L
    d_weights: list = field(default_factory=list)

    @property
    def batch(self):
        return self.z[0].shape[1]


def _as_batch(x, m, what):
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != m:
        raise ShapeMismatch(f"{what} has {x.shape[0]} entries, expected {m}")
    if x.shape[1] == 0:
        raise ShapeMismatch(f"{what} has no columns: a batch needs at least one")
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
    """A layer's conv view (shapes.conv_view) as the per-image product
    u = w @ cols(z), with cols(z) of shape (k, p): k the live kernel
    length, p the output positions.  The live kernel is the kh' x kw'
    rectangle of the full kernel, from origin on, that holds every tap
    reaching the input; taps index it, over the view's input (for an FC
    layer (M_prev, 1, 1), one tap).  pool holds a pooled layer's window
    taps (ty, tx, out_index, in_index) over the conv output, in window
    order; None without a pool."""

    image: tuple[int, int, int]   # the view's input (D, H, W)
    out: tuple[int, int, int]     # output (C, H', W')
    full: tuple[int, int]         # the kernel (kh, kw)
    kernel: tuple[int, int]       # the live rectangle (kh', kw')
    origin: tuple[int, int]
    taps: list
    pool: list | None

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
        """The live taps of any number of full weight rows, n * S floats in
        row order, as an (n, D, kh', kw') view."""
        rows, cols = self.window
        return w.reshape(-1, self.image[0], *self.full)[:, :, rows, cols]


def _live_kernel(view, conv_shape):
    """The bounding rectangle (kh', kw') of the live taps of a layer's
    conv view (shapes.conv_view) and the rectangle's first tap (ty, tx):
    closed form per axis (shapes.live_taps), no tap list."""
    (w, h, _), (kw, kh), (sw, sh), (pw, ph) = view
    wp, hp, _ = conv_shape
    (y0, y1), (x0, x1) = (
        shapes_mod.live_taps(*axis) for axis in ((h, kh, ph, sh, hp), (w, kw, pw, sw, wp))
    )
    return (y1 - y0, x1 - x0), (y0, x0)


def _lowering(spec, g):
    view = shapes_mod.conv_view(spec, g.in_shape)
    (w, h, d), (kw, kh), (sw, sh), (pw, ph) = view
    wp, hp, c = g.conv_shape
    kernel, (y0, x0) = _live_kernel(view, g.conv_shape)
    pool = None
    if g.pool_kind is not None:
        (ww, hh, _), (tw, th) = g.pool_shape, g.pool_size
        (qw, qh), (tsw, tsh) = g.pool_padding, g.pool_stride
        pool = _taps((hp, wp), (hh, ww), (th, tw), (tsh, tsw), (qh, qw))
    taps = _taps((h, w), (hp, wp), (kh, kw), (sh, sw), (ph, pw))
    return _Lowering(
        (d, h, w), (c, hp, wp), (kh, kw), kernel, (y0, x0),
        [(ty - y0, tx - x0, o, i) for ty, tx, o, i in taps], pool,
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
    """cols(z) of a chunk of images x (read as the view's input), as (n, k,
    p): a zeroed buffer (n, D, kh', kw', H', W'), 0 where no tap writes."""
    n = x.shape[0]
    x = x.reshape(n, *low.image)
    cols = np.zeros((n, low.image[0], *low.kernel, *low.out[1:]))
    for ty, tx, o, i in low.taps:
        cols[:, :, ty, tx][o] = x[i]
    return cols.reshape(n, low.k, low.p)


def _conv_forward(low, w, x, out):
    """u = W cols(x) of a chunk of images x into out, (n, C, H', W')."""
    np.matmul(w, _cols(low, x), out=out.reshape(x.shape[0], low.out[0], low.p))


def _conv_backward(low, w, du, out):
    """dz = W^T du of a chunk into out (read as the view's input), zero on
    entry: per-image products, then each tap's rows added back into the
    input positions it read."""
    n = du.shape[0]
    out = out.reshape(n, *low.image)
    dcols = np.empty((n, low.image[0], *low.kernel, *low.out[1:]))
    np.matmul(w.T, du.reshape(n, low.out[0], low.p), out=dcols.reshape(n, low.k, low.p))
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


def _max_pool(v, taps, z):
    """Window max over the window taps into z."""
    z.fill(-np.inf)
    for _, _, o, i in taps:
        best = z[o]
        np.maximum(best, v[i], out=best)


def _max_unpool(dz, v, z, taps, dv):
    """Each window's gradient into dv, zero on entry, at the first member
    in window order whose v equals the window's max z.  np.maximum returns
    one of its inputs, so the test is exact; a NaN max matches no member."""
    taken = np.zeros(z.shape, bool)
    for _, _, o, i in taps:
        hit = (v[i] == z[o]) & ~taken[o]
        taken[o] |= hit
        dv[i] += dz[o] * hit


def _average_pool(v, g, taps, z):
    """Window means over the window taps into z, zero on entry."""
    for _, _, o, i in taps:
        z[o] += v[i]
    z /= g.t


def _average_unpool(dz, g, taps, dv):
    """dz / T spread over each window's members into dv, zero on entry."""
    share = dz / g.t
    for _, _, o, i in taps:
        dv[i] += share[o]


def _forward_arrays(net, n_img):
    """Per layer, the arrays a forward pass of n_img images writes: u and
    the layer's output (u itself without activation and pooling; zeroed
    when pooled, since average pooling adds into it)."""
    us, zs = [], []
    for spec, g, low in zip(net.arch.layers, net.geo, net.lowerings):
        u = np.empty((n_img, *low.out))
        if g.pool_kind is not None:
            x = np.zeros((n_img, *reversed(g.pool_shape)))
        elif spec.activation == arch_mod.RELU:
            x = np.empty(u.shape)
        else:
            x = u
        us.append(u)
        zs.append(x)
    return us, zs


def _forward_chunk(net, x, us, zs):
    """Take a chunk of images x, (n, D, H, W), through every layer: layer
    i's u and output go into us[i] and zs[i], arrays of n images as
    _forward_arrays makes them."""
    for i, (spec, g) in enumerate(zip(net.arch.layers, net.geo)):
        u, out, low = us[i], zs[i], net.lowerings[i]
        _conv_forward(low, net.weights[i], x, u)
        relu = spec.activation == arch_mod.RELU
        if g.pool_kind is None:
            if relu:
                np.maximum(u, 0.0, out=out)
        else:
            v = np.maximum(u, 0.0) if relu else u
            if g.pool_kind == arch_mod.MAX:
                _max_pool(v, low.pool, out)
            else:
                _average_pool(v, g, low.pool, out)
        x = out


def _backward_arrays(net, n_img, lowest):
    """Per layer i >= lowest, the arrays a backward pass of n_img images
    down to interface lowest writes: dz[i] is W^T du[i] (zeroed, since taps
    add into it); dv[i] is dz[i + 1] through layer i's pooling (the same
    array when it has none; None at the top); du[i] is dv[i] through its
    activation (at the top, the injected gradient).  None below lowest."""
    n = net.num_layers
    du, dv, dz = [None] * n, [None] * n, [None] * n
    for i in range(n - 1, lowest - 1, -1):
        low = net.lowerings[i]
        # the layer's real input images, which the layer below reads
        image = (n_img, *reversed(net.geo[i].in_shape))
        dz[i] = np.zeros(image)
        if i == n - 1:
            du[i] = np.empty((n_img, *low.out))
            continue
        dv[i] = dz[i + 1] if net.geo[i].pool_kind is None else np.zeros((n_img, *low.out))
        du[i] = np.empty(dv[i].shape) if net.arch.layers[i].activation == arch_mod.RELU else dv[i]
    return du, dv, dz


def _backward_chunk(net, top, us, zs, du, dv, dz, lowest):
    """Take a chunk's top gradient, (M_L, n) signals, down through every
    layer i >= lowest into du, dv and dz, arrays of n images as
    _backward_arrays makes them: the last is dz[lowest], the gradient at
    interface lowest.  us[i] and zs[i] are the chunk's forward u,
    (n, C, H', W'), and output of layer i."""
    n = net.num_layers
    for i in range(n - 1, lowest - 1, -1):
        if i == n - 1:
            _signals(du[i])[...] = top
        else:
            # dz[i + 1] back through layer i's pooling and activation
            g, taps = net.geo[i], net.lowerings[i].pool
            relu = net.arch.layers[i].activation == arch_mod.RELU
            if g.pool_kind == arch_mod.MAX:
                v = np.maximum(us[i], 0.0) if relu else us[i]
                _max_unpool(dz[i + 1], v, zs[i], taps, dv[i])
            elif g.pool_kind is not None:
                _average_unpool(dz[i + 1], g, taps, dv[i])
            if relu:
                np.multiply(dv[i], us[i] >= 0.0, out=du[i])
        _conv_backward(net.lowerings[i], net.weights[i], du[i], dz[i])


def _rows(arrays, b0, b1):
    """Images [b0, b1) of each per-layer array (None stays None)."""
    return [None if x is None else x[b0:b1] for x in arrays]


def forward(net: VectorNet, z0) -> SignalTrace:
    """Run the forward chain; z0 is (M0,) or (M0, batch)."""
    g0 = net.geo[0]
    z = _as_batch(z0, g0.m_prev, "input")
    n_img = z.shape[1]
    us, zs = _forward_arrays(net, n_img)

    def block(c, b0, b1):
        x = _images(z[:, b0:b1], g0.in_shape)
        _forward_chunk(net, x, _rows(us, b0, b1), _rows(zs, b0, b1))

    _each_chunk(n_img, block)
    return SignalTrace(u=[_signals(u) for u in us], z=[z] + [_signals(x) for x in zs])


def _top_gradient(net, delta_uL, n_img):
    du_top = _as_batch(delta_uL, net.geo[-1].m_prime, "delta_uL")
    if du_top.shape[1] != n_img:
        raise ShapeMismatch(
            f"delta_uL batch {du_top.shape[1]} != trace batch {n_img}"
        )
    return du_top


def backward(net: VectorNet, trace: SignalTrace, delta_uL=None, param_grads=False):
    """Fill the backward half of a trace.

    delta_uL defaults to u^(L), i.e. the gradient of E = 0.5 * ||u^(L)||^2.
    Max pooling routes each window's gradient to its first member equal to
    the window's max; average pooling spreads it as 1/T; the ReLU
    subgradient at 0 is 1.  With param_grads, d_weights[i] is dE/dW of
    layer i in its live shape.
    """
    n = net.num_layers
    if len(trace.u) != n or len(trace.z) != n + 1:
        raise MissingForwardTrace("run forward() before backward(): it reads every u and z")
    n_img = trace.batch
    du_top = _top_gradient(net, trace.u[-1] if delta_uL is None else delta_uL, n_img)
    du, dv, dz = _backward_arrays(net, n_img, lowest=0)

    def block(c, b0, b1):
        us = [_images(u[:, b0:b1], g.conv_shape) for u, g in zip(trace.u[:-1], net.geo)]
        zs = [_images(x[:, b0:b1], g.pool_shape) for x, g in zip(trace.z[1:-1], net.geo)]
        _backward_chunk(
            net, du_top[:, b0:b1], us, zs,
            _rows(du, b0, b1), _rows(dv, b0, b1), _rows(dz, b0, b1), lowest=0,
        )

    _each_chunk(n_img, block)
    trace.du = [_signals(x) for x in du]
    trace.dv = [_signals(x) for x in dv[:-1]] + [None]
    # dz[L] is the injected gradient itself (z^(L) := v^(L) := u^(L))
    trace.dz = [_signals(x) for x in dz] + [du_top]
    trace.d_weights = [None] * n
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
    return trace


def _sums(x):
    """(sum x, sum x^2) of a C-contiguous array: np.add.reduce over its
    block."""
    flat = x.reshape(-1)
    return np.add.reduce(flat), np.add.reduce(flat * flat)


def _chunk_moments(net, z, du_top, b0, b1):
    """(sum x, sum x^2) rows of images [b0, b1): every u, then (given du_top)
    dz at interfaces 1..L-1.  The chunk runs forward and back down to
    interface 1 in arrays of its own size and keeps, between the passes,
    what backward reads: every u and z.  A signal that overflows gives inf
    or NaN without a warning."""
    # errstate is per thread: set here, on whichever thread runs the chunk
    with np.errstate(over="ignore", invalid="ignore"):
        us, zs = _forward_arrays(net, b1 - b0)
        _forward_chunk(net, _images(z[:, b0:b1], net.geo[0].in_shape), us, zs)
        signals = us
        if du_top is not None:
            du, dv, dz = _backward_arrays(net, b1 - b0, 1)
            _backward_chunk(net, du_top[:, b0:b1], us, zs, du, dv, dz, 1)
            signals = us + dz[1:]
        return np.array([_sums(x) for x in signals])


def signal_moments(net: VectorNet, z0, delta_uL=None):
    """Per-layer (sum x, sum x^2) over every entry of the signals forward (and,
    given the top gradient delta_uL, backward) would trace, without
    keeping a trace.

    Returns (u, dz): u is (L, 2), row i the sums of u^(i+1) (trace.u[i]);
    dz is (L-1, 2), row i the sums of dz at interface i+1 (trace.dz[i+1],
    the gradient at layer i+2's input), or None without delta_uL.  The
    backward pass stops at interface 1: layer 1's conv^T, and the unpooling
    and ReLU mask into it, never run.  Each chunk's sums are np.add.reduce
    over its block of the signal, and the calling thread adds them in
    chunk order, so a one-chunk batch gives the whole-array reduction's
    bits."""
    g0 = net.geo[0]
    z = _as_batch(z0, g0.m_prev, "input")
    n_img = z.shape[1]
    du_top = None if delta_uL is None else _top_gradient(net, delta_uL, n_img)
    parts = [None] * len(_chunks(n_img))

    def block(c, b0, b1):
        parts[c] = _chunk_moments(net, z, du_top, b0, b1)

    _each_chunk(n_img, block)
    total = parts[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for part in parts[1:]:
            total = total + part
    n = net.num_layers
    return total[:n], None if du_top is None else total[n:]


def memory_need(architecture, batch, want_backward):
    """Upper bound on the bytes one simulate draw of batch images holds at
    once (signal_moments streams it chunk by chunk): the VectorNet's
    float64 live-tap weights (each live rectangle sized in closed form,
    with no list of taps) plus the buffer they are drawn through and the
    two buffers of its NormalStream's helper; the drawn input, its
    square (z0's variance) and, for backward, the injected top gradient;
    and, for each chunk that runs at once (_workers), one chunk's signals
    (u, z, the max unpooling's mask and, for backward, du, dv, dz of layers
    2..L) and temporaries: its input images, one layer's im2col buffer, a
    pooled layer's activations and the pooling's or the ReLU mask's scratch
    of the same size, and a signal's square.  So the signals grow with
    min(batch, _workers(batch) * CHUNK) images, not batch."""
    geo = architecture.geo
    weights = _draw_scratch(geo) + 2 * (RUN + WINDOW)
    cols = 0
    for spec, g in zip(architecture.layers, geo):
        view = shapes_mod.conv_view(spec, g.in_shape)
        (kh, kw), _ = _live_kernel(view, g.conv_shape)
        k = view[0][2] * kh * kw
        weights += g.channels * k
        cols = max(cols, k * g.conv_shape[0] * g.conv_shape[1] + 2 * g.m_prime)
    draw = 2 * geo[0].m_prev + (geo[-1].m_prime if want_backward else 0)
    per_image = geo[0].m_prev
    for g in geo:
        per_image += g.m_prime + g.m                       # u, z
        if g.pool_kind == arch_mod.MAX:
            per_image += g.m                               # unpooling's mask (1 byte)
    if want_backward:
        # du, dv, dz: the stream stops at interface 1
        per_image += sum(2 * g.m_prime + g.m_prev for g in geo[1:])
    per_image += max(max(g.m_prime, g.m_prev) for g in geo)
    per_image += cols
    chunks = _workers(batch) * min(CHUNK, batch) * per_image
    return 8 * (weights + batch * draw + chunks)


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


# ---------------------------------------------------------------------------
# Naive tensor-loop oracle
# ---------------------------------------------------------------------------

def _to_tensor(vec, shape):
    return np.asarray(vec, dtype=float).reshape(shape, order="F")


def _from_tensor(t):
    return t.reshape(-1, order="F")


def naive_conv(z_tensor, w_rows, kernel, stride, padding):
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
                acc = 0.0
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
            u = w @ z
        else:
            z_t = _to_tensor(z, g.in_shape)
            u = _from_tensor(naive_conv(z_t, w, spec.kernel, spec.stride, spec.padding))
        us.append(u)
        v = np.maximum(u, 0.0) if spec.activation == arch_mod.RELU else u
        if g.pool_kind is None:
            z = v
        else:
            v_t = _to_tensor(v, g.conv_shape)
            z_t = naive_pool(v_t, g.pool_kind, g.pool_size, g.pool_stride, g.pool_padding)
            z = _from_tensor(z_t)
        zs.append(z)
    return us, zs
