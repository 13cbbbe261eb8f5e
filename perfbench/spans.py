"""Spans around the program's public functions, recorded from outside.

The asvinit modules call each other through module attributes
(``refnet.forward``, ``shapes_mod.infer_shapes``, the ``tau`` global, ...),
so replacing those attributes with timing wrappers catches every call
without touching the program.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

# (module, attribute); "Class.method" names a classmethod
TARGETS = (
    ("arch", "parse_architecture"), ("arch", "builtin"), ("arch", "validate"),
    ("shapes", "infer_shapes"), ("shapes", "ShapeReport.build"),
    ("shapes", "build_layer_maps"), ("shapes", "build_forward_maps"),
    ("shapes", "build_backward_maps"), ("shapes", "build_pool_maps"),
    ("variance", "init_plan"), ("variance", "plan_from_sigmas"),
    ("variance", "layer_constants"), ("variance", "tau"), ("variance", "gamma"),
    ("variance", "predict_forward"), ("variance", "predict_backward"),
    ("refnet", "build_maps"), ("refnet", "sample_parameters"),
    ("refnet", "forward"), ("refnet", "backward"),
    ("montecarlo", "estimate_forward"), ("montecarlo", "estimate_backward"),
    ("montecarlo", "estimate_both"), ("montecarlo", "compare"),
    ("cli", "main"), ("cli", "write_weights"),
)

# the three estimators are one layer boundary
ALIASES = {f"montecarlo.estimate_{d}": "montecarlo.estimate" for d in ("forward", "backward", "both")}


def _map_counts(maps):
    """Taps and computed bytes of one returned ConvMaps/PoolMaps."""
    if maps is None:
        return 0, 0
    arrays = [v for v in vars(maps).values() if hasattr(v, "nbytes")]
    taps = next(
        a.size for a in (getattr(maps, k, None) for k in ("fwd_a", "bwd_h", "members"))
        if a is not None
    )
    return taps, sum(a.nbytes for a in arrays)


def _batch(z):
    return z.shape[1] if getattr(z, "ndim", 1) == 2 else 1


def _count_maps(counts, args, result):
    taps, nbytes = _map_counts(result)
    counts["shapes.map_taps"] += taps
    counts["shapes.map_bytes"] += nbytes


def _count_forward(counts, args, result):
    net, z0 = args[0], args[1]
    counts["refnet.forward.tap_cols"] += sum(m.fwd_s.size for m in net.maps) * _batch(z0)


def _count_backward(counts, args, result):
    net, trace = args[0], args[1]
    counts["refnet.backward.tap_cols"] += sum(m.bwd_j.size for m in net.maps) * trace.batch


def _count_write(counts, args, result):
    counts["cli.write_weights.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "shapes.build_forward_maps": _count_maps,
    "shapes.build_backward_maps": _count_maps,
    "shapes.build_pool_maps": _count_maps,
    "refnet.forward": _count_forward,
    "refnet.backward": _count_backward,
    "cli.write_weights": _count_write,
}


class Tracer:
    """Records (name, start, end, parent span, operation id) per wrapped call."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(
            ("shapes.map_taps", "shapes.map_bytes", "refnet.forward.tap_cols",
             "refnet.backward.tap_cols", "cli.write_weights.bytes"), 0)
        self.op_id = None
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op_id)
            if count is not None:
                count(self.counts, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        restore = []
        try:
            for mod_name, attr in TARGETS:
                owner = importlib.import_module(f"asvinit.{mod_name}")
                name = ALIASES.get(f"{mod_name}.{attr}", f"{mod_name}.{attr}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    original = owner.__dict__[meth]
                    patched = classmethod(self._wrap(name, original.__func__))
                else:
                    meth = attr
                    original = getattr(owner, meth)
                    patched = self._wrap(name, original)
                restore.append((owner, meth, original))
                setattr(owner, meth, patched)
            yield self
        finally:
            for owner, meth, original in reversed(restore):
                setattr(owner, meth, original)

    def summary(self):
        """Per name: calls, total seconds and self seconds (children excluded)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_s + end - start - child[sid])
        return out

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, op, span id."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps([sid, name, start, end, parent, op]) + "\n")
