"""Architecture descriptions: layer specs, validation, JSON parsing, built-ins.

A network is a plain chain of homogeneous layers.  Each layer bundles one
convolution (or fully connected map), one elementwise activation, and an
optional pooling step.  Shapes are (width, height, channels) triples.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
from dataclasses import dataclass, field

from .errors import SchemaError, UnknownName, ValidationError

CONV = "Conv"
FULLY_CONNECTED = "FullyConnected"
RELU = "ReLU"
IDENTITY = "Identity"
MAX = "Max"
AVERAGE = "Average"
GLOBAL_AVERAGE = "GlobalAverage"

_POOL_KINDS = (MAX, AVERAGE, GLOBAL_AVERAGE)


@dataclass(frozen=True)
class Pool:
    """Pooling step of a layer.

    ``size`` is None exactly for GlobalAverage; it is resolved to the full
    spatial extent of the convolution output at shape-inference time.
    ``stride`` defaults to ``size`` (exclusive partition), ``padding`` to 0.
    The variance constants' window cardinality T is the window's area
    (shapes.LayerShape.t), the count the engine's average pool divides by.
    """

    kind: str
    size: tuple[int, int] | None = None
    stride: tuple[int, int] | None = None
    padding: tuple[int, int] = (0, 0)

    def effective_stride(self):
        return self.stride if self.stride is not None else self.size


@dataclass(frozen=True)
class LayerSpec:
    """One homogeneous layer: convolution / fully connected + activation + pool."""

    kind: str
    out_channels: int
    kernel: tuple[int, int] | None = None
    stride: tuple[int, int] = (1, 1)
    padding: tuple[int, int] = (0, 0)
    activation: str = RELU
    pool: Pool | None = None


@dataclass(frozen=True)
class Architecture:
    """An ordered chain of layers applied to a (w, h, d) input.

    geo is every layer's resolved geometry (shapes.LayerShape), inferred on
    first read and kept: the one copy every formula, plan and net reads.
    It is no dataclass field, so it takes no part in ==, hash or
    serialize, and dataclasses.replace builds an architecture that infers
    its own."""

    name: str
    input_shape: tuple[int, int, int]
    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    @property
    def num_layers(self):
        return len(self.layers)

    @functools.cached_property
    def geo(self):
        from . import shapes

        return tuple(shapes.infer_shapes(self))


def _positive_pair(value, what, layer):
    if value[0] < 1 or value[1] < 1:
        raise ValidationError(f"{what} must be >= 1 per axis, got {value}", layer=layer)


def validate(arch: Architecture) -> None:
    """Check all structural invariants; raises ValidationError.

    Layer numbers in messages are 1-based to match reports.
    """
    w, h, d = arch.input_shape
    if w < 1 or h < 1 or d < 1:
        raise ValidationError(f"input shape must be positive, got {arch.input_shape}")
    if not arch.layers:
        raise ValidationError("architecture has no layers")

    for idx, layer in enumerate(arch.layers):
        ell = idx + 1
        if layer.kind not in (CONV, FULLY_CONNECTED):
            raise ValidationError(f"unknown layer kind {layer.kind!r}", layer=ell)
        if layer.activation not in (RELU, IDENTITY):
            raise ValidationError(f"unknown activation {layer.activation!r}", layer=ell)
        if layer.out_channels < 1:
            raise ValidationError(f"out_channels must be >= 1, got {layer.out_channels}", layer=ell)

        if layer.kind == CONV:
            if layer.kernel is None:
                raise ValidationError("Conv layer needs a kernel", layer=ell)
            _positive_pair(layer.kernel, "kernel", ell)
            _positive_pair(layer.stride, "stride", ell)
            pw, ph = layer.padding
            if pw < 0 or ph < 0:
                raise ValidationError(f"padding must be >= 0, got {layer.padding}", layer=ell)
            if pw >= layer.kernel[0] or ph >= layer.kernel[1]:
                raise ValidationError(
                    f"padding {layer.padding} must be < kernel {layer.kernel} per axis",
                    layer=ell,
                )
        else:
            if layer.kernel is not None or layer.stride != (1, 1) or layer.padding != (0, 0):
                raise ValidationError(
                    "FullyConnected layer takes no kernel/stride/padding", layer=ell
                )
            if layer.pool is not None:
                raise ValidationError("FullyConnected layer takes no pool", layer=ell)

        pool = layer.pool
        if pool is not None:
            if pool.kind not in _POOL_KINDS:
                raise ValidationError(f"unknown pool kind {pool.kind!r}", layer=ell)
            if pool.kind == GLOBAL_AVERAGE:
                if pool.size is not None or pool.stride is not None or pool.padding != (0, 0):
                    raise ValidationError(
                        "GlobalAverage pool carries no size/stride/padding", layer=ell
                    )
            else:
                if pool.size is None:
                    raise ValidationError(f"{pool.kind} pool needs a size", layer=ell)
                _positive_pair(pool.size, "pool size", ell)
                _positive_pair(pool.effective_stride(), "pool stride", ell)
                qw, qh = pool.padding
                if qw < 0 or qh < 0:
                    raise ValidationError(f"pool padding must be >= 0, got {pool.padding}", layer=ell)
                if qw >= pool.size[0] or qh >= pool.size[1]:
                    raise ValidationError(
                        f"pool padding {pool.padding} must be < pool size {pool.size}", layer=ell
                    )

    last = arch.layers[-1]
    if last.kind != FULLY_CONNECTED or last.activation != IDENTITY or last.pool is not None:
        raise ValidationError(
            "last layer must be FullyConnected with Identity activation and no pool",
            layer=len(arch.layers),
        )

    # shape inference must succeed end to end (raises ValidationError itself)
    arch.geo


# ---------------------------------------------------------------------------
# JSON parsing / serialization
# ---------------------------------------------------------------------------

def _as_int(value, what):
    """An integer of the file, within the 2**53 that a float holds exactly:
    the calculator turns these into floats."""
    if type(value) is not int:
        raise SchemaError(f"{what} must be an integer, got {value!r}")
    if abs(value) > 2**53:
        raise SchemaError(f"{what} must be at most 2**53 in magnitude")
    return value


def _as_pair(value, what):
    if not isinstance(value, list) or len(value) != 2:
        raise SchemaError(f"{what} must be a two-element list, got {value!r}")
    return (_as_int(value[0], what), _as_int(value[1], what))


def _check_keys(obj, allowed, where):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object, got {type(obj).__name__}")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_pool(obj, where):
    _check_keys(obj, ("kind", "size", "stride", "padding"), where)
    if "kind" not in obj:
        raise SchemaError(f"{where}: pool needs a kind")
    size = _as_pair(obj["size"], f"{where} size") if "size" in obj else None
    stride = _as_pair(obj["stride"], f"{where} stride") if "stride" in obj else None
    padding = _as_pair(obj["padding"], f"{where} padding") if "padding" in obj else (0, 0)
    return Pool(kind=obj["kind"], size=size, stride=stride, padding=padding)


def _parse_layer(obj, index):
    where = f"layers[{index}]"
    _check_keys(
        obj,
        ("kind", "kernel", "stride", "padding", "out_channels", "activation", "pool"),
        where,
    )
    for key in ("kind", "out_channels"):
        if key not in obj:
            raise SchemaError(f"{where}: missing {key}")
    kind = obj["kind"]
    out_channels = _as_int(obj["out_channels"], f"{where} out_channels")
    activation = obj.get("activation", RELU if kind == CONV else IDENTITY)
    kernel = _as_pair(obj["kernel"], f"{where} kernel") if "kernel" in obj else None
    stride = _as_pair(obj["stride"], f"{where} stride") if "stride" in obj else (1, 1)
    padding = _as_pair(obj["padding"], f"{where} padding") if "padding" in obj else (0, 0)
    pool = _parse_pool(obj["pool"], f"{where} pool") if "pool" in obj else None
    return LayerSpec(
        kind=kind,
        out_channels=out_channels,
        kernel=kernel,
        stride=stride,
        padding=padding,
        activation=activation,
        pool=pool,
    )


def parse_architecture(text: str) -> Architecture:
    """Parse and validate an architecture file (JSON text)."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:   # ValueError: bad JSON, or an int too long
        raise SchemaError(f"not valid JSON: {exc}") from exc
    _check_keys(obj, ("name", "input", "layers"), "architecture")
    for key in ("name", "input", "layers"):
        if key not in obj:
            raise SchemaError(f"architecture: missing {key}")
    if not isinstance(obj["name"], str):
        raise SchemaError("architecture name must be a string")
    inp = obj["input"]
    if not isinstance(inp, list) or len(inp) != 3:
        raise SchemaError(f"input must be a three-element list [w, h, d], got {inp!r}")
    input_shape = tuple(_as_int(v, "input") for v in inp)
    if not isinstance(obj["layers"], list):
        raise SchemaError("layers must be a list")
    layers = tuple(_parse_layer(layer, i) for i, layer in enumerate(obj["layers"]))
    arch = Architecture(name=obj["name"], input_shape=input_shape, layers=layers)
    validate(arch)
    return arch


def serialize(arch: Architecture) -> str:
    """Serialize to the canonical JSON form; parse(serialize(a)) == a."""
    layers = []
    for layer in arch.layers:
        obj = {"kind": layer.kind, "out_channels": layer.out_channels}
        if layer.kind == CONV:
            obj["kernel"] = list(layer.kernel)
            obj["stride"] = list(layer.stride)
            obj["padding"] = list(layer.padding)
        obj["activation"] = layer.activation
        if layer.pool is not None:
            pool = {"kind": layer.pool.kind}
            if layer.pool.size is not None:
                pool["size"] = list(layer.pool.size)
            if layer.pool.stride is not None:
                pool["stride"] = list(layer.pool.stride)
            if layer.pool.padding != (0, 0):
                pool["padding"] = list(layer.pool.padding)
            obj["pool"] = pool
        layers.append(obj)
    doc = {"name": arch.name, "input": list(arch.input_shape), "layers": layers}
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Built-in architectures
# ---------------------------------------------------------------------------

def _conv(channels, kernel, padding=0, pool=None):
    return LayerSpec(kind=CONV, out_channels=channels, kernel=(kernel, kernel),
                     padding=(padding, padding), pool=pool)


def toy_net(c1=12, c2=16, c3=32, name="toy"):
    """Small desk-scale net exercising every pooling kind.

    16x16x3 input; two padded 3x3 convs carrying a 2x2 max pool and a 2x2
    average pool; a 1x1 conv hosting global average pooling; 10-unit head.
    """
    layers = (
        _conv(c1, 3, padding=1, pool=Pool(kind=MAX, size=(2, 2))),
        _conv(c2, 3, padding=1, pool=Pool(kind=AVERAGE, size=(2, 2))),
        _conv(c3, 1, pool=Pool(kind=GLOBAL_AVERAGE)),
        LayerSpec(kind=FULLY_CONNECTED, out_channels=10, activation=IDENTITY),
    )
    return Architecture(name=name, input_shape=(16, 16, 3), layers=layers)


_BUILTINS = ("arch34", "arch50")


def builtin(name: str) -> Architecture:
    """Return a built-in architecture ("arch34" or "arch50"): the parsed
    data/<name>.json shipped with the package.

    Each name is read, parsed and shape-inferred once per process, and every
    call returns that one object: an Architecture is frozen and its geo is
    read-only, and dataclasses.replace of it infers its own geo."""
    if name not in _BUILTINS:
        raise UnknownName(f"unknown architecture {name!r}; available: {list(_BUILTINS)}")
    return _parsed_builtin(name)


@functools.cache
def _parsed_builtin(name):
    path = importlib.resources.files("asvinit") / "data" / f"{name}.json"
    return parse_architecture(path.read_text(encoding="utf-8"))
