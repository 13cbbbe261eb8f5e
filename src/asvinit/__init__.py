"""Padding- and pooling-aware CNN weight-initialization toolkit.

Computes per-layer initialization variances from exact connection counts and
pooling-aware variance constants, runs the initialization through an
executable vectorized network, and checks the variance predictions by
Monte Carlo.

The package has two halves.  The calculator (arch, shapes, variance, cli)
loads at import and needs no numpy until it builds index maps or evaluates
a max-pool constant: plans, levels and overrides are Python floats.  The
engine (refnet, montecarlo, both numpy) loads on first use: its exported
names and the two submodules resolve through the module __getattr__ (PEP
562), so `import asvinit` and `import asvinit.cli` stay light.
"""

import importlib

from .arch import Architecture, LayerSpec, Pool, builtin, parse_architecture, serialize, toy_net
from .errors import (
    AsvinitError,
    BudgetExceeded,
    MissingForwardTrace,
    QuadratureFailure,
    SchemaError,
    ShapeMismatch,
    UnknownName,
    ValidationError,
)
from .shapes import ShapeReport, infer_shapes
from .variance import (
    InitPlan,
    METHODS,
    gamma,
    init_plan,
    layer_constants,
    plan_from_sigmas,
    predict_backward,
    predict_forward,
    tau,
)

__version__ = "0.1.0"

# engine exports: name -> the submodule that defines it
_ENGINE = {
    **dict.fromkeys(("McConfig", "VarianceTrace", "compare", "estimate_backward",
                     "estimate_both", "estimate_forward", "montecarlo"), "montecarlo"),
    **dict.fromkeys(("VectorNet", "backward", "forward", "naive_forward",
                     "sample_parameters", "refnet"), "refnet"),
}


def __getattr__(name):
    module = _ENGINE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_ENGINE})
