"""Padding- and pooling-aware CNN weight-initialization toolkit.

Computes per-layer initialization variances from exact connection counts and
pooling-aware variance constants, runs the initialization through an
executable vectorized network, and checks the variance predictions by
Monte Carlo.
"""

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
from .montecarlo import McConfig, VarianceTrace, compare, estimate_backward, estimate_both, estimate_forward
from .refnet import VectorNet, backward, forward, naive_forward, sample_parameters
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
