"""Pooling variance constants, signal-variance recursions, initialization methods.

Forward recursion (pre-activation variance, layer ell):

    q_ell = sigma_w^2 * q_{ell-1} * tau_{ell-1} * eps_ell / M'_ell

Backward recursion (gradient variance at the pooled signal):

    r_{ell-1} = sigma_w^2 * r_ell * gamma_ell * eps_ell / M_{ell-1}

tau is the second moment of a ReLU+pool output relative to its pre-activation
variance; gamma the expected squared gradient of the pool+ReLU composite.
The input "layer 0" carries tau_0 = 1 by default: network inputs are raw
signals, not ReLU outputs, so their full second moment propagates.  Layers
with Identity activation use tau = gamma = 1 (no ReLU halving).  Every
method draws zero biases, so the paper's sigma_b^2 term is 0 throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import AsvinitError, QuadratureFailure

MAX = arch_mod.MAX
AVERAGE = arch_mod.AVERAGE
NO_POOL = "NoPool"

XAVIER = "xavier"
KAIMING_FORWARD = "kaiming-forward"
KAIMING_BACKWARD = "kaiming-backward"
ASV_FORWARD = "asv-forward"
ASV_BACKWARD = "asv-backward"
METHODS = (XAVIER, KAIMING_FORWARD, KAIMING_BACKWARD, ASV_FORWARD, ASV_BACKWARD)

_GAMMA_FLOOR = 1e-12


@dataclass(frozen=True)
class PoolConstants:
    kind: str
    t: int
    tau: float
    gamma: float


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

# integrand tail above 12 is below 1e-28 and dropped
_UPPER = 12.0


@functools.lru_cache(maxsize=None)
def _tau_max_integral(t):
    """T * integral_0^inf s^2 phi(s) Phi(s)^(T-1) ds by composite
    Gauss-Legendre on [0, 12], panels doubled until successive estimates
    agree to 1e-10."""
    prev = None
    diff = math.inf
    panels = 1
    while panels <= 4096:
        edges = np.linspace(0.0, _UPPER, panels + 1)
        half = (edges[1] - edges[0]) / 2.0
        mids = (edges[:-1] + edges[1:]) / 2.0
        x = (mids[:, None] + half * _GL_NODES[None, :]).ravel()
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        integrand = x * x * phi * ndtr(x) ** (t - 1)
        value = t * half * float(np.dot(np.tile(_GL_WEIGHTS, panels), integrand))
        if prev is not None:
            diff = abs(value - prev)
            if diff < 1e-10:
                return value
        prev = value
        panels *= 2
    if diff <= 1e-9:
        return prev
    raise QuadratureFailure(
        f"max-pool constant for T={t}: error estimate {diff:.2e} exceeds 1e-9"
    )


def tau(kind, t):
    """Forward second-moment factor of a ReLU+pool composite."""
    if t < 1:
        raise ValueError(f"pool cardinality must be >= 1, got {t}")
    if kind in (None, NO_POOL):
        return 0.5
    if kind == AVERAGE:
        return (1.0 / (2.0 * t)) * (1.0 + (t - 1) / math.pi)
    if kind == MAX:
        return _tau_max_integral(t)
    raise ValueError(f"unknown pool kind {kind!r}")


def gamma(kind, t):
    """Backward squared-gradient factor of a ReLU+pool composite."""
    if t < 1:
        raise ValueError(f"pool cardinality must be >= 1, got {t}")
    if kind in (None, NO_POOL):
        return 0.5
    if kind == AVERAGE:
        return 1.0 / (2.0 * t * t)
    if kind == MAX:
        # (2^T - 1) / (T 2^T), computed without overflow for large T
        return (1.0 - 2.0 ** (-t)) / t
    raise ValueError(f"unknown pool kind {kind!r}")


def layer_constants(geo: shapes_mod.LayerShape) -> PoolConstants:
    """Constants of one layer's activation+pool composite.

    Identity activation drops the ReLU factor entirely: tau = gamma = 1.
    """
    if geo.activation == arch_mod.IDENTITY:
        return PoolConstants(kind=geo.pool_kind or NO_POOL, t=geo.t, tau=1.0, gamma=1.0)
    kind = geo.pool_kind or NO_POOL
    return PoolConstants(kind=kind, t=geo.t, tau=tau(kind, geo.t), gamma=gamma(kind, geo.t))


# ---------------------------------------------------------------------------
# Initialization plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRow:
    """One layer of a plan: its weight std dev, constants and predicted
    levels.  Biases are zero for every plan, so no bias std dev is kept.
    shape is that layer's entry of the architecture's geo, the same
    object, not a copy."""

    shape: shapes_mod.LayerShape
    sigma_w: float
    tau: float          # this layer's own composite constant
    gamma: float
    clamped: bool
    q_pred: float
    r_pred: float


@dataclass(frozen=True)
class InitPlan:
    """Per-layer weight std deviations for one method, plus the variance
    levels the recursions predict under this plan."""

    method: str
    arch_name: str
    tau0: float
    clamp_factor: float | None
    rows: tuple[PlanRow, ...]

    @property
    def sigma_w(self):
        return np.array([r.sigma_w for r in self.rows])

    def table(self):
        """(head, key, rows, csv columns) for cli.render."""
        rows = []
        for r in self.rows:
            g = r.shape
            rows.append({
                "layer": g.ell, "sigma_w": r.sigma_w, "sigma_b": 0.0,
                "tau": r.tau, "gamma": r.gamma, "epsilon": g.epsilon,
                "M_prev": g.m_prev, "M": g.m, "M_prime": g.m_prime,
                "S": g.s_len, "J": g.j_len, "T": g.t,
                "q_pred": r.q_pred, "r_pred": r.r_pred, "clamped": r.clamped,
            })
        head = {"method": self.method, "arch": self.arch_name, "tau0": self.tau0,
                "clamp_factor": self.clamp_factor}
        columns = ("layer", "method", "sigma_w", "sigma_b", "tau", "gamma",
                   "epsilon", "M", "M_prime", "q_pred", "r_pred", "clamped")
        return head, "layers", rows, columns


def _taus_before(consts, tau0):
    """tau_{ell-1} for each layer ell = 1..L, from the layers' constants."""
    return [tau0] + [c.tau for c in consts[:-1]]


def _forward_levels(geo, consts, sigma_w, q0, tau0):
    levels = [float(q0)]
    taus = _taus_before(consts, tau0)
    for i, row in enumerate(geo):
        q = float(sigma_w[i]) ** 2 * levels[-1] * taus[i] * row.epsilon / row.m_prime
        levels.append(q)
    return np.array(levels)


def _backward_levels(geo, consts, sigma_w, rL):
    levels = [float(rL)]
    for i in range(len(geo) - 1, -1, -1):
        row = geo[i]
        r = float(sigma_w[i]) ** 2 * levels[0] * consts[i].gamma * row.epsilon / row.m_prev
        levels.insert(0, r)
    return np.array(levels)


def predict_forward(geo, sigma_w, q0=1.0, tau0=1.0):
    """Forward variance levels q[0..L] under per-layer weight std devs
    (biases are drawn as 0, so they add nothing)."""
    return _forward_levels(geo, [layer_constants(g) for g in geo], sigma_w, q0, tau0)


def predict_backward(geo, sigma_w, rL=1.0):
    """Backward variance levels r[0..L] under per-layer weight std devs."""
    return _backward_levels(geo, [layer_constants(g) for g in geo], sigma_w, rL)


def _plan(method, arch, consts, sigma_w, clamped, tau0, clamp_factor):
    """InitPlan of the given std devs, with the q and r levels they predict
    for unit input and top-gradient variance.  consts holds each layer's
    layer_constants, computed once by the caller."""
    q = _forward_levels(arch.geo, consts, sigma_w, 1.0, tau0)
    r = _backward_levels(arch.geo, consts, sigma_w, 1.0)
    rows = []
    for i, (row, c) in enumerate(zip(arch.geo, consts)):
        rows.append(PlanRow(
            shape=row, sigma_w=float(sigma_w[i]), tau=c.tau, gamma=c.gamma,
            clamped=clamped[i], q_pred=float(q[i + 1]), r_pred=float(r[i]),
        ))
    return InitPlan(method=method, arch_name=arch.name, tau0=tau0,
                    clamp_factor=clamp_factor, rows=tuple(rows))


def init_plan(method, arch, clamp_factor=3.0, tau0=1.0) -> InitPlan:
    """Compute the per-layer weight variances for one initialization method.

    clamp_factor applies to asv-backward only: the variance is capped at
    clamp_factor times the value derived with the pooling factor replaced by
    the plain-ReLU 1/2, so a factor F**2 caps the std dev at F times its
    no-pool value.  Pass clamp_factor=None to disable.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    consts = [layer_constants(g) for g in arch.geo]
    taus = _taus_before(consts, tau0)

    variances = []
    clamped_flags = []
    for i, row in enumerate(arch.geo):
        clamped = False
        if method == ASV_FORWARD:
            if taus[i] < _GAMMA_FLOOR:
                raise AsvinitError(f"layer {row.ell}: tau below {_GAMMA_FLOOR}")
            var = row.m_prime / (taus[i] * row.epsilon)
        elif method == ASV_BACKWARD:
            if consts[i].gamma < _GAMMA_FLOOR:
                raise AsvinitError(f"layer {row.ell}: gamma below {_GAMMA_FLOOR}")
            var = row.m_prev / (consts[i].gamma * row.epsilon)
            if clamp_factor is not None:
                # the no-pool value first, then the factor: the pinned rounding
                cap = clamp_factor * (row.m_prev / (0.5 * row.epsilon))
                if var > cap:
                    var = cap
                    clamped = True
        elif method == KAIMING_FORWARD:
            var = 2.0 / row.s_len
        elif method == KAIMING_BACKWARD:
            var = 2.0 / row.j_len
        else:  # xavier
            var = 2.0 / (row.s_len + row.j_len)
        variances.append(var)
        clamped_flags.append(clamped)

    return _plan(
        method, arch, consts, np.sqrt(variances), clamped_flags, tau0=tau0,
        clamp_factor=clamp_factor if method == ASV_BACKWARD else None,
    )


def plan_from_sigmas(arch, sigma_w, tau0=1.0) -> InitPlan:
    """Wrap explicit per-layer std devs in an InitPlan (for overrides)."""
    n = arch.num_layers
    sigma_w = np.asarray(sigma_w, dtype=float)
    if sigma_w.shape != (n,):
        raise ValueError(f"expected {n} sigma values, got shape {sigma_w.shape}")
    if not np.all(np.isfinite(sigma_w)) or np.any(sigma_w < 0):
        raise ValueError("sigma values must be finite and non-negative")
    return _plan("override", arch, [layer_constants(g) for g in arch.geo], sigma_w,
                 [False] * n, tau0=tau0, clamp_factor=None)
