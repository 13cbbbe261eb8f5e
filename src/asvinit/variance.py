"""Pooling variance constants, signal-variance recursions, initialization methods.

Each layer has one gain per direction, its level ratio per unit sigma_w^2:
forward (tau_{ell-1}, eps_ell, M'_ell), backward (gamma_ell, eps_ell,
M_{ell-1}), kept as the terms (factor, count, units), not their ratio, so
each formula keeps the order of operations that gives its pinned bits.
One recursion serves both directions, up from the input for q
(pre-activation variance) and down from the top for r (gradient variance
at the pooled signal):

    level after = sigma_w^2 * level before * factor * count / units

An asv method's sigma_w^2 sets its own direction's gain to 1: it is
units / (factor * count).

tau is the second moment of a ReLU+pool output relative to its pre-activation
variance; gamma the expected squared gradient of the pool+ReLU composite.
The input "layer 0" carries tau_0 = 1 by default: network inputs are raw
signals, not ReLU outputs, so their full second moment propagates.  Layers
with Identity activation use tau = gamma = 1 (no ReLU halving).  Every
method draws zero biases, so the paper's sigma_b^2 term is 0 throughout.

tau for max pooling is a quadrature over the standard normal CDF Phi.  Phi
is computed here (_ndtr), a port of the Cephes ndtr/erf/erfc that
scipy.special.ndtr runs, with the same coefficient tables and order of
operations, so the constants carry scipy's bits without importing scipy.
Its exp(-x^2) is libm's exp called per element (math.exp), as in the C
code; np.exp differs in the last bit at some quadrature nodes.

numpy is imported by the max-pool quadrature alone (_erfc, _ndtr,
_gauss_legendre, _panel_nodes, _tau_max_integral), on the first max-pool
constant.  Plans, levels, overrides and the method table hold Python
floats, in lists where there is one per layer: math.sqrt is correctly
rounded, as np.sqrt is, so the std devs carry the same bits.  analyze,
init and the method table on a chain without a max pool never load numpy.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass

from . import arch as arch_mod
from . import shapes as shapes_mod
from .errors import AsvinitError, QuadratureFailure

MAX = arch_mod.MAX
AVERAGE = arch_mod.AVERAGE

XAVIER = "xavier"
KAIMING_FORWARD = "kaiming-forward"
KAIMING_BACKWARD = "kaiming-backward"
ASV_FORWARD = "asv-forward"
ASV_BACKWARD = "asv-backward"
METHODS = (XAVIER, KAIMING_FORWARD, KAIMING_BACKWARD, ASV_FORWARD, ASV_BACKWARD)

_FACTOR_FLOOR = 1e-12

# the largest std dev whose square, float(sigma) ** 2 in the levels, is finite
_SIGMA_MAX = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class PoolConstants:
    tau: float
    gamma: float


# Cephes ndtr.c coefficient tables, the ones scipy.special.ndtr uses:
# erf on |x| <= 1 is x * T(x^2) / U(x^2); erfc on 1 <= x < 8 is
# exp(-x^2) * P(x) / Q(x), and on x >= 8 exp(-x^2) * R(x) / S(x).
# U, Q and S have an implicit leading coefficient 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)

_SQRT1_2 = math.sqrt(0.5)


def _horner(x, coefs, monic=False):
    """Cephes polevl (monic=False) or p1evl (monic=True, leading 1 implied)
    at x, in Cephes' order of operations."""
    acc = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        acc = acc * x + c
    return acc


def _erf(a):
    """Cephes erf for 0 <= a <= 1."""
    z = a * a
    return a * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc(a):
    """Cephes erfc for a >= 1, with libm's exp per element."""
    import numpy as np

    e = np.fromiter(map(math.exp, (-a * a).tolist()), float, count=a.size)
    near = a < 8.0
    p = np.where(near, _horner(a, _ERFC_P), _horner(a, _ERFC_R))
    q = np.where(near, _horner(a, _ERFC_Q, monic=True), _horner(a, _ERFC_S, monic=True))
    return e * p / q


def _ndtr(x):
    """Standard normal CDF at x >= 0, elementwise: Cephes ndtr, which gives
    scipy.special.ndtr's bits."""
    import numpy as np

    a = x * _SQRT1_2
    out = np.empty_like(a)
    low = a < _SQRT1_2
    mid = ~low & (a < 1.0)
    tail = a >= 1.0
    out[low] = 0.5 + 0.5 * _erf(a[low])
    out[mid] = 1.0 - 0.5 * (1.0 - _erf(a[mid]))
    out[tail] = 1.0 - 0.5 * _erfc(a[tail])
    return out


@functools.cache
def _gauss_legendre():
    """The 16-point Gauss-Legendre (nodes, weights) on [-1, 1], built once."""
    import numpy as np

    return np.polynomial.legendre.leggauss(16)


# integrand tail above 12 is below 1e-28 and dropped
_UPPER = 12.0


def _panel_nodes(panels):
    """The nodes of composite Gauss-Legendre on [0, 12] over equal panels,
    and the panels' half width."""
    import numpy as np

    nodes, _ = _gauss_legendre()
    edges = np.linspace(0.0, _UPPER, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    return (mids[:, None] + half * nodes[None, :]).ravel(), half


@functools.lru_cache(maxsize=None)
def _tau_max_integral(t):
    """T * integral_0^inf s^2 phi(s) Phi(s)^(T-1) ds by composite
    Gauss-Legendre on [0, 12], panels doubled until successive estimates
    agree to 1e-10."""
    import numpy as np

    _, weights = _gauss_legendre()
    prev = None
    diff = math.inf
    panels = 1
    while panels <= 4096:
        x, half = _panel_nodes(panels)
        phi = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        integrand = x * x * phi * _ndtr(x) ** (t - 1)
        value = t * half * float(np.dot(np.tile(weights, panels), integrand))
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
    """Forward second-moment factor of a ReLU+pool composite (kind None: no pool)."""
    if t < 1:
        raise ValueError(f"pool cardinality must be >= 1, got {t}")
    if kind is None:
        return 0.5
    if kind == AVERAGE:
        return (1.0 / (2.0 * t)) * (1.0 + (t - 1) / math.pi)
    if kind == MAX:
        return _tau_max_integral(t)
    raise ValueError(f"unknown pool kind {kind!r}")


def gamma(kind, t):
    """Backward squared-gradient factor of a ReLU+pool composite (kind None: no pool)."""
    if t < 1:
        raise ValueError(f"pool cardinality must be >= 1, got {t}")
    if kind is None:
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
        return PoolConstants(tau=1.0, gamma=1.0)
    return PoolConstants(tau=tau(geo.pool_kind, geo.t), gamma=gamma(geo.pool_kind, geo.t))


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
        return [r.sigma_w for r in self.rows]

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


def _gains(geo, consts, tau0):
    """(forward, backward): each layer's gains as (factor, count, units),
    with tau0 as layer 1's forward factor, from its layer_constants."""
    taus = [tau0] + [c.tau for c in consts[:-1]]
    forward = [(t, g.epsilon, g.m_prime) for t, g in zip(taus, geo)]
    backward = [(c.gamma, g.epsilon, g.m_prev) for c, g in zip(consts, geo)]
    return forward, backward


def _levels(gains, sigma_w):
    """One direction's levels for unit variance where the signal enters,
    over the gains and std devs in the order the signal meets them."""
    levels = [1.0]
    for (factor, count, units), s in zip(gains, sigma_w, strict=True):
        levels.append(float(s) ** 2 * levels[-1] * factor * count / units)
    return levels


def predict_forward(geo, sigma_w, tau0=1.0):
    """Forward variance levels q[0..L] for unit input variance under
    per-layer weight std devs (biases are drawn as 0, so they add nothing).
    The levels are linear in the input variance."""
    forward, _ = _gains(geo, [layer_constants(g) for g in geo], tau0)
    return _levels(forward, sigma_w)


def predict_backward(geo, sigma_w):
    """Backward variance levels r[0..L] for unit top-gradient variance under
    per-layer weight std devs.  The levels are linear in that variance."""
    _, backward = _gains(geo, [layer_constants(g) for g in geo], 1.0)
    return _levels(reversed(backward), reversed(sigma_w))[::-1]


def _plan(method, arch, consts, gains, sigma_w, clamped, tau0, clamp_factor):
    """InitPlan of the given std devs, with the q and r levels they predict
    for unit input and top-gradient variance.  consts and gains hold each
    layer's layer_constants and _gains, computed once by the caller."""
    q = _levels(gains[0], sigma_w)
    r = _levels(reversed(gains[1]), reversed(sigma_w))[::-1]
    rows = []
    for i, (row, c) in enumerate(zip(arch.geo, consts)):
        rows.append(PlanRow(
            shape=row, sigma_w=float(sigma_w[i]), tau=c.tau, gamma=c.gamma,
            clamped=clamped[i], q_pred=float(q[i + 1]), r_pred=float(r[i]),
        ))
    return InitPlan(method=method, arch_name=arch.name, tau0=tau0,
                    clamp_factor=clamp_factor, rows=tuple(rows))


def _sigmas(method, geo, gains, clamp_factor):
    """(sigma_w, clamped) of one method: the per-layer weight std devs and
    whether asv-backward's cap bound each one.  gains holds each layer's
    _gains, computed once by the caller."""
    term, own = ("tau", gains[0]) if method == ASV_FORWARD else ("gamma", gains[1])
    variances = []
    clamped_flags = []
    for i, row in enumerate(geo):
        clamped = False
        if method in (ASV_FORWARD, ASV_BACKWARD):
            factor, count, units = own[i]
            if factor < _FACTOR_FLOOR:
                raise AsvinitError(f"layer {row.ell}: {term} below {_FACTOR_FLOOR}")
            var = units / (factor * count)
            if method == ASV_BACKWARD and clamp_factor is not None:
                # the no-pool value first, then the factor: the pinned rounding
                cap = clamp_factor * (units / (0.5 * count))
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
    return list(map(math.sqrt, variances)), clamped_flags


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
    gains = _gains(arch.geo, consts, tau0)
    sigma_w, clamped = _sigmas(method, arch.geo, gains, clamp_factor)
    return _plan(
        method, arch, consts, gains, sigma_w, clamped, tau0=tau0,
        clamp_factor=clamp_factor if method == ASV_BACKWARD else None,
    )


def method_sigmas(arch, clamp_factor=3.0, tau0=1.0):
    """{method: per-layer sigma_w} for every method of METHODS, in that
    order: init_plan(method, ...)'s sigma_w, without the plans' levels and
    rows, and with the layer constants and gains computed once."""
    gains = _gains(arch.geo, [layer_constants(g) for g in arch.geo], tau0)
    return {m: _sigmas(m, arch.geo, gains, clamp_factor)[0] for m in METHODS}


def plan_from_sigmas(arch, sigma_w, tau0=1.0) -> InitPlan:
    """Wrap explicit per-layer std devs in an InitPlan (for overrides).
    sigma_w is a sequence of one real number per layer, each from 0 to
    sqrt(sys.float_info.max), so that its square is finite; anything else,
    a boolean included, is a ValueError."""
    n = arch.num_layers
    try:
        count = len(sigma_w)
    except TypeError:   # a scalar or an iterator
        raise ValueError(f"expected {n} sigma values, got {type(sigma_w).__name__}") from None
    if count != n:
        raise ValueError(f"expected {n} sigma values, got {count}")
    for ell, s in enumerate(sigma_w, 1):
        if isinstance(s, bool) or not (isinstance(s, numbers.Real) and 0 <= s <= _SIGMA_MAX):
            raise ValueError(f"layer {ell}: sigma must be a number from 0 to {_SIGMA_MAX!r}")
    consts = [layer_constants(g) for g in arch.geo]
    return _plan("override", arch, consts, _gains(arch.geo, consts, tau0), sigma_w,
                 [False] * n, tau0=tau0, clamp_factor=None)
