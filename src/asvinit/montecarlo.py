"""Monte Carlo estimation of per-layer signal variances vs. predictions.

Forward: draw parameters, feed batches of iid N(0, 1) inputs, and measure
the variance of each layer's pre-activation signals pooled over units and
input draws (per-unit variances differ at map borders; the recursion itself
is an average over units).  Backward: inject iid N(0, 1) top gradients and
measure the variance of the backward signals dz at each layer interface
1..L-1 (the backward chain ends at du^(1); dz^(L) is the injection itself).

Predictions are the plan's own: forward row 0 is 1, forward row ell is
layer ell's q_pred and backward row ell is layer ell+1's r_pred, the
recursions' levels for unit input and top-gradient variance.  Recursions
and signals of a bias-free ReLU chain are linear in those scales, so unit
scales judge every other scale too.

Estimates are averaged across parameter draws in draw order; the standard
error is the dispersion of per-draw estimates.  Everything is reproducible
bit for bit for a fixed seed and trial count.  Before the first draw, a run
holds refnet.memory_need (what one draw holds at once) against the memory
this process may use (refnet.check_memory), and raises BudgetExceeded when
it does not fit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import refnet
from .errors import AsvinitError, BudgetExceeded

_DEFAULT_BUDGET = 1_000_000


def _env_budget():
    raw = os.environ.get("ASV_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise AsvinitError(f"ASV_BUDGET must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class McConfig:
    """Trial counts and randomness for one estimation run.

    The product n_param_draws * n_input_draws must stay within the budget
    the ASV_BUDGET environment variable sets (default 1e6); check_budget
    reads it on every call.
    """

    n_param_draws: int
    n_input_draws: int
    seed: int = 0

    def check_budget(self):
        if self.n_param_draws < 1 or self.n_input_draws < 1:
            raise ValueError("trial counts must be >= 1")
        budget = _env_budget()
        total = self.n_param_draws * self.n_input_draws
        if total > budget:
            raise BudgetExceeded(
                f"{self.n_param_draws}x{self.n_input_draws} = {total} trials "
                f"exceed budget {budget}"
            )


@dataclass(frozen=True)
class TraceRow:
    direction: str        # "forward" | "backward"
    ell: int
    predicted: float
    estimate: float
    stderr: float

    @property
    def rel_error(self):
        if self.predicted == 0.0:
            return float("inf") if self.estimate != 0.0 else 0.0
        return abs(self.estimate - self.predicted) / abs(self.predicted)


@dataclass(frozen=True)
class VarianceTrace:
    """Predicted vs. measured variance levels for one plan and config."""

    arch_name: str
    method: str
    config: McConfig
    rows: tuple[TraceRow, ...] = field(default_factory=tuple)

    def rows_for(self, direction):
        return [r for r in self.rows if r.direction == direction]

    def table(self):
        """(head, key, rows, csv columns) for cli.render."""
        rows = [
            {
                "direction": r.direction, "layer": r.ell,
                "predicted": r.predicted, "estimate": r.estimate,
                "stderr": r.stderr, "rel_error": r.rel_error,
            }
            for r in self.rows
        ]
        head = {
            "arch": self.arch_name, "method": self.method,
            "trials": [self.config.n_param_draws, self.config.n_input_draws],
            "seed": self.config.seed,
        }
        columns = ("direction", "layer", "predicted", "estimate", "stderr", "rel_error")
        return head, "rows", rows, columns


def _pooled_variance(x):
    """Variance over all entries (units x batch) of one draw.  A signal that
    overflows gives inf or NaN without a warning; compare fails its row."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(np.mean(x))
        return float(np.mean(x * x)) - m * m


def _one_draw(arch, plan, cfg, seeds, want_backward):
    """Pooled variances of z0, every u and (when asked) every inner dz for
    one parameter draw.  Its trace is freed on return, before the next
    draw allocates its own."""
    param_ss, input_ss, inject_ss = seeds.spawn(3)
    net = refnet.sample_parameters(arch, plan, param_ss)
    rng_in = np.random.default_rng(input_ss)
    z0 = rng_in.normal(0.0, 1.0, size=(arch.geo[0].m_prev, cfg.n_input_draws))
    trace = refnet.forward(net, z0)
    u_vars = [_pooled_variance(u) for u in trace.u]
    dz_vars = None
    if want_backward:
        rng_top = np.random.default_rng(inject_ss)
        delta = rng_top.normal(0.0, 1.0, size=(arch.geo[-1].m_prime, cfg.n_input_draws))
        refnet.backward(net, trace, delta_uL=delta)
        dz_vars = [_pooled_variance(dz) for dz in trace.dz[1:-1]]
    return _pooled_variance(z0), u_vars, dz_vars


def _run_draws(arch, plan, cfg, want_backward):
    """Per-draw pooled variances of u (and dz when requested)."""
    cfg.check_budget()
    refnet.check_memory(
        refnet.memory_need(arch, cfg.n_input_draws, want_backward),
        f"{arch.name}: weights and signals of {cfg.n_input_draws} inputs",
    )
    n_layers = arch.num_layers

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_param_draws)

    u_vars = np.empty((cfg.n_param_draws, n_layers))
    z0_vars = np.empty(cfg.n_param_draws)
    dz_vars = np.empty((cfg.n_param_draws, n_layers - 1)) if want_backward else None

    for a in range(cfg.n_param_draws):
        z0_vars[a], u_vars[a], dz_row = _one_draw(
            arch, plan, cfg, children[a], want_backward
        )
        if want_backward:
            dz_vars[a] = dz_row
    return z0_vars, u_vars, dz_vars


def _mean_stderr(per_draw):
    est = float(np.mean(per_draw))
    if per_draw.shape[0] > 1:
        se = float(np.std(per_draw, ddof=1) / np.sqrt(per_draw.shape[0]))
    else:
        se = 0.0
    return est, se


def _forward_rows(plan, z0_vars, u_vars):
    rows = [TraceRow("forward", 0, 1.0, *_mean_stderr(z0_vars))]
    for i, p in enumerate(plan.rows):
        rows.append(TraceRow("forward", i + 1, p.q_pred, *_mean_stderr(u_vars[:, i])))
    return rows


def _backward_rows(plan, dz_vars):
    return [
        TraceRow("backward", i + 1, p.r_pred, *_mean_stderr(dz_vars[:, i]))
        for i, p in enumerate(plan.rows[1:])
    ]


def estimate_forward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure forward variance levels under the plan; compare to predictions."""
    z0_vars, u_vars, _ = _run_draws(arch, plan, cfg, want_backward=False)
    rows = _forward_rows(plan, z0_vars, u_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


def estimate_backward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure backward variance levels under iid injected top gradients."""
    _, _, dz_vars = _run_draws(arch, plan, cfg, want_backward=True)
    rows = _backward_rows(plan, dz_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


def estimate_both(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Forward and backward in one pass (shares the forward traces)."""
    z0_vars, u_vars, dz_vars = _run_draws(arch, plan, cfg, want_backward=True)
    rows = _forward_rows(plan, z0_vars, u_vars) + _backward_rows(plan, dz_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


@dataclass(frozen=True)
class CompareReport:
    """Pass/fail verdict on a trace: failures are the rows whose relative
    error is not within threshold (a NaN one included), worst the row with
    the largest, NaN above every number (None for an empty trace).
    max_rel_error and passed derive from them."""

    threshold: float
    worst: TraceRow | None
    failures: tuple[TraceRow, ...]
    trace: VarianceTrace

    @property
    def max_rel_error(self):
        return self.worst.rel_error if self.worst is not None else 0.0

    @property
    def passed(self):
        return not self.failures

    def table(self):
        """(head, key, rows, csv columns) for cli.render, JSON only: the
        report nests the trace object under "trace".  In CSV a run prints
        the trace table alone."""
        head, key, rows, _ = self.trace.table()
        summary = {
            "threshold": self.threshold,
            "max_rel_error": self.max_rel_error,
            "passed": self.passed,
            "failures": [
                {"direction": r.direction, "layer": r.ell, "rel_error": r.rel_error}
                for r in self.failures
            ],
        }
        return summary, "trace", {**head, key: rows}, None


def compare(trace: VarianceTrace, threshold: float) -> CompareReport:
    """Pass/fail report: every layer's relative error must stay inside
    threshold; a NaN one (inf against inf) does not."""
    return CompareReport(
        threshold=threshold,
        worst=max(trace.rows, key=lambda r: (math.isnan(r.rel_error), r.rel_error),
                  default=None),
        failures=tuple(r for r in trace.rows if not r.rel_error <= threshold),
        trace=trace,
    )
