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

One estimator body serves all three directions and computes only the
rows it reports.  Per parameter draw it samples the net, draws z0 (and,
for backward, the top gradient) with the bits of
default_rng(seed).normal(0.0, 1.0, shape), through a refnet.NormalStream
whose helper thread draws part of a long one, and makes one
refnet.signal_moments call,
which streams the batch chunk by chunk, forward and back down to
interface 1, keeping no trace, and returns per layer the (sum x, sum x^2)
of every u and of dz at interfaces 1..L-1.  Every row's variance is
mean(x^2) - mean(x)^2 from such sums (_variance); z0's sums are
np.add.reduce over the drawn array itself.  For a batch of at most
refnet.CHUNK inputs these are the bits of that formula over the whole
signal; past that, the chunks' partial sums are added in chunk order, a
few ulp away from a whole-array mean.

Estimates are averaged across parameter draws in draw order; the standard
error is the dispersion of per-draw estimates.  Everything is reproducible
bit for bit for a fixed seed and trial count, whatever the number of
threads.  Before the first draw, a run holds refnet.memory_need (what one
draw holds at once) plus the per-draw table of estimates (8 bytes per row
and draw) against the memory this process may use (refnet.check_memory),
and raises BudgetExceeded when it does not fit.
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


def _variance(sums, count):
    """mean(x^2) - mean(x)^2 of a signal from its (sum x, sum x^2) over
    count entries, in Python floats: inf or NaN, never a warning, when a
    sum overflowed."""
    total, squares = float(sums[0]), float(sums[1])
    m = total / count
    return squares / count - m * m


def _mean_stderr(per_draw):
    est = float(np.mean(per_draw))
    if per_draw.shape[0] > 1:
        se = float(np.std(per_draw, ddof=1) / np.sqrt(per_draw.shape[0]))
    else:
        se = 0.0
    return est, se


def _estimate(arch, plan, cfg, forward, backward):
    """The rows of the asked directions, forward 0..L then backward 1..L-1,
    each a per-draw variance averaged over the parameter draws."""
    cfg.check_budget()
    batch = cfg.n_input_draws
    geo = arch.geo
    # (direction, layer, predicted, entries per input) of each row
    rows = []
    if forward:
        rows.append(("forward", 0, 1.0, geo[0].m_prev))
        rows += [("forward", i, p.q_pred, g.m_prime)
                 for i, (p, g) in enumerate(zip(plan.rows, geo), 1)]
    if backward:
        rows += [("backward", i, p.r_pred, g.m_prev)
                 for i, (p, g) in enumerate(zip(plan.rows[1:], geo[1:]), 1)]
    # one draw's weights and signals, and the per-draw table beside them
    refnet.check_memory(
        refnet.memory_need(arch, batch, backward) + 8 * cfg.n_param_draws * len(rows),
        f"{arch.name}: weights and signals of {batch} inputs, "
        f"and {cfg.n_param_draws} draws' estimates",
    )
    per_draw = np.empty((cfg.n_param_draws, len(rows)))
    root = np.random.SeedSequence(cfg.seed)
    for a in range(cfg.n_param_draws):
        # the a-th child of root, spawned as its draw starts: the child
        # spawn(n_param_draws) would give, without holding all of them
        param_ss, input_ss, inject_ss = root.spawn(1)[0].spawn(3)
        net = refnet.sample_parameters(arch, plan, param_ss)
        z0 = refnet.seeded_normal(input_ss, (geo[0].m_prev, batch))
        delta = None
        if backward:
            delta = refnet.seeded_normal(inject_ss, (geo[-1].m_prime, batch))
        u_sums, dz_sums = refnet.signal_moments(net, z0, delta)
        sums = [refnet._sums(z0), *u_sums] if forward else []
        if backward:
            sums.extend(dz_sums)
        per_draw[a] = [_variance(s, m * batch) for s, (*_, m) in zip(sums, rows)]
        # before the next draw samples its own: memory_need counts one net
        del net, z0, delta
    return VarianceTrace(arch.name, plan.method, cfg, tuple(
        TraceRow(direction, ell, predicted, *_mean_stderr(per_draw[:, j]))
        for j, (direction, ell, predicted, _) in enumerate(rows)
    ))


def estimate_forward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure forward variance levels under the plan; compare to predictions."""
    return _estimate(arch, plan, cfg, forward=True, backward=False)


def estimate_backward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure backward variance levels under iid injected top gradients."""
    return _estimate(arch, plan, cfg, forward=False, backward=True)


def estimate_both(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Forward and backward in one pass (shares the forward signals)."""
    return _estimate(arch, plan, cfg, forward=True, backward=True)


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
