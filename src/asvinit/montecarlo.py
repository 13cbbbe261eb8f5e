"""Monte Carlo estimation of per-layer signal variances vs. predictions.

Forward: draw parameters, feed batches of iid N(0, q0) inputs, and measure
the variance of each layer's pre-activation signals pooled over units and
input draws (per-unit variances differ at map borders; the recursion itself
is an average over units).  Backward: inject iid N(0, rL) top gradients and
measure the variance of the backward signals dz at each layer interface
1..L-1 (the backward chain ends at du^(1); dz^(L) is the injection itself).

Estimates are averaged across parameter draws in draw order; the standard
error is the dispersion of per-draw estimates.  Everything is reproducible
bit for bit for a fixed seed and trial count.
"""

from __future__ import annotations

import os
import resource
from dataclasses import dataclass, field

import numpy as np

from . import arch as arch_mod, refnet, shapes as shapes_mod, variance as variance_mod
from .errors import AsvinitError, BudgetExceeded

_DEFAULT_BUDGET = 1_000_000


def _env_budget():
    raw = os.environ.get("ASV_BUDGET")
    if raw is None:
        return _DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise AsvinitError(f"ASV_BUDGET must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class McConfig:
    """Trial counts and randomness for one estimation run.

    The product n_param_draws * n_input_draws must stay within budget
    (default from the ASV_BUDGET environment variable, else 1e6).
    """

    n_param_draws: int
    n_input_draws: int
    seed: int = 0
    q0: float = 1.0
    rL: float = 1.0
    budget: int | None = None

    def check_budget(self):
        if self.n_param_draws < 1 or self.n_input_draws < 1:
            raise ValueError("trial counts must be >= 1")
        budget = self.budget if self.budget is not None else _env_budget()
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
            "seed": self.config.seed, "q0": self.config.q0, "rL": self.config.rL,
        }
        columns = ("direction", "layer", "predicted", "estimate", "stderr", "rel_error")
        return head, "rows", rows, columns


def _memory_need(geo, batch, want_backward):
    """Upper bound on the bytes one draw of _run_draws holds at once: the
    draw's float64 weights and biases, the signals a trace keeps (u, v, z,
    max-pool winners and, for backward, du, dv, dz) for every image, the
    input twice (drawn and as images), one signal-sized temporary, and one
    im2col chunk."""
    per_image = 2 * geo[0].m_prev
    for g in geo:
        per_image += 2 * g.m_prime + g.m                   # u, v, z
        if g.pool_kind == arch_mod.MAX:
            per_image += g.m                               # winners (<= 8 bytes)
        if want_backward:
            per_image += 2 * g.m_prime + g.m_prev          # du, dv, dz
    per_image += max(max(g.m_prime, g.m_prev) for g in geo)
    chunk = min(refnet.CHUNK, batch) * max(g.s_len * g.m_prime // g.channels for g in geo)
    return 8 * (sum(g.params for g in geo) + batch * per_image + chunk)


def _check_memory(arch, geo, cfg, want_backward):
    """Refuse a run whose weights and signals exceed the memory this process
    may use (the soft RLIMIT_AS when one is set, else the machine's physical
    memory), before any of them is allocated."""
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit == resource.RLIM_INFINITY:
        limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    need = _memory_need(geo, cfg.n_input_draws, want_backward)
    if need > limit:
        raise BudgetExceeded(
            f"{arch.name}: weights and signals of {cfg.n_input_draws} inputs need "
            f"{need / 2**30:.1f} GiB, over the {limit / 2**30:.1f} GiB memory limit"
        )


def _pooled_variance(x):
    """Variance over all entries (units x batch) of one draw."""
    m = float(np.mean(x))
    return float(np.mean(x * x)) - m * m


def _one_draw(arch, plan, cfg, geo, seeds, want_backward):
    """Pooled variances of z0, every u and (when asked) every inner dz for
    one parameter draw.  Its trace is freed on return, before the next
    draw allocates its own."""
    param_ss, input_ss, inject_ss = seeds.spawn(3)
    net = refnet.sample_parameters(arch, plan, param_ss)
    rng_in = np.random.default_rng(input_ss)
    z0 = rng_in.normal(0.0, np.sqrt(cfg.q0), size=(geo[0].m_prev, cfg.n_input_draws))
    trace = refnet.forward(net, z0)
    u_vars = [_pooled_variance(u) for u in trace.u]
    dz_vars = None
    if want_backward:
        rng_top = np.random.default_rng(inject_ss)
        delta = rng_top.normal(
            0.0, np.sqrt(cfg.rL), size=(geo[-1].m_prime, cfg.n_input_draws)
        )
        refnet.backward(net, trace, delta_uL=delta)
        dz_vars = [_pooled_variance(dz) for dz in trace.dz[1:-1]]
    return _pooled_variance(z0), u_vars, dz_vars


def _run_draws(arch, plan, cfg, want_backward):
    """Per-draw pooled variances of u (and dz when requested)."""
    cfg.check_budget()
    geo = tuple(shapes_mod.infer_shapes(arch))
    _check_memory(arch, geo, cfg, want_backward)
    n_layers = len(geo)

    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.n_param_draws)

    u_vars = np.empty((cfg.n_param_draws, n_layers))
    z0_vars = np.empty(cfg.n_param_draws)
    dz_vars = np.empty((cfg.n_param_draws, n_layers - 1)) if want_backward else None

    for a in range(cfg.n_param_draws):
        z0_vars[a], u_vars[a], dz_row = _one_draw(
            arch, plan, cfg, geo, children[a], want_backward
        )
        if want_backward:
            dz_vars[a] = dz_row
    return geo, z0_vars, u_vars, dz_vars


def _mean_stderr(per_draw):
    est = float(np.mean(per_draw))
    if per_draw.shape[0] > 1:
        se = float(np.std(per_draw, ddof=1) / np.sqrt(per_draw.shape[0]))
    else:
        se = 0.0
    return est, se


def _forward_rows(geo, plan, cfg, z0_vars, u_vars):
    q_pred = variance_mod.predict_forward(geo, plan.sigma_w, q0=cfg.q0, tau0=plan.tau0)
    rows = []
    est, se = _mean_stderr(z0_vars)
    rows.append(TraceRow("forward", 0, float(q_pred[0]), est, se))
    for i in range(len(geo)):
        est, se = _mean_stderr(u_vars[:, i])
        rows.append(TraceRow("forward", i + 1, float(q_pred[i + 1]), est, se))
    return rows


def _backward_rows(geo, plan, cfg, dz_vars):
    r_pred = variance_mod.predict_backward(geo, plan.sigma_w, rL=cfg.rL)
    rows = []
    for i in range(len(geo) - 1):
        est, se = _mean_stderr(dz_vars[:, i])
        rows.append(TraceRow("backward", i + 1, float(r_pred[i + 1]), est, se))
    return rows


def estimate_forward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure forward variance levels under the plan; compare to predictions."""
    geo, z0_vars, u_vars, _ = _run_draws(arch, plan, cfg, want_backward=False)
    rows = _forward_rows(geo, plan, cfg, z0_vars, u_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


def estimate_backward(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Measure backward variance levels under iid injected top gradients."""
    geo, z0_vars, u_vars, dz_vars = _run_draws(arch, plan, cfg, want_backward=True)
    rows = _backward_rows(geo, plan, cfg, dz_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


def estimate_both(arch, plan, cfg: McConfig) -> VarianceTrace:
    """Forward and backward in one pass (shares the forward traces)."""
    geo, z0_vars, u_vars, dz_vars = _run_draws(arch, plan, cfg, want_backward=True)
    rows = _forward_rows(geo, plan, cfg, z0_vars, u_vars)
    rows += _backward_rows(geo, plan, cfg, dz_vars)
    return VarianceTrace(arch.name, plan.method, cfg, tuple(rows))


@dataclass(frozen=True)
class CompareReport:
    threshold: float
    max_rel_error: float
    worst: TraceRow | None
    failures: tuple[TraceRow, ...]
    passed: bool
    trace: VarianceTrace

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
    threshold."""
    failures = tuple(r for r in trace.rows if r.rel_error > threshold)
    worst = max(trace.rows, key=lambda r: r.rel_error, default=None)
    return CompareReport(
        threshold=threshold,
        max_rel_error=worst.rel_error if worst is not None else 0.0,
        worst=worst,
        failures=failures,
        passed=not failures,
        trace=trace,
    )
