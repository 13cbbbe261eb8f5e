"""Command-line front end.

Subcommands: analyze (shape/connection report), init (per-layer sigma table,
optional sampled-weight file), simulate (Monte Carlo check of the variance
predictions, CI-friendly exit status).  compare-methods prints the same
five-method sigma table as ``init --method all``: it is a second entry for
the same handler.

Every table leaves through render(): the reports hand over header fields and
row dicts, and only this module knows the CSV and JSON layouts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import arch as arch_mod
from . import montecarlo, refnet, shapes as shapes_mod, variance as variance_mod
from .errors import AsvinitError, BudgetExceeded

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_WEIGHTS_FORMAT = "asvinit-weights"


def _resolve_arch(args):
    if args.builtin is not None:
        return arch_mod.builtin(args.builtin)
    try:
        with open(args.arch, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise AsvinitError(f"cannot read {args.arch}: {exc}") from exc
    return arch_mod.parse_architecture(text)


def render(table, fmt):
    """Text of a (head, key, rows, columns) table, fmt "json" or "csv".

    JSON is one object: the head fields, then the row dicts under key.  CSV
    has one line per row with the given columns; a column may name a head
    field (repeated on every line) or a key of a dict cell (the cell spreads
    into columns).  Float cells are written as repr.
    """
    head, key, rows, columns = table
    if fmt == "json":
        return json.dumps({**head, key: rows}, indent=2)
    buf = io.StringIO()
    # rows carry exactly the columns, so skip DictWriter's per-row key check
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        cells = {**head, **row}
        for value in row.values():
            if isinstance(value, dict):
                cells.update(value)
        writer.writerow({
            c: repr(cells[c]) if isinstance(cells[c], float) else cells[c] for c in columns
        })
    return buf.getvalue()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _positive(option, value):
    if not (math.isfinite(value) and value > 0):
        raise AsvinitError(f"{option} must be a positive finite number, got {value}")
    return value


def _parse_trials(text):
    try:
        a, b = (int(n) for n in text.lower().split("x"))
    except ValueError:
        raise AsvinitError(f"--trials expects AxB (e.g. 8x512), got {text!r}") from None
    if a < 1 or b < 1:
        raise AsvinitError(f"--trials counts must be >= 1, got {text!r}")
    return a, b


def _clamp_factor(text):
    if text.lower() in ("none", "off"):
        return None
    try:
        value = float(text)
    except ValueError:
        raise AsvinitError(f"--clamp-factor expects a number or 'none', got {text!r}") from None
    return _positive("--clamp-factor", value)


def _validate(args):
    """Reject option values the model cannot use before any work starts.
    Parses --clamp-factor and --trials in place."""
    if "clamp_factor" in args:
        args.clamp_factor = _clamp_factor(args.clamp_factor)
    if "trials" in args:
        args.trials = _parse_trials(args.trials)
    for name in ("tau0", "q0", "rL"):
        if name in args:
            _positive(f"--{name}", getattr(args, name))
    if "threshold" in args and not args.threshold >= 0:
        raise AsvinitError(f"--threshold must be a non-negative number, got {args.threshold}")
    if "seed" in args and args.seed < 0:
        raise AsvinitError(f"--seed must be non-negative, got {args.seed}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args):
    architecture = _resolve_arch(args)
    report = shapes_mod.ShapeReport.build(architecture)
    _emit(render(report.table(), args.format), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# init / compare-methods
# ---------------------------------------------------------------------------

def _init_plan(method, architecture, args, geo=None):
    return variance_mod.init_plan(
        method, architecture, geo=geo, clamp_factor=args.clamp_factor,
        tau0=args.tau0, clamp_mode=args.clamp_mode,
    )


def _method_table(architecture, args):
    """sigma_w of every method, one row per layer."""
    geo = shapes_mod.infer_shapes(architecture)
    plans = [_init_plan(m, architecture, args, geo) for m in variance_mod.METHODS]
    rows = [
        {"layer": i + 1, "sigma_w": {p.method: p.rows[i].sigma_w for p in plans}}
        for i in range(len(geo))
    ]
    head = {"arch": architecture.name, "methods": list(variance_mod.METHODS)}
    return head, "layers", rows, ("layer", *variance_mod.METHODS)


def write_weights(path, net: refnet.VectorNet, method, seed):
    """Binary weight file: one JSON header line, then little-endian float64
    weights and biases per layer (W row-major (C, S), then b)."""
    header = {
        "format": _WEIGHTS_FORMAT,
        "version": 1,
        "arch": net.arch.name,
        "method": method,
        "seed": seed,
        "layers": [
            {"layer": i + 1, "channels": g.channels, "kernel_len": g.s_len}
            for i, g in enumerate(net.geo)
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        for w, b in zip(net.weights, net.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def read_weights(path):
    """Inverse of write_weights: returns (header, weights, biases)."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("format") != _WEIGHTS_FORMAT:
            raise AsvinitError(f"{path} is not a weight file")

        def floats(count):
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise AsvinitError(f"{path} is truncated")
            return np.frombuffer(data, dtype="<f8")

        weights, biases = [], []
        for layer in header["layers"]:
            c, s = layer["channels"], layer["kernel_len"]
            weights.append(floats(c * s).reshape(c, s))
            biases.append(floats(c))
    return header, weights, biases


def cmd_init(args):
    """init, and compare-methods as init --method all."""
    architecture = _resolve_arch(args)
    if args.method == "all":
        if args.emit_weights:
            raise AsvinitError("--emit-weights needs a single --method")
        _emit(render(_method_table(architecture, args), args.format), args.out)
        return EXIT_OK
    plan = _init_plan(args.method, architecture, args)
    _emit(render(plan.table(), args.format), args.out)
    if args.emit_weights:
        net = refnet.sample_parameters(architecture, plan, args.seed)
        write_weights(args.emit_weights, net, plan.method, args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args):
    architecture = _resolve_arch(args)
    geo = shapes_mod.infer_shapes(architecture)
    if args.sigma_override:
        try:
            with open(args.sigma_override, "r", encoding="utf-8") as fh:
                sigmas = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise AsvinitError(f"cannot read {args.sigma_override}: {exc}") from exc
        try:
            plan = variance_mod.plan_from_sigmas(
                architecture, sigmas, geo=geo, tau0=args.tau0, q0=args.q0, rL=args.rL
            )
        except (TypeError, ValueError) as exc:
            raise AsvinitError(f"{args.sigma_override}: {exc}") from exc
    else:
        plan = _init_plan(args.method, architecture, args, geo)
    n_param, n_input = args.trials
    cfg = montecarlo.McConfig(
        n_param_draws=n_param, n_input_draws=n_input, seed=args.seed,
        q0=args.q0, rL=args.rL,
    )
    estimate = getattr(montecarlo, f"estimate_{args.directions}")
    trace = estimate(architecture, plan, cfg)
    report = montecarlo.compare(trace, args.threshold)
    table = trace.table() if args.format == "csv" else report.table()
    _emit(render(table, args.format), args.out)
    if not report.passed:
        worst = report.worst
        print(
            f"FAIL: {len(report.failures)} layer(s) beyond threshold "
            f"{args.threshold}; worst {worst.direction} layer {worst.ell} "
            f"rel error {worst.rel_error:.4f}",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="asvinit",
        description="Padding- and pooling-aware CNN initialization calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, func, plan_args=True, **defaults):
        """Subcommand with the shared architecture, plan and output options."""
        p = sub.add_parser(
            name, help=about, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", metavar="NAME", help="built-in architecture name")
        group.add_argument("--arch", metavar="FILE", help="architecture JSON file")
        if plan_args:
            p.add_argument("--clamp-factor", default="3", metavar="F",
                           help="asv-backward cap vs. the no-pool value ('none' disables)")
            p.add_argument("--clamp-mode", choices=("variance", "stddev"), default="variance")
            p.add_argument("--tau0", type=float, default=1.0,
                           help="input-layer forward constant (raw inputs carry their full variance)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH")
        p.set_defaults(func=func, **defaults)
        return p

    command("analyze", "per-layer shape and connection report", cmd_analyze, plan_args=False)

    p = command("init", "per-layer sigma table for one method", cmd_init)
    p.add_argument(
        "--method", default=variance_mod.ASV_BACKWARD,
        choices=(*variance_mod.METHODS, "all"),
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit-weights", metavar="PATH",
                   help="also sample parameters and write a binary weight file")

    command("compare-methods", "five-method sigma table (same as init --method all)",
            cmd_init, method="all", emit_weights=None)

    p = command("simulate", "Monte Carlo check of variance predictions", cmd_simulate)
    p.add_argument("--method", default=variance_mod.ASV_FORWARD,
                   choices=variance_mod.METHODS)
    p.add_argument("--sigma-override", metavar="FILE",
                   help="JSON list of per-layer weight std devs (overrides --method)")
    p.add_argument("--trials", default="8x512", metavar="AxB",
                   help="parameter draws x input draws")
    p.add_argument("--directions", choices=("forward", "backward", "both"),
                   default="both", help="which signal directions to judge")
    p.add_argument("--threshold", type=float, default=0.2,
                   help="max tolerated relative error per layer")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--rL", type=float, default=1.0)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AsvinitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
