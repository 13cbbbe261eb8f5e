"""Command-line front end.

Subcommands: analyze (shape/connection report), init (per-layer sigma table,
optional sampled-weight file), simulate (Monte Carlo check of the variance
predictions, CI-friendly exit status).  compare-methods prints the same
five-method sigma table as ``init --method all``: it is a second entry for
the same handler.

Every table leaves through render(): the reports hand over header fields and
row dicts, and only this module knows the CSV and JSON layouts.

main(argv) may be called any number of times in one process.  It builds the
argument parser on its first call and reuses it.  Exit status: 0 done, 1 a
simulate layer beyond --threshold, 2 bad input (an option, an architecture,
a file that cannot be read or written), 3 a budget or memory limit.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
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


def _read_text(path):
    """Text of an input file; one that cannot be opened or is not UTF-8
    is an AsvinitError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise AsvinitError(f"cannot read {path}: {exc}") from exc


def _resolve_arch(args):
    if args.builtin is not None:
        return arch_mod.builtin(args.builtin)
    return arch_mod.parse_architecture(_read_text(args.arch))


def _finite(value):
    """value with every non-finite float in it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def render(table, fmt):
    """Text of a (head, key, rows, columns) table, fmt "json" or "csv".

    JSON is one object: the head fields, then the row dicts under key.  CSV
    has one line per row with the given columns; a column may name a head
    field (repeated on every line) or a key of a dict cell (the cell spreads
    into columns).  Float cells are written as repr, except that JSON, which
    has no NaN or Infinity (RFC 8259), writes a non-finite float as null.
    """
    head, key, rows, columns = table
    if fmt == "json":
        obj = {**head, key: rows}
        try:
            return json.dumps(obj, indent=2, allow_nan=False)
        except ValueError:   # a non-finite float; only such a table pays the walk
            return json.dumps(_finite(obj), indent=2)
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


def _cannot_write(path, exc):
    return AsvinitError(f"cannot write {path}: {exc.strerror or exc}")


def _emit(text, out_path):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
        except OSError as exc:
            raise _cannot_write(out_path, exc) from exc
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
    if text.lower() == "none":
        return None
    try:
        value = float(text)
    except ValueError:
        raise AsvinitError(f"--clamp-factor expects a number or 'none', got {text!r}") from None
    return _positive("--clamp-factor", value)


def _check_writable(path):
    """Refuse an output path no file can be created at.  It runs before the
    work, so simulate does not find out only after its whole run."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise AsvinitError(f"cannot write {path}: Is a directory")
    if not os.path.isdir(parent):
        raise AsvinitError(f"cannot write {path}: {parent} is not a directory")


def _validate(args):
    """Reject option values the model cannot use before any work starts.
    Parses --clamp-factor and --trials in place."""
    for path in (args.out, getattr(args, "emit_weights", None)):
        if path:
            _check_writable(path)
    if "clamp_factor" in args:
        args.clamp_factor = _clamp_factor(args.clamp_factor)
    if "trials" in args:
        args.trials = _parse_trials(args.trials)
    if "tau0" in args:
        _positive("--tau0", args.tau0)
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

def _init_plan(method, architecture, args):
    return variance_mod.init_plan(
        method, architecture, clamp_factor=args.clamp_factor, tau0=args.tau0,
    )


def _method_table(architecture, args):
    """sigma_w of every method, one row per layer."""
    plans = [_init_plan(m, architecture, args) for m in variance_mod.METHODS]
    rows = [
        {"layer": i + 1, "sigma_w": {p.method: p.rows[i].sigma_w for p in plans}}
        for i in range(architecture.num_layers)
    ]
    head = {"arch": architecture.name, "methods": list(variance_mod.METHODS)}
    return head, "layers", rows, ("layer", *variance_mod.METHODS)


def write_weights(path, architecture, plan, seed):
    """Binary weight file: one JSON header line, then little-endian float64
    weights and biases per layer (W row-major (C, S), then b).  Every weight
    of the full kernels is written, dead taps included, one layer at a time
    from refnet.layer_draws: the numbers sample_parameters draws for the
    same seed before it keeps each layer's live taps."""
    header = {
        "format": _WEIGHTS_FORMAT,
        "version": 1,
        "arch": architecture.name,
        "method": plan.method,
        "seed": seed,
        "layers": [
            {"layer": i + 1, "channels": g.channels, "kernel_len": g.s_len}
            for i, g in enumerate(architecture.geo)
        ],
    }
    try:
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode("utf-8"))
            fh.write(b"\n")
            for w, b in refnet.layer_draws(plan, seed):
                fh.write(w.astype("<f8", copy=False))
                fh.write(b.astype("<f8", copy=False))
                del w, b   # one layer at a time
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def read_weights(path):
    """Inverse of write_weights: returns (header, weights, biases)."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError):
            header = None
        if not isinstance(header, dict) or header.get("format") != _WEIGHTS_FORMAT:
            raise AsvinitError(f"{path} is not a weight file")

        def floats(count):
            data = fh.read(8 * count)
            if len(data) != 8 * count:
                raise AsvinitError(f"{path} is truncated")
            return np.frombuffer(data, dtype="<f8")

        layers = header.get("layers")
        if not isinstance(layers, list):
            raise AsvinitError(f"{path}: header has no layer list")
        counts = []
        for layer in layers:
            try:
                c, s = layer["channels"], layer["kernel_len"]
            except (KeyError, TypeError):
                c = s = None
            if not all(type(n) is int and n >= 1 for n in (c, s)):
                raise AsvinitError(f"{path}: bad layer entry {layer!r}")
            counts.append((c, s))
        # refuse a header that claims more floats than the file holds before
        # asking for them: a huge claim would overflow or exhaust memory
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if 8 * sum(c * (s + 1) for c, s in counts) > left:
            raise AsvinitError(f"{path} is truncated")
        weights, biases = [], []
        for c, s in counts:
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
    if args.emit_weights:
        # write_weights holds one layer's weights and biases at a time
        refnet.check_memory(
            8 * max(g.channels * (g.s_len + 1) for g in architecture.geo),
            f"{architecture.name}: the largest layer's weights",
        )
    _emit(render(plan.table(), args.format), args.out)
    if args.emit_weights:
        write_weights(args.emit_weights, architecture, plan, args.seed)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _override_plan(path, architecture, tau0):
    """Plan of a --sigma-override file: a JSON list of numbers, one per
    layer.  A string or a boolean is refused, not read as a number."""
    try:
        sigmas = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise AsvinitError(f"cannot read {path}: {exc}") from exc
    if not isinstance(sigmas, list) or any(type(s) not in (int, float) for s in sigmas):
        raise AsvinitError(f"{path}: expected a JSON list of numbers")
    try:
        return variance_mod.plan_from_sigmas(architecture, sigmas, tau0=tau0)
    except (ValueError, OverflowError) as exc:
        raise AsvinitError(f"{path}: {exc}") from exc


def cmd_simulate(args):
    architecture = _resolve_arch(args)
    if args.sigma_override:
        plan = _override_plan(args.sigma_override, architecture, args.tau0)
    else:
        plan = _init_plan(args.method, architecture, args)
    n_param, n_input = args.trials
    cfg = montecarlo.McConfig(n_param_draws=n_param, n_input_draws=n_input, seed=args.seed)
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
                           help="asv-backward variance cap vs. the no-pool value "
                                "('none' disables)")
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

    return parser


@functools.cache
def _parser():
    """build_parser() once per process, on the first main() call.  Parsing
    leaves the parser as it was and returns a fresh Namespace each time."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
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
