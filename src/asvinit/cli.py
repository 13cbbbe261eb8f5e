"""Command-line front end.

Subcommands: analyze (shape/connection report), init (per-layer sigma table,
optional sampled-weight file), simulate (Monte Carlo check of the variance
predictions, CI-friendly exit status).  compare-methods prints the same
five-method sigma table as ``init --method all``: it is a second entry for
the same handler.

Every table leaves through render(): the reports hand over header fields and
row dicts, and only this module knows the CSV and JSON layouts.  JSON is
json.dumps(indent=2)'s bytes, written through the C encoder; CSV goes
through csv.writer.

The module loads the calculator only.  numpy and the engine (refnet,
montecarlo) are imported by the commands that run it: simulate,
--emit-weights (write_weights) and read_weights.  They are still called
through their module attributes (refnet.weight_blocks, montecarlo.compare,
...), so a wrapper set on those attributes sees every call.

main(argv) may be called any number of times in one process.  It builds the
argument parser on its first call and reuses it.  It returns the exit
status: 0 done, 1 a simulate layer beyond --threshold, 2 bad input (an
option, an architecture, a file that cannot be read or written, an output
path that names an input file or the other output), 3 a budget, memory or
disk limit (a weight file larger than the free space of its directory).
Every refusal is one "error:" line on stderr.  The parser checks each option
value as it reads it and refuses a bad command line with AsvinitError, as
the rest of the program refuses its input, so main returns 2 for it; only
-h leaves through SystemExit (0).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil
import stat
import sys

from . import arch as arch_mod
from . import shapes as shapes_mod, variance as variance_mod
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


_INDENT = "  "
_CONTAINER_TYPES = frozenset((dict, list, tuple))


@functools.cache
def _scalar_encoder(level):
    """C encoder of a container of scalars nested level deep.  The C
    encoder writes no newlines before Python 3.13 (json.dumps with an
    indent runs the pure-Python one), so the newline and indent that
    json.dumps(indent=2) puts between the items ride in the item separator."""
    return json.encoder.c_make_encoder(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
        ": ", ",\n" + _INDENT * (level + 1), False, False, False,
    )


def _indented(obj, level):
    """json.dumps(obj, indent=2, allow_nan=False)'s text of obj nested level
    deep.  A scalar or a container of scalars is one C-encoder call; only a
    container that holds containers is walked here.  Containers are found
    by exact type: the tables build theirs as plain dicts, lists and tuples
    (a subclass would be written on one line), and the keys that lead to a
    container are str."""
    kind = type(obj)
    values = obj.values() if kind is dict else obj if kind in _CONTAINER_TYPES else ()
    inner = "\n" + _INDENT * (level + 1)
    outer = "\n" + _INDENT * level
    if _CONTAINER_TYPES.isdisjoint(map(type, values)):
        text = "".join(_scalar_encoder(level)(obj, level))
        if not values:   # a scalar, [] or {}
            return text
        return text[0] + inner + text[1:-1] + outer + text[-1]
    if kind is dict:
        items = [json.encoder.encode_basestring_ascii(k) + ": " + _indented(v, level + 1)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + outer + "}"
    items = [_indented(v, level + 1) for v in obj]
    return "[" + inner + ("," + inner).join(items) + outer + "]"


def _dumps(obj):
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte, written
    through the C encoder when the interpreter has one."""
    if json.encoder.c_make_encoder is None:
        return json.dumps(obj, indent=2, allow_nan=False)
    return _indented(obj, 0)


def render(table, fmt):
    """Text of a (head, key, rows, columns) table, fmt "json" or "csv".

    JSON is one object: the head fields, then the row dicts under key,
    byte for byte what json.dumps(obj, indent=2) writes, but through the C
    encoder (see _indented).  CSV has one line per row with the given
    columns; a column may name a head field (repeated on every line) or a
    key of a dict cell (the cell spreads into columns).  Float cells are
    written as repr, except that JSON, which has no NaN or Infinity (RFC
    8259), writes a non-finite float as null.
    """
    head, key, rows, columns = table
    if fmt == "json":
        obj = {**head, key: rows}
        try:
            return _dumps(obj)
        except ValueError:   # a non-finite float; only such a table pays the walk
            return _dumps(_finite(obj))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        cells = {**head, **row}
        for value in row.values():
            if isinstance(value, dict):
                cells.update(value)
        writer.writerow([repr(v) if isinstance(v, float) else v
                         for v in map(cells.__getitem__, columns)])
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
        try:
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as exc:
            _drop_stdout()
            raise _cannot_write("stdout", exc) from exc


def _drop_stdout():
    """Point a failed standard output's descriptor at os.devnull, so that
    the interpreter's flush at exit has nothing left to fail on (the
    SIGPIPE note in Python's signal docs).  A stdout without a descriptor
    (a caller's replacement) is left as it is."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError, AttributeError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _check_outputs(args):
    """Refuse, before the work, an output path no file can be created at
    (simulate would find out only after its whole run), or one that names
    an input file or the other output (writing it would destroy that file).
    Paths are compared as absolute strings, and an output that already
    exists also by device and inode, so a new file costs no extra
    filesystem call."""
    named = [(option, path) for option, path in (
        ("--arch", args.arch), ("--sigma-override", getattr(args, "sigma_override", None)),
    ) if path]
    for option, path in (("--out", args.out), ("--emit-weights", getattr(args, "emit_weights", None))):
        if not path:
            continue
        try:
            st = os.stat(path)
        except (OSError, ValueError):
            st = None
        if st is not None and stat.S_ISDIR(st.st_mode):
            raise AsvinitError(f"cannot write {path}: Is a directory")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise AsvinitError(f"cannot write {path}: {parent} is not a directory")
        for other, other_path in named:
            if os.path.abspath(path) == os.path.abspath(other_path) or (
                    st is not None and _same_file(st, other_path)):
                raise AsvinitError(f"cannot write {path}: it is the {other} file")
        named.append((option, path))


def _same_file(st, path):
    try:
        return os.path.samestat(st, os.stat(path))
    except (OSError, ValueError):
        return False


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
    sigmas = variance_mod.method_sigmas(
        architecture, clamp_factor=args.clamp_factor, tau0=args.tau0,
    )
    rows = [
        {"layer": i + 1, "sigma_w": {m: s[i] for m, s in sigmas.items()}}
        for i in range(architecture.num_layers)
    ]
    head = {"arch": architecture.name, "methods": list(variance_mod.METHODS)}
    return head, "layers", rows, ("layer", *variance_mod.METHODS)


def _weights_header(architecture, plan, seed):
    """A weight file's first line: the JSON header and a newline, as bytes."""
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
    return json.dumps(header).encode("utf-8") + b"\n"


def write_weights(path, architecture, plan, seed, header=None):
    """Binary weight file: one JSON header line, then little-endian float64
    weights and biases per layer (W row-major (C, S), then b, zero).  Every
    weight of the full kernels is written, dead taps included, block by
    block as refnet.weight_blocks draws them for the same seed, so writing
    holds one block, and a net sampled with that seed holds the live
    columns of the file's weights.  header is _weights_header's bytes for
    the same arguments, when the caller has already built them."""
    from . import refnet

    if header is None:
        header = _weights_header(architecture, plan, seed)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            with contextlib.closing(refnet.weight_blocks(plan, seed)) as blocks:
                for i, r0, block in blocks:
                    fh.write(block.astype("<f8", copy=False))
                    channels = plan.rows[i].shape.channels
                    if r0 + len(block) == channels:   # the layer's last block
                        fh.write(bytes(8 * channels))
    except OSError as exc:
        raise _cannot_write(path, exc) from exc


def _check_free_space(path, architecture, header):
    """Refuse, with BudgetExceeded, a weight file with this header that is
    larger than the free space of the directory it goes to."""
    need = len(header)
    need += 8 * sum(g.channels * (g.s_len + 1) for g in architecture.geo)
    directory = os.path.dirname(path) or "."
    try:
        free = shutil.disk_usage(directory).free
    except OSError as exc:
        raise _cannot_write(path, exc) from exc
    if need > free:
        raise BudgetExceeded(
            f"{architecture.name}: the weight file needs {need / 2**30:.1f} GiB, "
            f"over the {free / 2**30:.1f} GiB free in {directory}"
        )


def read_weights(path):
    """Inverse of write_weights: returns (header, weights, biases)."""
    import numpy as np

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
        header = _weights_header(architecture, plan, args.seed)
        _check_free_space(args.emit_weights, architecture, header)
    _emit(render(plan.table(), args.format), args.out)
    if args.emit_weights:
        write_weights(args.emit_weights, architecture, plan, args.seed, header=header)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _override_plan(path, architecture, tau0):
    """Plan of a --sigma-override file: a JSON list of numbers, one per
    layer, which plan_from_sigmas checks."""
    try:
        sigmas = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:   # ValueError: bad JSON, or an int too long
        raise AsvinitError(f"cannot read {path}: {exc}") from exc
    try:
        return variance_mod.plan_from_sigmas(architecture, sigmas, tau0=tau0)
    except ValueError as exc:
        raise AsvinitError(f"{path}: {exc}") from exc


def cmd_simulate(args):
    from . import montecarlo

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

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that refuses a command line with AsvinitError, so
    that main prints it as one error: line and returns 2.  Subcommand
    parsers are of the same class."""

    def error(self, message):
        raise AsvinitError(message)


def _option(parse, accept, expected):
    """argparse type= of an option: parse reads the text (ValueError when
    it cannot), accept says whether the value is in range, and a refusal
    says what was expected."""
    def convert(text):
        try:
            value = parse(text)
        except ValueError:
            pass
        else:
            if accept(value):
                return value
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return convert


def _positive(value):
    return math.isfinite(value) and value > 0


_trials = _option(lambda text: tuple(map(int, text.lower().split("x"))),
                  lambda ab: len(ab) == 2 and min(ab) >= 1, "AxB with counts >= 1 (e.g. 8x512)")
_clamp_factor = _option(lambda text: None if text.lower() == "none" else float(text),
                        lambda f: f is None or _positive(f), "a positive finite number or 'none'")
_tau0 = _option(float, _positive, "a positive finite number")
_threshold = _option(float, lambda t: t >= 0, "a non-negative number")
_seed = _option(int, lambda n: n >= 0, "a non-negative integer")


def build_parser():
    parser = _Parser(
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
            p.add_argument("--clamp-factor", type=_clamp_factor, default="3", metavar="F",
                           help="asv-backward variance cap vs. the no-pool value "
                                "('none' disables)")
            p.add_argument("--tau0", type=_tau0, default=1.0,
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--emit-weights", metavar="PATH",
                   help="also sample parameters and write a binary weight file")

    command("compare-methods", "five-method sigma table (same as init --method all)",
            cmd_init, method="all", emit_weights=None)

    p = command("simulate", "Monte Carlo check of variance predictions", cmd_simulate)
    p.add_argument("--method", default=variance_mod.ASV_FORWARD,
                   choices=variance_mod.METHODS)
    p.add_argument("--sigma-override", metavar="FILE",
                   help="JSON list of per-layer weight std devs (overrides --method)")
    p.add_argument("--trials", type=_trials, default="8x512", metavar="AxB",
                   help="parameter draws x input draws")
    p.add_argument("--directions", choices=("forward", "backward", "both"),
                   default="both", help="which signal directions to judge")
    p.add_argument("--threshold", type=_threshold, default=0.2,
                   help="max tolerated relative error per layer")
    p.add_argument("--seed", type=_seed, default=0)

    return parser


@functools.cache
def _parser():
    """build_parser() once per process, on the first main() call.  Parsing
    leaves the parser as it was and returns a fresh Namespace each time."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AsvinitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
