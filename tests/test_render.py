"""cli.render writes the bytes the standard library's writers would.

JSON is compared with json.dumps(obj, indent=2), CSV with the
csv.DictWriter path render used before it wrote rows through csv.writer.
Both references are kept here, written out, so a change to render's fast
paths cannot move a byte unseen.
"""

import csv
import io
import json
import math

import pytest
from hypothesis import given

import asvinit
from asvinit import cli, montecarlo, shapes, variance
from conftest import small_chains

def reference_json(table):
    """json.dumps(obj, indent=2) of the table, with a non-finite float
    written as null, as render's docstring says."""
    head, key, rows, _ = table
    obj = {**head, key: rows}
    try:
        return json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        return json.dumps(cli._finite(obj), indent=2)


def reference_csv(table):
    """The csv.DictWriter rendering of a table: head fields and dict cells
    spread into the row, floats written as repr."""
    head, _, rows, columns = table
    buf = io.StringIO()
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


def method_table(architecture):
    args = cli._parser().parse_args(["init", "--builtin", "arch34", "--method", "all"])
    cli._validate(args)
    return cli._method_table(architecture, args)


def printed_tables(architecture):
    """Every table the CLI prints for an architecture, but simulate's."""
    yield shapes.ShapeReport.build(architecture).table()
    for method in variance.METHODS:
        yield variance.init_plan(method, architecture).table()
    yield method_table(architecture)


def simulate_tables(architecture):
    """simulate's JSON report, once with every layer failing and once with
    none, and its CSV trace table."""
    plan = variance.init_plan(variance.ASV_FORWARD, architecture)
    trace = montecarlo.estimate_both(architecture, plan, montecarlo.McConfig(1, 2, seed=3))
    return [montecarlo.compare(trace, 0.0).table(),
            montecarlo.compare(trace, math.inf).table()], trace.table()


@given(architecture=small_chains())
def test_json_is_json_dumps_indent_2(architecture):
    reports, _ = simulate_tables(architecture)
    assert reports[0][0]["failures"]
    for table in [*printed_tables(architecture), *reports]:
        assert cli.render(table, "json") == reference_json(table)


@given(architecture=small_chains())
def test_csv_is_the_dict_writer_rendering(architecture):
    _, trace_table = simulate_tables(architecture)
    for table in [*printed_tables(architecture), trace_table]:
        assert cli.render(table, "csv") == reference_csv(table)


NAMES = [
    'say "hi"', "back\\slash", "tab\tnew\nline\r\x00\x1f\x7f", "café σ_w",
    "astral \U0001f600 \U00010348", "lone \ud800 surrogate", "", "comma, and \"quote\"",
]


def hand_tables():
    """Tables render must handle that no architecture produces: empty
    containers, awkward strings, bools next to ints, deep nesting."""
    yield {}, "rows", [], ("a",)
    yield {"name": "x", "sizes": [], "more": {}, "t": ()}, "rows", [{}], ()
    for name in NAMES:
        yield ({"arch": name, "methods": [name, name], name: [name, {name: [name]}]}, "layers",
               [{"layer": 1, "kind": name, "sigma_w": {name: 0.5, "b": 1}}],
               ("layer", "kind", name, "b"))
    yield ({"flags": [True, 1, False, 0, None]}, "rows",
           [{"clamped": True, "M": 1, "gamma": 1.0, "off": False, "n": 0, "p": None}],
           ("flags", "clamped", "M", "gamma", "off", "n", "p"))
    yield ({"deep": [[1, [2, []]], {"k": [{"z": ()}]}], "big": 10**30, "tiny": 5e-324},
           "rows", [{"x": -0.0, "y": 1e300, "pair": (1, 2.5)}], ("big", "tiny", "x", "y"))


@pytest.mark.parametrize("table", list(hand_tables()))
def test_hand_tables(table):
    assert cli.render(table, "json") == reference_json(table)
    if table[3]:
        assert cli.render(table, "csv") == reference_csv(table)


def test_non_finite_cells_are_null_in_json():
    table = ({"arch": "x", "max_rel_error": math.nan}, "rows",
             [{"layer": 1, "estimate": math.inf, "nested": [-math.inf, 1.0]}], ())
    text = cli.render(table, "json")
    assert text == reference_json(table)
    assert json.loads(text) == {"arch": "x", "max_rel_error": None,
                                "rows": [{"layer": 1, "estimate": None, "nested": [None, 1.0]}]}


def test_without_the_c_encoder_json_is_unchanged(monkeypatch):
    """An interpreter without the C accelerator writes through json.dumps."""
    tables = [*printed_tables(asvinit.builtin("arch34")), *hand_tables()]
    expected = [cli.render(t, "json") for t in tables]
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert [cli.render(t, "json") for t in tables] == expected


def test_builtin_tables_match_the_references():
    for name in ("arch34", "arch50"):
        for table in printed_tables(asvinit.builtin(name)):
            assert cli.render(table, "json") == reference_json(table)
            assert cli.render(table, "csv") == reference_csv(table)


def test_arch34_csv_tau_keeps_its_numpy_repr(capsys):
    """The layer-1 tau of arch34 is a NumPy float, and CSV writes floats as
    repr, so its cell reads np.float64(...).  The benchmark's recorded
    output digests pin these bytes; writing the plain number waits for the
    change that re-records them (ROADMAP, "Recommended order", step 2)."""
    assert cli.main(["init", "--builtin", "arch34", "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows[0]["tau"] == "np.float64(2.562559127742372)"
    assert all(not r["tau"].startswith("np.") for r in rows[1:])


def test_finite_tables_never_reach_the_pure_python_encoder(monkeypatch):
    """json.dumps(..., indent=2) runs the pure-Python encoder before Python
    3.13, which cost the built-in tables most of their request time.  Every
    finite built-in table must render without it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    for name in ("arch34", "arch50"):
        for table in printed_tables(asvinit.builtin(name)):
            json.loads(cli.render(table, "json"))
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1], indent=2)
