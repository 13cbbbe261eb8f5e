import functools
import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves(monkeypatch):
    """The benchmark's traced mode wraps asvinit functions by name
    (perfbench/spans.py TARGETS); a rename fails here first."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attr in spans.TARGETS:
        owner = importlib.import_module(f"asvinit.{mod_name}")
        try:
            functools.reduce(getattr, attr.split("."), owner)
        except AttributeError:
            missing.append(f"{mod_name}.{attr}")
    assert not missing
