"""The names that outside code looks up in the library resolve.

certbench's layer tracer (certbench/layertrace.py) replaces each
(module, attribute) of its TARGETS table for a traced pass and calls getattr
on it with no default, so a library name it lists must not disappear.  The
table is read from the file; certbench itself is not imported.
"""

import ast
import importlib
from pathlib import Path

import anisohardy

LAYERTRACE = Path(__file__).resolve().parents[1] / "certbench" / "layertrace.py"


def _tracer_sites():
    """Every (module, attribute) pair of layertrace.TARGETS, whose rows are
    (span name, hooks, [(module, attribute), ...])."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"])
    return [tuple(site) for row in table.elts for site in ast.literal_eval(row.elts[2])]


def test_tracer_targets_resolve():
    sites = _tracer_sites()
    assert ("rayleigh", "sweep_and_extrapolate") in sites and len(sites) > 20
    missing = [(mod, attr) for mod, attr in sites
               if not hasattr(importlib.import_module("anisohardy." + mod), attr)]
    assert missing == []


def test_public_api_resolves():
    assert [name for name in anisohardy.__all__ if not hasattr(anisohardy, name)] == []
