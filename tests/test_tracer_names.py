"""Every name the benchmark's span recorder wraps exists in the package.

The recorder (perfbench/tracer.py) wraps functions and methods by name, so
a refactor that drops or renames one breaks the traced benchmark run.
The file is parsed, not imported, so this test needs nothing from it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tables() -> dict:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("PACKAGE", "FUNCTIONS", "METHODS"):
                out[target.id] = ast.literal_eval(node.value)
    return out


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/tracer.py in this tree")
def test_traced_names_resolve():
    tables = _tables()
    assert tables["FUNCTIONS"] and tables["METHODS"]
    package = tables["PACKAGE"]
    missing = []
    for mod, attr, _ in tables["FUNCTIONS"]:
        if not callable(getattr(importlib.import_module(f"{package}.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls, attr, _ in tables["METHODS"]:
        owner = getattr(importlib.import_module(f"{package}.{mod}"), cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []
