"""The benchmark's tracer wraps rootpoly functions by name: every name it traces must still exist."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names():
    """The TRACED tuple of bench/tracing.py, read from its source without importing it."""
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED")


def test_every_traced_name_is_a_rootpoly_callable():
    names = traced_names()
    assert len(names) > 10
    missing = []
    for qualified in names:
        module, func = qualified.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(f"rootpoly.{module}"), func, None)):
            missing.append(qualified)
    assert missing == []
