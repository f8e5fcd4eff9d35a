"""The runtime stays on the standard library, and lazy stages have one mechanism, ``graphs.lazy``."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootpoly"


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_no_cached_property():
    # functools.cached_property takes a lock at each first read on Python 3.11;
    # every lazy stage goes through the lock-free ``graphs.lazy`` instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            found += [f"{path.name}:{node.lineno}" for name in names if name == "cached_property"]
    assert found == []
