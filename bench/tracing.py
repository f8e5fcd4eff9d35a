"""In-memory span tracing of rootpoly's public functions, from outside the package.

A :class:`Tracer` replaces each traced function at every module attribute of
the ``rootpoly`` package that binds it, so calls made inside the package go
through the wrapper too, and :meth:`Tracer.restore` puts every original back.
Spans are recorded only between :meth:`Tracer.begin_op` and
:meth:`Tracer.end_op`; the benchmark's own reference checks run outside
operations and leave no spans.

Each span is (name, start, end, parent span, operation id), kept in flat
arrays and written out by :meth:`Tracer.write`.  Calls and self time (span
minus the spans of its traced children) are summed as the spans close.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# The public functions whose spans make up the per-layer metrics.
TRACED = (
    "graphs.load_digraph",
    "graphs.load_subgraph",
    "graphs.undirected_components",
    "faces.build_hcomp",
    "faces.is_tilde_face",
    "faces.is_q_face",
    "faces.path_consistency",
    "faces.is_admissible",
    "faces.tilde_obstruction",
    "faces.q_obstruction",
    "faces.admissibility_obstruction",
    "faces.tilde_dimension",
    "certificates.tilde_certificate",
    "certificates.q_certificate",
    "certificates.solve_shift_vector",
    "certificates.verify_certificate",
    "linprog.simplex_maximize",
    "hull.enumerate_faces_bruteforce",
    "hull.affine_dimension",
    "enumeration.enumerate_faces",
    "crosscheck.check_graph",
    "cli.main",
)

SPAN_FIELDS = (("name", "B"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "rootpoly" or name.startswith("rootpoly.")]


class Tracer:
    def __init__(self) -> None:
        self.calls = [0] * len(TRACED)
        self.self_s = [0.0] * len(TRACED)
        self.spans = {field: array(code) for field, code in SPAN_FIELDS}
        self.root_s = 0.0
        self._stack: list[list] = []  # [span index, time in traced children]
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # --- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever the package binds it."""
        modules = _package_modules()
        for i, qualified in enumerate(TRACED):
            module_name, func_name = qualified.rsplit(".", 1)
            original = getattr(sys.modules[f"rootpoly.{module_name}"], func_name)
            wrapper = self._wrap(i, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrap(self, name_id: int, fn):
        clock = time.perf_counter
        spans = self.spans
        names, parents, ops, starts, ends = (spans[f] for f, _ in SPAN_FIELDS)
        stack = self._stack
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self._op)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                duration = end - start
                calls[name_id] += 1
                self_s[name_id] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.root_s += duration

        return traced

    # --- operations ------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def end_op(self) -> None:
        self._op = -1
        self._stack.clear()

    # --- results -----------------------------------------------------------------

    def count(self, name: str) -> int:
        return self.calls[TRACED.index(name)]

    def op_counts(self, name: str) -> Counter:
        """Spans of the named function per operation id."""
        name_id = TRACED.index(name)
        return Counter(op for n, op in zip(self.spans["name"], self.spans["op"]) if n == name_id)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for name, calls, self_s in zip(TRACED, self.calls, self.self_s):
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        return out

    def write(self, stem: Path) -> None:
        """Write the spans to ``stem.spans`` (one raw array per field) and an index to ``stem.json``."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            for field, _ in SPAN_FIELDS:
                self.spans[field].tofile(fh)
        index = {
            "names": list(TRACED),
            "count": len(self.spans["name"]),
            "fields": [[field, code, self.spans[field].itemsize] for field, code in SPAN_FIELDS],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
            "parent": "index of the enclosing span, -1 at the top of an operation",
        }
        stem.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n", encoding="ascii")
