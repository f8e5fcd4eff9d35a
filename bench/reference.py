"""Correctness references for the benchmark's CLI outputs.

Each check takes what one CLI command printed and returned, and lists what
is wrong with it (an empty list means correct).  None of them trusts the
program's own verdict or its own certificate verifier:

* ``check``: the answer must equal the answer known from the corpus
  construction, and a printed certificate must pass :func:`certificate_errors`,
  an exact test written from the definition of a supporting hyperplane.
* ``enumerate``: the listing must be well formed, and a seeded sample of the
  listed faces and of the unlisted (subgraph, origin) pairs is decided again
  by the brute-force hull oracle, with dimensions from :func:`affine_rank`.
* ``verify``: the run must report 0 disagreements over 2^(m+1) checks.
"""

from __future__ import annotations

import importlib
import json
import random
from fractions import Fraction
from math import lcm

from corpus import Corpus, Graph, Op, Query

# Listed faces and unlisted pairs re-decided by the hull oracle per enumerate call.
SWEEP_SAMPLE = 4


def certificate_errors(g: Graph, h_edges, with_origin: bool, cert: dict) -> list[str]:
    """Exact test that c.p >= c0 on every polytope vertex p, with equality exactly on the face.

    The vertices are the origin and e_u - e_v per edge (u, v); the face is
    the edge points of H, plus the origin when asked with the origin.
    """
    try:
        c = [Fraction(x) for x in cert["c"]]
        c0 = Fraction(cert["c0"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    if len(c) != g.n:
        return [f"certificate has {len(c)} coefficients for {g.n} vertices"]
    scale = lcm(c0.denominator, *(x.denominator for x in c))
    ci = [int(x * scale) for x in c]
    c0i = int(c0 * scale)
    errors = []
    if 0 < c0i or (0 == c0i) != with_origin:
        errors.append(f"origin: c.0 = 0 against c0 = {c0}, face {'holds' if with_origin else 'lacks'} it")
    inside = set(h_edges)
    for u, v in g.edges:
        value = ci[u - 1] - ci[v - 1]
        if value < c0i or (value == c0i) != ((u, v) in inside):
            errors.append(f"edge ({u}, {v}): c.p = {Fraction(value, scale)} against c0 = {c0}")
            break
    return errors


def check_errors(corpus: Corpus, op: Op, code: int, out: str) -> list[str]:
    q: Query = corpus.queries[op.query]
    try:
        doc = json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    errors = []
    if code != (0 if q.is_face else 1):
        errors.append(f"exit code {code} for a known {'face' if q.is_face else 'non-face'}")
    expected_kind = "face-with-origin" if q.with_origin else "face-without-origin"
    if doc.get("query") != expected_kind:
        errors.append(f"query {doc.get('query')!r}, expected {expected_kind!r}")
    if doc.get("face") is not q.is_face:
        errors.append(f"verdict {doc.get('face')!r}, known answer {q.is_face} ({q.kind})")
    elif q.is_face:
        errors += certificate_errors(corpus.graphs[q.graph], q.edges, q.with_origin, doc.get("certificate", {}))
    elif not isinstance(doc.get("diagnostic"), dict):
        errors.append("non-face without a diagnostic")
    elif doc["diagnostic"].get("kind") != q.kind:
        errors.append(f"diagnostic {doc['diagnostic'].get('kind')!r}, the query was built to meet {q.kind!r}")
    return errors


def affine_rank(points) -> int:
    """Dimension of the affine hull of integer points, by exact elimination."""
    base = points[0]
    rows = [[Fraction(x - y) for x, y in zip(p, base)] for p in points[1:]]
    rank = 0
    for col in range(len(base)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _points(g: Graph, indices) -> list[tuple[int, ...]]:
    pts = []
    for i in sorted(indices):
        p = [0] * g.n
        if i:
            u, v = g.edges[i - 1]
            p[u - 1], p[v - 1] = 1, -1
        pts.append(tuple(p))
    return pts


def enumerate_errors(corpus: Corpus, op: Op, code: int, out: str, rng: random.Random) -> tuple[list[str], int]:
    """Errors of one enumerate listing, and the number of faces it lists."""
    g = corpus.graphs[op.graph]
    try:
        doc = json.loads(out)
        listed = {}
        for face in doc["faces"]:
            key = (tuple(tuple(e) for e in face["edges"]), bool(face["origin"]))
            listed[key] = int(face["dim"])
        fvector = {int(d): c for d, c in doc["fvector"].items()}
    except (ValueError, KeyError, TypeError):
        return ["output is not a face listing"], 0
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if len(listed) != len(doc["faces"]):
        errors.append("a face is listed twice")
    index = {e: i for i, e in enumerate(g.edges)}
    full = (g.edges, True)
    counts: dict[int, int] = {}
    for (edges, origin), dim in listed.items():
        if any(e not in index for e in edges):
            return errors + [f"listed edges {edges} are not edges of the graph"], len(listed)
        if (edges, origin) != full:
            counts[dim] = counts.get(dim, 0) + 1
    if counts != fvector:
        errors.append(f"f-vector {fvector} does not count the listed faces {counts}")

    hull = importlib.import_module("rootpoly.hull")
    graphs = importlib.import_module("rootpoly.graphs")
    parent = graphs.Digraph(g.n, g.edges)
    m = len(g.edges)
    for key in rng.sample(sorted(listed), min(SWEEP_SAMPLE, len(listed))):
        edges, origin = key
        indices = {index[e] + 1 for e in edges} | ({0} if origin else set())
        if not hull.is_face_bruteforce(parent, indices):
            errors.append(f"listed {key} is not a face")
        elif listed[key] != affine_rank(_points(g, indices)):
            errors.append(f"listed {key} has dimension {listed[key]}, not {affine_rank(_points(g, indices))}")
    unlisted = 0
    while unlisted < SWEEP_SAMPLE and len(listed) < 2 ** (m + 1) - 1:
        mask, origin = rng.getrandbits(m), bool(rng.getrandbits(1))
        edges = tuple(e for i, e in enumerate(g.edges) if mask >> i & 1)
        if (edges, origin) in listed or (not edges and not origin):
            continue  # listed, or the empty face, which the listing leaves out
        unlisted += 1
        indices = {i + 1 for i in range(m) if mask >> i & 1} | ({0} if origin else set())
        if hull.is_face_bruteforce(parent, indices):
            errors.append(f"unlisted {(edges, origin)} is a face")
    return errors, len(listed)


def verify_errors(corpus: Corpus, op: Op, code: int, out: str) -> tuple[list[str], int]:
    """Errors of one cross-check report, and the number of checks it made."""
    g = corpus.graphs[op.graph]
    try:
        doc = json.loads(out)
        checks = int(doc["checks"])
    except (ValueError, KeyError, TypeError):
        return ["output is not a cross-check report"], 0
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    if doc.get("graphs") != 1:
        errors.append(f"{doc.get('graphs')} graphs checked, expected 1")
    expected = 2 ** (len(g.edges) + 1)
    if checks != expected:
        errors.append(f"{checks} checks, expected 2^(m+1) = {expected}")
    if doc.get("disagreements") != []:
        errors.append(f"disagreements: {doc.get('disagreements')}")
    return errors, checks
