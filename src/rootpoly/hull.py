"""Brute-force geometric ground truth for face questions.

Everything here works from the definition of a face, without the paper's
combinatorial theory, so the module is an independent oracle for
cross-checks at desk scale.  The vertices are one tuple of points,
``polytope_vertices(g)``: point 0 is the origin and point i + 1 edge i, as
``descriptor_indices`` numbers a face.  ``FaceLattice.f_vector`` counts the
empty and improper faces only with include_trivial, as the enumeration does.

The face lattice is every intersection of facets, found by linear algebra
alone.  A single vertex subset is decided by an exact rational linear
program, whose optimum gives a supporting hyperplane as a witness.  Ranks
and nullspaces come from fraction-free integer row reduction.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .graphs import Digraph, Subgraph, _clip
from .linprog import STOPPED, UNBOUNDED, simplex_maximize


class NotASubsetOfVerticesError(ValueError):
    pass


class EmptySetError(ValueError):
    pass


class TooLargeError(ValueError):
    pass


Point = tuple[int, ...]


def polytope_vertices(g: Digraph) -> tuple[Point, ...]:
    """The vertices of the polytope of G: point 0 is the origin, point i + 1 is e_u - e_v for edge i = (u, v)."""
    pts = [tuple([0] * g.n)]
    for u, v in g.edges:
        p = [0] * g.n
        p[u - 1] = 1
        p[v - 1] = -1
        pts.append(tuple(p))
    return tuple(pts)


def descriptor_indices(h: Subgraph, contains_origin: bool) -> frozenset[int]:
    """Indices into ``polytope_vertices`` of the face encoded by (H, origin flag)."""
    idx = {i + 1 for i in h.mask}
    if contains_origin:
        idx.add(0)
    return frozenset(idx)


# --- exact linear algebra helpers -------------------------------------------


def _row_reduce(vectors: Iterable[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Integer reduced row echelon form of the rows, by fraction-free elimination.

    Returns the pivot columns in increasing order and one row per pivot.
    Each row is primitive, zero before its pivot and zero in every other
    pivot column: the reduced row echelon form up to a scale per row.
    """
    pivots: list[int] = []
    rows: list[list[int]] = []
    for v in vectors:
        r = list(v)
        for p, row in zip(pivots, rows):
            f = r[p]
            if f:
                q = row[p]
                r = [q * x - f * y for x, y in zip(r, row)]
        col = next((j for j, x in enumerate(r) if x), -1)
        if col < 0:
            continue
        g = gcd(*r)
        r = [x // g for x in r]
        piv = r[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f:
                cleared = [piv * x - f * y for x, y in zip(row, r)]
                g = gcd(*cleared)
                rows[i] = [x // g for x in cleared]
        at = bisect(pivots, col)
        pivots.insert(at, col)
        rows.insert(at, r)
    return pivots, rows


def _rank(vectors: Sequence[Sequence[int]]) -> int:
    pivots, _ = _row_reduce(vectors)
    return len(pivots)


def _nullspace_basis(vectors: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Integer basis of {c : v.c = 0 for all v}, one vector per free coordinate.

    The vector of a free coordinate is zero at the other free coordinates,
    positive at its own and primitive, which fixes it uniquely.
    """
    pivots, rows = _row_reduce(vectors)
    pivot_set = set(pivots)
    basis: list[list[int]] = []
    for free in range(n):
        if free in pivot_set:
            continue
        hits = [(p, row[p], row[free]) for p, row in zip(pivots, rows) if row[free]]
        scale = lcm(*(q for _, q, _ in hits))
        vec = [0] * n
        vec[free] = scale
        for p, q, f in hits:
            vec[p] = -f * (scale // q)
        g = gcd(*vec)
        basis.append([x // g for x in vec])
    return basis


def affine_dimension(points: Iterable[Point]) -> int:
    """Rank over the rationals of the differences from a base point."""
    pts = list(points)
    if not pts:
        raise EmptySetError("affine dimension of the empty set")
    base = pts[0]
    diffs = [[x - y for x, y in zip(p, base)] for p in pts[1:]]
    return _rank(diffs)


# --- the supporting-hyperplane linear program --------------------------------


def _face_lp(points: tuple[Point, ...], included: frozenset[int], want_witness: bool):
    """Decide whether the vertex subset is a face: (False, None), or True and its witness or dimension.

    Maximises the separation margin delta subject to c.v = c.v0 on the
    subset, c.v >= c.v0 + delta off it, and -1 <= c_i <= 1; the subset is a
    face exactly when the optimum is positive.  A face comes with the
    witness (c, c0) when one is wanted, and otherwise with its dimension,
    n minus the size of the nullspace of the subset's differences.  The
    empty and the full vertex set are faces, always with a witness.

    The program is skipped when, for an excluded vertex v_j, v_j - v0 is
    orthogonal to every nullspace vector of the subset's differences.  Then
    v_j - v0 is in the span of those differences, so v_j lies in the
    subset's affine hull, and its row of the program reads delta <= 0: the
    optimum is 0 and the answer is "not a face", which is returned at once.
    """
    k = len(points)
    n = len(points[0])
    if not included:
        return True, (tuple(Fraction(0) for _ in range(n)), Fraction(-1))
    if len(included) == k:
        return True, (tuple(Fraction(0) for _ in range(n)), Fraction(0))

    inc = sorted(included)
    v0 = points[inc[0]]
    eq_rows = [[x - y for x, y in zip(points[i], v0)] for i in inc[1:]]
    basis = _nullspace_basis(eq_rows, n)
    d = len(basis)
    if d == 0:
        # Only c = 0 satisfies the equalities; no strict separation possible.
        return False, None

    # Reduced coordinates: c = sum_r y_r * basis[r], variables y = p - q >= 0
    # plus the margin delta; columns are (p_1..p_d, q_1..q_d, delta).
    lhs: list[list[int]] = []
    rhs: list[int] = []
    for j in range(k):
        if j in included:
            continue
        wv = [x - y for x, y in zip(points[j], v0)]
        a = [sum(map(mul, wv, b)) for b in basis]
        if not any(a):
            # v_j is in the affine hull of the subset.
            return False, None
        lhs.append([-x for x in a] + a + [1])
        rhs.append(0)
    for i in range(n):
        row = [b[i] for b in basis]
        if not any(row):
            continue
        lhs.append(row + [-x for x in row] + [0])
        rhs.append(1)
        lhs.append([-x for x in row] + row + [0])
        rhs.append(1)

    objective = [0] * (2 * d) + [1]
    stop = None if want_witness else 0
    res = simplex_maximize(objective, lhs, rhs, stop_above=stop)
    if res.status == UNBOUNDED:
        raise RuntimeError("separation program is unbounded; input points are inconsistent")
    is_face = res.status == STOPPED or res.value > 0
    if not is_face:
        return False, None
    if not want_witness:
        return True, n - d
    y = [res.x[r] - res.x[d + r] for r in range(d)]
    c = tuple(sum(Fraction(b[i]) * y[r] for r, b in enumerate(basis)) for i in range(n))
    c0 = sum(ci * x for ci, x in zip(c, v0))
    return True, (c, c0)


def _as_indices(points: tuple[Point, ...], subset: Iterable[Point | int]) -> frozenset[int]:
    out = set()
    index_of: dict[Point, int] = {}  # built at the first point, not for indices
    for item in subset:
        if isinstance(item, int):
            if not (0 <= item < len(points)):
                raise NotASubsetOfVerticesError(f"vertex index {_clip(item)} out of range")
            out.add(item)
        else:
            index_of = index_of or {p: i for i, p in enumerate(points)}
            idx = index_of.get(tuple(item))
            if idx is None:
                raise NotASubsetOfVerticesError(f"{_clip(item)} is not a vertex of the polytope")
            out.add(idx)
    return frozenset(out)


def is_face_bruteforce(g: Digraph, subset: Iterable[Point | int]) -> bool:
    """True iff the given vertices (points or indices) are exactly the vertex set of a face."""
    points = polytope_vertices(g)
    ok, _ = _face_lp(points, _as_indices(points, subset), want_witness=False)
    return ok


def supporting_hyperplane(
    g: Digraph, subset: Iterable[Point | int]
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """An exact (c, c0) touching the polytope precisely at the subset, or None."""
    points = polytope_vertices(g)
    ok, witness = _face_lp(points, _as_indices(points, subset), want_witness=True)
    return witness if ok else None


# --- exhaustive face lattice ---------------------------------------------------


@dataclass
class FaceLattice:
    """Every face of the polytope as a vertex-index set with its dimension.

    Includes the empty face (dimension -1) and the improper face (the whole
    polytope); the f-vector counts those two only with include_trivial.
    """

    points: tuple[Point, ...]
    faces: dict[frozenset[int], int]

    @property
    def dim(self) -> int:
        return self.faces[frozenset(range(len(self.points)))]

    def facets(self) -> list[frozenset[int]]:
        d = self.dim
        return sorted(
            (s for s, fd in self.faces.items() if fd == d - 1), key=sorted
        )

    def f_vector(self, include_trivial: bool = False) -> dict[int, int]:
        counts: dict[int, int] = {}
        for s, fd in self.faces.items():
            if include_trivial or 0 < len(s) < len(self.points):
                counts[fd] = counts.get(fd, 0) + 1
        return dict(sorted(counts.items()))


def _facets(rows: Sequence[Sequence[int]], first: int, found: set[int]) -> None:
    """Add to found, as bitmasks, the facets through the chosen points and len(rows) - 1 more from first on.

    A row is a linear functional by its values at the lifted points, and
    choosing a point eliminates it from every row, so the rows left vanish on
    the chosen points.  The last row is the hyperplane of d affinely
    independent points, a facet when its values take only one sign.
    """
    if len(rows) == 1:
        if min(rows[0]) >= 0 or max(rows[0]) <= 0:
            found.add(sum(1 << i for i, x in enumerate(rows[0]) if x == 0))
        return
    for p in range(first, len(rows[0]) - len(rows) + 2):
        pivot = next((r for r in rows if r[p]), None)
        if pivot is not None:  # else p is in the chosen points' affine hull
            rest = []
            for r in rows:
                if r is not pivot:
                    r = [pivot[p] * x - r[p] * y for x, y in zip(r, pivot)]
                    g = gcd(*r)
                    rest.append([x // g for x in r])
            _facets(rest, p + 1, found)


# The most polytope points (the origin and one per edge) the brute-force face lattice takes.
BRUTE_FORCE_CAP = 16


def enumerate_faces_bruteforce(g: Digraph, cap: int = BRUTE_FORCE_CAP) -> FaceLattice:
    """Every face as an intersection of facets, by linear algebra alone; desk scale only.

    Projected onto the pivot columns of their differences from point 0, a
    map injective on their affine hull, the points span R^d.  Lifted to
    (q, -1), each affinely independent d-subset fixes one hyperplane.  A
    vertex set is a face exactly when it is the intersection of the facets
    that contain it (Kaibel & Pfetsch 2002).  A face's dimension is the rank
    of its lifted points minus one.
    """
    points = polytope_vertices(g)
    k = len(points)
    if k > cap:
        raise TooLargeError(f"{k} vertices exceeds the cap of {cap}")
    pivots, _ = _row_reduce([x - y for x, y in zip(p, points[0])] for p in points[1:])
    lifted = [[p[c] for c in pivots] + [-1] for p in points]
    facets: set[int] = set()
    _facets(list(zip(*lifted)), 0, facets)
    closed = {(1 << k) - 1}
    for f in facets:
        closed |= {f & x for x in closed}
    faces = [frozenset(i for i in range(k) if mask >> i & 1) for mask in sorted(closed)]
    return FaceLattice(points, {face: _rank([lifted[i] for i in face]) - 1 for face in faces})
