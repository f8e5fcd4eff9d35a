"""Face enumeration and closed-form generators for special graph classes.

General graphs are enumerated by NextClosure over the points of the
polytope, each face listed once as ``EnumeratedFace(subgraph,
contains_origin, dim)``.  ``face_closure`` finds the smallest face holding
a point set by duality on difference constraints, one strong-component
pass (plus Bellman-Ford without the origin) over G's arcs, so the cost
grows with the number of faces, not with the 2^m spanning subgraphs; both
face dimensions come from its component count.  Complete, connected
alternating and transitively closed graphs also have direct generators
(compositions cut by the bits of their index and block data for K_n,
independent-set splits, vertex bipartitions), cross-checked against the
hull in the tests; a K_n listing builds K_n once.  Face counts are
``{dimension: count}`` dicts in increasing dimension;
``count_by_dimension`` counts the empty and improper faces only on
request.  ``fvector`` counts what ``enumerate_faces`` lists, and
``kn_face_counts``, the one f-vector formula for K_n, backs ``kn --fvector``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .faces import build_hcomp, is_alternating
from .graphs import (
    Digraph,
    NotAlternatingError,
    Subgraph,
    alternating_induced,
    complete_graph,
    induced,
    is_transitively_closed,
    strong_components,
    undirected_components,
)
from .hull import TooLargeError


class NotConnectedError(ValueError):
    pass


class NotTransitivelyClosedError(ValueError):
    pass


@dataclass(frozen=True)
class EnumeratedFace:
    """A face of the polytope of G: a spanning subgraph, an origin flag and the face's dimension.

    Every face has exactly one such encoding, with the subgraph spanned by
    the non-origin vertices present in the face.
    """

    subgraph: Subgraph
    contains_origin: bool
    dim: int


def face_closure(g: Digraph, points: int) -> tuple[int, int]:
    """The smallest face of the polytope of G holding the given points, and its strong component count.

    Points are bits: bit 0 is the origin, bit i + 1 the point of edge i.  A
    face holding the origin is {p : c.p = 0} for some c with c.p <= 0 on
    every point, that is c_u <= c_v on every edge (u, v) and c_u = c_v on
    the held ones.  Such a system forces c_u = c_v exactly on the edges
    inside a strongly connected component of G plus the reversed held
    edges.  A face avoiding the origin is {p : c.p = 1} with c.p <= 1 on
    every point; with d = -c that is d_v <= d_u + 1 on every edge and
    d_u <= d_v - 1 on the held ones.  When Bellman-Ford from a virtual
    source finds a negative cycle, no such face exists and the origin
    joins the points.  Otherwise the forced equalities are the arcs on a
    zero-weight cycle: the edges of reduced cost 0 whose endpoints share a
    strong component of the reduced-cost-0 arcs.

    Each component is connected by the face's own edges, and no edge of
    the face leaves one, so the count r returned is the number of
    undirected components of the face's subgraph.
    """
    n, arcs = g.n, g.arcs
    held = [(v, u) for i, (u, v) in enumerate(arcs) if points >> (i + 1) & 1]
    tight: Iterable[int] = range(len(arcs))
    if not points & 1:
        dist = [0] * n
        for _ in range(n):
            changed = False
            for u, v in arcs:
                if dist[u] + 1 < dist[v]:
                    dist[v] = dist[u] + 1
                    changed = True
            for v, u in held:
                if dist[v] - 1 < dist[u]:
                    dist[u] = dist[v] - 1
                    changed = True
            if not changed:
                break
        else:
            return face_closure(g, points | 1)
        tight = [i for i, (u, v) in enumerate(arcs) if dist[u] + 1 == dist[v]]
    comp, count = strong_components(n, [arcs[i] for i in tight] + held)
    closed = points & 1
    for i in tight:
        u, v = arcs[i]
        if comp[u] == comp[v]:
            closed |= 2 << i
    return closed, count


def enumerate_faces(g: Digraph, max_edges: int = 20, include_empty: bool = False) -> list[EnumeratedFace]:
    """All faces of the polytope of G, one record each, sorted canonically; the empty face only on request.

    Every face is the smallest face holding its own points, so NextClosure
    (Ganter 1984) over the m + 1 points, the origin first and then the
    edges in edge order, meets each face exactly once and computes at most
    m + 1 closures (``face_closure``) per face: the cost grows with the
    number of faces, not with 2^m.  With r strong components the face has
    dimension n - r with the origin.  Without it the face lies in the
    hyperplane c.p = 1, which misses the origin, so its dimension is one
    less, n - r - 1.  The closures run on G relabelled onto the k vertices
    that edges touch (k = 1 if none): each isolated vertex is one more
    component, so n - r = k - r'.  The edge count is still capped.
    """
    m = len(g.edges)
    if m > max_edges:
        raise TooLargeError(f"{m} edges exceeds the enumeration cap of {max_edges}")
    label = {v: i for i, v in enumerate(sorted({v for e in g.edges for v in e}), 1)}
    compact = Digraph(max(len(label), 1), tuple((label[u], label[v]) for u, v in g.edges))
    everything = (2 << m) - 1
    out: list[EnumeratedFace] = []
    points, count = face_closure(compact, 0)
    while True:
        h = Subgraph(g, frozenset(i for i in range(m) if points >> (i + 1) & 1))
        if points & 1:
            out.append(EnumeratedFace(h, True, compact.n - count))
        elif points or include_empty:
            out.append(EnumeratedFace(h, False, compact.n - count - 1))
        if points == everything:
            break
        # The next closed set in lectic order: add the last point i that is
        # missing, after dropping those past it, unless the closure then
        # gains a point before i.
        for i in range(m, -1, -1):
            bit = 1 << i
            if points & bit:
                points ^= bit
                continue
            closed, count = face_closure(compact, points | bit)
            if not (closed ^ points) & (bit - 1):
                points = closed
                break
    out.sort(key=lambda f: (f.dim, f.contains_origin, f.subgraph.indices))
    return out


def count_by_dimension(faces: list[EnumeratedFace], include_trivial: bool) -> dict[int, int]:
    """Counts of listed faces by dimension, in increasing dimension; the improper face only with include_trivial."""
    counts = Counter(f.dim for f in faces if include_trivial or not (f.contains_origin and f.subgraph.is_full()))
    return dict(sorted(counts.items()))


def fvector(g: Digraph, include_trivial: bool = False, max_edges: int = 20) -> dict[int, int]:
    """Face counts of the polytope of G by dimension; the empty and improper faces only with include_trivial."""
    return count_by_dimension(enumerate_faces(g, max_edges, include_trivial), include_trivial)


# --- complete graphs -----------------------------------------------------------


def kn_tilde_faces(n: int) -> list[Subgraph]:
    """Origin-containing faces of the polytope of K_n: face c is the composition of [n] cut where c has bits.

    Bit p - 1 of c cuts between p and p + 1, and edge (i, j) of K_n is kept
    exactly when no cut falls on i..j-1, so each face is a disjoint union of
    complete graphs on consecutive intervals; there are 2^(n-1) of them.
    """
    kn = complete_graph(n)
    return [
        Subgraph(kn, frozenset(k for k, (i, j) in enumerate(kn.edges) if not cuts >> (i - 1) & ((1 << (j - i)) - 1)))
        for cuts in range(1 << (n - 1))
    ]


@dataclass(frozen=True)
class KnFaceDatum:
    """Canonical data for an origin-free face of the polytope of K_n.

    Ordered blocks of disjoint source/sink sets (L_i, R_i) with the smallest
    used vertex of each block in L_i, the largest in R_i, and block spans
    strictly increasing.
    """

    blocks: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        prev_hi = 0
        for left, right in self.blocks:
            if not left or not right:
                raise ValueError("each block needs a nonempty source and sink set")
            if left & right:
                raise ValueError("source and sink sets must be disjoint")
            used = left | right
            if min(used) not in left or max(used) not in right:
                raise ValueError("block must start in the source set and end in the sink set")
            if min(used) <= prev_hi:
                raise ValueError("blocks must occupy increasing vertex ranges")
            prev_hi = max(used)


def datum_subgraph(datum: KnFaceDatum, n: int) -> Subgraph:
    """The face subgraph of K_n generated by a datum on vertices of [n]: edges from L_i to R_i within each block."""
    kn = complete_graph(n)
    index = kn.edge_index
    return Subgraph(kn, frozenset(index[a, b] for left, right in datum.blocks for a in left for b in right if a < b))


def subgraph_datum(h: Subgraph) -> KnFaceDatum:
    """Recover the canonical datum from a face subgraph (sources and sinks per edge component)."""
    comps = undirected_components(h)
    blocks = []
    for part in comps.members:
        sources = frozenset(u for u, _ in h.edges if u in part)
        sinks = frozenset(v for _, v in h.edges if v in part)
        if sources or sinks:
            blocks.append((sources, sinks))
    blocks.sort(key=lambda b: min(b[0]))
    return KnFaceDatum(tuple(blocks))


def kn_face_data(n: int) -> list[KnFaceDatum]:
    """All canonical data with at least one block, in lexicographic block order."""
    out: list[KnFaceDatum] = []

    def extend(start: int, acc: tuple) -> None:
        if acc:
            out.append(KnFaceDatum(acc))
        for lo in range(start, n):
            rest = list(range(lo + 1, n + 1))
            for size in range(1, len(rest) + 1):
                for chosen in combinations(rest, size):
                    block = (lo,) + chosen
                    hi = block[-1]
                    middle = block[1:-1]
                    for pick in range(1 << len(middle)):
                        left = {lo} | {middle[i] for i in range(len(middle)) if pick >> i & 1}
                        right = set(block) - left
                        extend(hi + 1, acc + ((frozenset(left), frozenset(right)),))

    extend(1, ())
    return out


def kn_face_counts(n: int, contains_origin: bool) -> Counter:
    """Face counts of the polytope of K_n by dimension, counted from the generators without listing them.

    With the origin the improper face is counted: a composition of [n] into
    n - d intervals gives a face of dimension d.  Without it the empty face
    is not: a datum using u vertices in b blocks gives one of dimension
    u - b - 1.  The sorted used vertices split into b runs of at least 2, each
    from L to R with free middle vertices: C(n, u) C(u-b-1, b-1) 2^(u-2b) data.
    """
    if contains_origin:
        return Counter({d: comb(n - 1, d) for d in range(n)})
    counts: Counter = Counter()
    for u in range(2, n + 1):
        for b in range(1, u // 2 + 1):
            counts[u - b - 1] += comb(n, u) * comb(u - b - 1, b - 1) << (u - 2 * b)
    return counts


def kn_q_faces(n: int) -> list[Subgraph]:
    """Origin-free faces of the polytope of K_n with at least one edge, each exactly once."""
    return [datum_subgraph(d, n) for d in kn_face_data(n)]


# --- alternating graphs ---------------------------------------------------------


def _check_connected(g: Digraph) -> None:
    if undirected_components(g).count != 1:
        raise NotConnectedError("underlying undirected graph is not connected")


def _check_connected_alternating(g: Digraph) -> None:
    if not is_alternating(g):
        raise NotAlternatingError("graph is not alternating")
    _check_connected(g)


def _vertex_subsets(n: int) -> Iterable[set[int]]:
    return ({v for v in range(1, n + 1) if pick >> (v - 1) & 1} for pick in range(1 << n))


def facets_alternating(g: Digraph) -> list[Subgraph]:
    """Facets containing the origin, for connected alternating G.

    A facet's two components split the vertices, and no edge runs from the
    second side into the first.  The second side is A + N(A) for the set A
    of its sources, and the first side is A + N(A) for the set A of its
    sinks, whenever the side has two or more vertices; only the one-edge
    graph splits into two single vertices, and A itself covers those.  So
    every independent set A splits off A + N(A) and A, and the candidates
    with exactly two components that meet the face criterion are kept.
    Sink subsets alone are not enough: a facet may leave a single source
    vertex isolated (the square graph already shows this).
    """
    _check_connected_alternating(g)
    vertices = set(range(1, g.n + 1))
    candidates = set()
    for a in _vertex_subsets(g.n):
        nbrs = {u for u, v in g.edges if v in a} | {v for u, v in g.edges if u in a}
        if a.isdisjoint(nbrs):
            candidates.update(induced(g, side).mask | induced(g, vertices - side).mask for side in (a, a | nbrs))
    splits = (build_hcomp(g, Subgraph(g, mask)) for mask in candidates)
    return sorted((hc.h for hc in splits if hc.vertex_count == 2 and hc.is_tilde_face()), key=lambda h: h.indices)


def faces_alternating_codim(g: Digraph, d: int) -> list[Subgraph]:
    """Codimension-d faces containing the origin, for connected alternating G.

    Intersections of d facets whose underlying graph has exactly d+1
    components; d = 0 yields the graph itself.
    """
    _check_connected_alternating(g)
    if not 0 <= d <= g.n - 1:
        raise ValueError(f"codimension must lie in 0..{g.n - 1}, got {d}")
    if d == 0:
        return [g.full_subgraph()]
    meets = {frozenset.intersection(*(h.mask for h in chosen)) for chosen in combinations(facets_alternating(g), d)}
    faces = (Subgraph(g, mask) for mask in meets)
    return sorted((h for h in faces if undirected_components(h).count == d + 1), key=lambda h: h.indices)


# --- transitively closed graphs ---------------------------------------------------


def facets_transitively_closed(g: Digraph) -> list[Subgraph]:
    """Facets avoiding the origin, for connected transitively closed G.

    One candidate G_{L,R} per vertex bipartition L | R of [n], kept when
    its underlying graph is connected.
    """
    if not is_transitively_closed(g):
        raise NotTransitivelyClosedError("graph is not transitively closed")
    _check_connected(g)
    vertices = set(range(1, g.n + 1))
    candidates = {alternating_induced(g, left, vertices - left).mask for left in _vertex_subsets(g.n)}
    faces = (Subgraph(g, mask) for mask in candidates)
    return sorted((h for h in faces if undirected_components(h).count == 1), key=lambda h: h.indices)
