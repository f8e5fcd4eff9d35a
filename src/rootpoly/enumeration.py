"""Face enumeration and closed-form generators for special graph classes.

General graphs are enumerated by running the combinatorial oracle over all
spanning subgraphs, one analysis (``faces.build_hcomp``) per subgraph, with
both face dimensions read from its component count.  Complete graphs,
connected alternating graphs and transitively closed graphs additionally
have direct generators (interval decompositions, independent-set splits,
and vertex bipartitions) that are cross-checked against the oracle in the
test suite; ``kn_face_counts`` is the one f-vector formula for K_n, behind
``fvector(mode="formula")`` and the ``kn --fvector`` command.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .faces import FaceDescriptor, build_hcomp, is_alternating
from .graphs import (
    Digraph,
    NotAlternatingError,
    Subgraph,
    alternating_induced,
    complete_graph,
    induced,
    is_transitively_closed,
    undirected_components,
)
from .hull import TooLargeError


class NotConnectedError(ValueError):
    pass


class NotTransitivelyClosedError(ValueError):
    pass


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension, with flags recording which trivial faces are included."""

    counts: tuple[tuple[int, int], ...]
    includes_empty: bool
    includes_improper: bool

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @classmethod
    def from_dict(cls, counts: dict[int, int], includes_empty: bool, includes_improper: bool) -> "FVector":
        return cls(tuple(sorted(counts.items())), includes_empty, includes_improper)


@dataclass(frozen=True)
class EnumeratedFace:
    descriptor: FaceDescriptor
    dim: int


def _faces_in_mask_range(args: tuple) -> list[EnumeratedFace]:
    """Faces among the subgraphs whose masks lie in [start, stop), read off one analysis each.

    With r undirected components of H, the origin-containing face has
    dimension n - r.  The origin-free one has dimension n - r - 1 for every
    path-consistent H: H's weights w satisfy w.(e_u - e_v) = -1 on each of
    its points, a hyperplane missing the origin, and the points span the
    (n - r)-dimensional space of the edge vectors of H.
    """
    g, start, stop, include_empty, include_improper = args
    m = len(g.edges)
    out: list[EnumeratedFace] = []
    for mask in range(start, stop):
        h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
        hc = build_hcomp(g, h)
        dim = g.n - hc.vertex_count
        if hc.is_tilde_face():
            if include_improper or not h.is_full():
                out.append(EnumeratedFace(FaceDescriptor(h, True), dim))
        if (h.mask or include_empty) and hc.is_q_face():
            out.append(EnumeratedFace(FaceDescriptor(h, False), dim - 1))
    return out


def enumerate_faces(
    g: Digraph,
    max_edges: int = 20,
    include_empty: bool = False,
    include_improper: bool = True,
    jobs: int = 1,
) -> list[EnumeratedFace]:
    """All faces of the polytope of G, one descriptor each, sorted canonically.

    Loops over every spanning subgraph, so the edge count is capped.  The
    mask range splits across a worker pool of at most one process per CPU
    when jobs > 1; the canonical final sort makes the result independent of
    the split.
    """
    m = len(g.edges)
    if m > max_edges:
        raise TooLargeError(f"{m} edges exceeds the enumeration cap of {max_edges}")
    total = 1 << m
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or total < 1024:
        out = _faces_in_mask_range((g, 0, total, include_empty, include_improper))
    else:
        from multiprocessing import Pool

        step = (total + 4 * jobs - 1) // (4 * jobs)
        chunks = [
            (g, lo, min(lo + step, total), include_empty, include_improper)
            for lo in range(0, total, step)
        ]
        out = []
        with Pool(jobs) as pool:
            for part in pool.imap_unordered(_faces_in_mask_range, chunks):
                out.extend(part)
    out.sort(key=lambda f: (f.dim, f.descriptor.contains_origin, f.descriptor.subgraph.indices))
    return out


# --- complete graphs -----------------------------------------------------------


def kn_tilde_faces(n: int) -> list[Subgraph]:
    """Origin-containing faces of the polytope of K_n: one subgraph per composition of [n].

    Each face is a disjoint union of complete graphs on consecutive
    intervals; there are 2^(n-1) of them.
    """
    kn = complete_graph(n)
    out = []
    for cuts in range(1 << (n - 1)):
        blocks = []
        start = 1
        for pos in range(1, n):
            if cuts >> (pos - 1) & 1:
                blocks.append(range(start, pos + 1))
                start = pos + 1
        blocks.append(range(start, n + 1))
        mask = set()
        for block in blocks:
            for i in block:
                for j in block:
                    if i < j:
                        mask.add(kn.edge_index[(i, j)])
        out.append(Subgraph(kn, frozenset(mask)))
    return out


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
    """The face subgraph of K_n generated by a datum: edges from L_i to R_i within each block."""
    kn = complete_graph(n)
    edges = []
    for left, right in datum.blocks:
        for a in left:
            for b in right:
                if a < b:
                    edges.append((a, b))
    return kn.subgraph(edges)


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


def _check_connected_alternating(g: Digraph) -> None:
    if not is_alternating(g):
        raise NotAlternatingError("graph is not alternating")
    if undirected_components(g).count != 1:
        raise NotConnectedError("underlying undirected graph is not connected")


def _neighbors(g: Digraph, vertices: set[int]) -> set[int]:
    out = set()
    for u, v in g.edges:
        if v in vertices:
            out.add(u)
        if u in vertices:
            out.add(v)
    return out


def facets_alternating(g: Digraph) -> list[Subgraph]:
    """Facets containing the origin, for connected alternating G.

    Every facet splits the vertices as A + N(A) against the rest for some
    independent set A, with the facet the union of the two induced
    subgraphs.  Sink subsets alone are not enough: a facet may leave a
    single source vertex isolated, and only an independent set containing
    sources reaches it (the square graph already shows this).  Candidates
    are kept when the underlying graph has exactly two components and the
    face criterion holds; distinct A can generate the same facet, so
    results are deduplicated.
    """
    _check_connected_alternating(g)
    seen: set[frozenset[int]] = set()
    out: list[Subgraph] = []
    for pick in range(1 << g.n):
        a = {v for v in range(1, g.n + 1) if pick >> (v - 1) & 1}
        nbrs = _neighbors(g, a)
        if a & nbrs:
            continue
        core = a | nbrs
        rest = set(range(1, g.n + 1)) - core
        mask = induced(g, core).mask | induced(g, rest).mask
        if mask in seen:
            continue
        seen.add(mask)
        hc = build_hcomp(g, Subgraph(g, mask))
        if hc.vertex_count == 2 and hc.is_tilde_face():
            out.append(hc.h)
    out.sort(key=lambda h: h.indices)
    return out


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
    facets = facets_alternating(g)
    seen: set[frozenset[int]] = set()
    out: list[Subgraph] = []
    for chosen in combinations(facets, d):
        mask = frozenset.intersection(*(h.mask for h in chosen))
        if mask in seen:
            continue
        seen.add(mask)
        h = Subgraph(g, mask)
        if undirected_components(h).count == d + 1:
            out.append(h)
    out.sort(key=lambda h: h.indices)
    return out


# --- transitively closed graphs ---------------------------------------------------


def facets_transitively_closed(g: Digraph) -> list[Subgraph]:
    """Facets avoiding the origin, for connected transitively closed G.

    One candidate per vertex bipartition L | R of [n], keeping the
    alternating-induced subgraphs whose underlying graph is connected.
    """
    if not is_transitively_closed(g):
        raise NotTransitivelyClosedError("graph is not transitively closed")
    if undirected_components(g).count != 1:
        raise NotConnectedError("underlying undirected graph is not connected")
    seen: set[frozenset[int]] = set()
    out: list[Subgraph] = []
    for pick in range(1 << g.n):
        left = {v for v in range(1, g.n + 1) if pick >> (v - 1) & 1}
        right = set(range(1, g.n + 1)) - left
        h = alternating_induced(g, left, right)
        if h.mask in seen:
            continue
        seen.add(h.mask)
        if undirected_components(h).count == 1:
            out.append(h)
    out.sort(key=lambda h: h.indices)
    return out


# --- f-vectors -----------------------------------------------------------------


def fvector(
    g: Digraph,
    mode: str = "oracle",
    include_empty: bool = False,
    include_improper: bool = False,
    max_edges: int = 20,
) -> FVector:
    """Face counts by dimension.

    Mode "oracle" enumerates subgraphs through the combinatorial criteria;
    mode "formula" uses the complete-graph generators and requires G to be
    a complete graph with the canonical edge order.
    """
    counts: dict[int, int] = {}
    if mode == "oracle":
        for face in enumerate_faces(g, max_edges=max_edges, include_empty=include_empty,
                                    include_improper=include_improper):
            counts[face.dim] = counts.get(face.dim, 0) + 1
    elif mode == "formula":
        n = g.n
        if g.edges != complete_graph(n).edges:
            raise ValueError("formula mode requires the complete graph with canonical edge order")
        counts = kn_face_counts(n, True) + kn_face_counts(n, False)
        if not include_improper:
            counts[n - 1] -= 1
            counts = +counts  # drops the dimension the improper face leaves empty
        if include_empty:
            counts[-1] += 1
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return FVector.from_dict(counts, include_empty, include_improper)
