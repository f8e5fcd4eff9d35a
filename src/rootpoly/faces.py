"""Combinatorial face criteria for root polytopes of a DAG.

Two questions are decided for a spanning subgraph H of G:

* does conv{0, e_i - e_j : (i,j) in H} cut out a face of the polytope of G
  (the "origin" question) -- answered by looplessness and acyclicity of the
  contracted multigraph; and
* does conv{e_i - e_j : (i,j) in H} cut out a face (the "no origin"
  question) -- answered by path consistency plus an integer cycle condition
  on the contracted multigraph ("admissibility").

Both questions, their witnesses and the certificates read one analysis of
the pair, ``build_hcomp(g, h)``: a single breadth-first search of H, then
the contraction (three parallel lists of ints), its sink-first order and
Bellman-Ford, each at most once and only when asked for.  Negative answers
come with small checkable witnesses: lists of G-edge indices read off the
contraction, turned into edges only when an obstruction is built.  Each
cycle is found by one walk, ``_walk_to_cycle``: a directed cycle is read
off the Kahn pass, and a negative (inadmissible) one off the predecessor
graph after the first Bellman-Ford round that has one, usually long before
round k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count
from operator import eq

from .graphs import (
    ComponentStructure,
    Digraph,
    Edge,
    GraphLike,
    NotAlternatingError,
    Subgraph,
    is_alternating,
    sink_first_labels,
    undirected_components,
)


@dataclass(frozen=True)
class HComp:
    """The analysis of a pair (G, H), which every face predicate, obstruction and certificate reads.

    Building it runs one breadth-first search of H, which gives H's
    undirected components together with its weight function or its first
    path conflict.  Each later stage is computed at most once, on first
    use: the contraction of the components, loops and parallel edges kept,
    as int lists with one entry per edge of E(G)\\E(H); its sink-first
    order; and Bellman-Ford over H's own weights.
    """

    g: Digraph
    h: Subgraph
    components: ComponentStructure

    @property
    def vertex_count(self) -> int:
        return self.components.count

    @cached_property
    def contraction(self) -> tuple[list[int], list[int], list[int]]:
        """Parallel lists over E(G)\\E(H) in edge order: source component, target component, index in E(G)."""
        comp = self.components.component_of
        mask = self.h.mask
        labels = [i for i in range(len(self.g.arcs)) if i not in mask]
        arcs = [self.g.arcs[i] for i in labels]
        return [comp[u] for u, _ in arcs], [comp[v] for _, v in arcs], labels

    @cached_property
    def loop(self) -> int | None:
        """Index in E(G) of the first contracted edge that joins a component to itself, or None."""
        sources, targets, labels = self.contraction
        j = next(compress(count(), map(eq, sources, targets)), None)
        return None if j is None else labels[j]

    @cached_property
    def removal_order(self) -> list[int]:
        """Kahn's sink-first labels of the components, 0 on every one on a directed cycle or upstream of one."""
        return sink_first_labels(self.vertex_count, zip(*self.contraction[:2]))

    @cached_property
    def order(self) -> list[int] | None:
        """Component labels 1..k dropping along every contracted edge, or None on a directed cycle."""
        return None if 0 in self.removal_order else self.removal_order

    @cached_property
    def weights(self) -> WeightFunction | None:
        """H's weight function, or None when H is not path consistent."""
        return _weight_function(self.components)

    @cached_property
    def potentials(self) -> tuple[list[int], list[int] | None]:
        """Bellman-Ford over H's own weights, as (potentials, negative cycle); H must be path consistent."""
        return _bellman_ford(self, self.weights)

    def is_tilde_face(self) -> bool:
        return self.loop is None and self.order is not None

    def tilde_obstruction(self) -> TildeObstruction | None:
        if self.loop is not None:
            return LoopObstruction(self.g.edges[self.loop])
        if self.order is None:
            return CycleObstruction(tuple(self.g.edges[i] for i in _directed_cycle(self)))
        return None

    def is_q_face(self) -> bool:
        return self.weights is not None and self.potentials[1] is None

    def q_obstruction(self) -> QObstruction | None:
        conflict = self.components.conflict
        if conflict is not None:
            return ConflictObstruction(*conflict)
        return _inadmissible_cycle(self.g, self.weights, self.potentials[1])


@dataclass(frozen=True)
class WeightFunction:
    """Integer vertex weights of a path-consistent graph, indexed by vertex.

    Along every subgraph edge (i,j) the weight steps up by one, and on each
    undirected component the minimum is 0, attained exactly at the weight
    sources.
    """

    values: tuple[int, ...]

    def __getitem__(self, v: int) -> int:
        return self.values[v - 1]


@dataclass(frozen=True)
class FaceDescriptor:
    """A face of the polytope of G: a subgraph plus an origin flag.

    Every face has exactly one such encoding, with the subgraph spanned by
    the non-origin vertices present in the face.
    """

    subgraph: Subgraph
    contains_origin: bool


# --- obstruction witnesses ---------------------------------------------------


@dataclass(frozen=True)
class LoopObstruction:
    """A G-edge joining two vertices of the same component of H: a loop in the contraction."""

    edge: Edge


@dataclass(frozen=True)
class CycleObstruction:
    """G-edges labelling a directed cycle of the contracted multigraph."""

    edges: tuple[Edge, ...]


@dataclass(frozen=True)
class ConflictObstruction:
    """A vertex receiving two different weight labels, so H is not path consistent."""

    vertex: int
    existing: int
    implied: int
    edge: Edge


@dataclass(frozen=True)
class InadmissibleCycleObstruction:
    """A directed cycle of the contraction whose total weight decrease is <= -length."""

    edges: tuple[Edge, ...]
    total: int

    @property
    def length(self) -> int:
        return len(self.edges)


TildeObstruction = LoopObstruction | CycleObstruction
QObstruction = ConflictObstruction | InadmissibleCycleObstruction


# --- contraction -------------------------------------------------------------


def build_hcomp(g: Digraph, h: Subgraph) -> HComp:
    """The analysis of (G, H): the breadth-first search now, every later stage on first use."""
    return HComp(g, h, undirected_components(h))


def _walk_to_cycle(start: int, step: dict[int, tuple[int, int]], seen: set[int]) -> list[int] | None:
    """Follow ``step[v] = (edge index, next vertex)`` from start until a vertex repeats.

    Returns the indices of the edges on the closing cycle, in walk order
    from the repeated vertex.  A walk that reaches a vertex without a step
    or one in ``seen`` returns None and adds its own vertices to ``seen``.
    """
    position: dict[int, int] = {}
    walk: list[int] = []
    v = start
    while v not in position:
        if v in seen or v not in step:
            seen.update(position)
            return None
        position[v] = len(walk)
        idx, v = step[v]
        walk.append(idx)
    return walk[position[v]:]


def _directed_cycle(hc: HComp) -> list[int]:
    """A directed cycle of a loopless contraction that Kahn's pass could not order.

    The components Kahn leaves at 0 lie on a cycle or upstream of one, so
    each has an edge into another.  From the smallest of them, leave every
    component by its first such edge until one repeats: the cycle a
    depth-first search from the first component would close.  Returns the
    G-edge indices of the cycle, in walk order.
    """
    left = hc.removal_order
    sources, targets, labels = hc.contraction
    step: dict[int, tuple[int, int]] = {}
    for j, (s, t) in enumerate(zip(sources, targets)):
        if left[s] == 0 == left[t] and s not in step:
            step[s] = (j, t)
    return [labels[j] for j in _walk_to_cycle(left.index(0), step, set())]


# --- the origin question -----------------------------------------------------


def is_tilde_face(g: Digraph, h: Subgraph) -> bool:
    """True iff the origin-containing subpolytope of H is a face: contraction loopless and acyclic."""
    return build_hcomp(g, h).is_tilde_face()


def tilde_obstruction(g: Digraph, h: Subgraph) -> TildeObstruction | None:
    """A loop or directed cycle of the contraction, or None when H passes."""
    return build_hcomp(g, h).tilde_obstruction()


def loopless_partition(g: Digraph, h: Subgraph) -> tuple[frozenset[int], ...] | None:
    """The vertex partition realising H as a disjoint union of induced subgraphs, if any.

    Present exactly when the contraction is loopless; the parts are the
    undirected components of H.
    """
    hc = build_hcomp(g, h)
    if hc.loop is not None:
        return None
    return tuple(frozenset(part) for part in hc.components.members)


# --- path consistency and weights ---------------------------------------------


def _weight_function(comps: ComponentStructure) -> WeightFunction | None:
    return WeightFunction(comps.labels) if comps.conflict is None else None


def path_consistency(h: GraphLike) -> WeightFunction | None:
    """The weight function of H, normalised to 0 at weight sources, or None.

    H is path consistent exactly when the breadth-first labelling that steps
    +1 along each edge and -1 against it never revisits a vertex with a
    different value.
    """
    return _weight_function(undirected_components(h))


# --- admissibility -----------------------------------------------------------
#
# Admissibility asks every directed cycle C of the contraction to satisfy
# sum of weight decreases > -|C|, i.e. the weighting wd(e) + 1 has no cycle
# of total <= 0.  Cycle totals are integers, so after scaling by (m + 1) and
# subtracting 1 per edge the bad cycles are exactly the negative ones, which
# Bellman-Ford finds with integer arithmetic.


def _bellman_ford(hc: HComp, w: WeightFunction) -> tuple[list[int], list[int] | None]:
    """Shortest-walk potentials from a virtual zero-weight source to every vertex.

    Returns (potentials, negative_cycle) for the scaled weights of w; the
    potentials are in units of 1/(m+1) and only meaningful when no negative
    cycle exists.  The cycle, as G-edge indices, is read off the predecessor
    graph after the first round that leaves one there; every such cycle is
    negative (Tarjan 1981).  A vertex whose potential drops in round r has a
    predecessor chain of r edges or one that reaches a cycle, so round k
    leaves one.
    """
    k = hc.vertex_count
    sources, targets, labels = hc.contraction
    m1 = len(labels) + 1
    arcs = hc.g.arcs
    weights = [(w.values[arcs[i][0]] - w.values[arcs[i][1]] + 1) * m1 - 1 for i in labels]
    dist = [0] * k
    pred: list[int | None] = [None] * k
    for _ in range(k):
        changed = False
        for j, (s, t, weight) in enumerate(zip(sources, targets, weights)):
            nd = dist[s] + weight
            if nd < dist[t]:
                dist[t] = nd
                pred[t] = j
                changed = True
        if not changed:
            return dist, None
        if (cycle := _predecessor_cycle(hc, pred)) is not None:
            return dist, cycle
    raise AssertionError("round k changed a potential but left no predecessor cycle")


def _predecessor_cycle(hc: HComp, pred: list[int | None]) -> list[int] | None:
    """G-edge indices of a cycle of the predecessor graph, in the contraction's direction, or None; O(k) per call."""
    sources, _, labels = hc.contraction
    step = {v: (j, sources[j]) for v, j in enumerate(pred) if j is not None}
    seen: set[int] = set()
    for v in step:
        if (cycle := _walk_to_cycle(v, step, seen)) is not None:
            return [labels[j] for j in reversed(cycle)]
    return None


def _inadmissible_cycle(g: Digraph, w: WeightFunction, bad: list[int] | None) -> InadmissibleCycleObstruction | None:
    if bad is None:
        return None
    edges = tuple(g.edges[i] for i in bad)
    total = sum(w[u] - w[v] for u, v in edges)
    if total > -len(edges):
        raise AssertionError("extracted cycle does not violate admissibility")
    return InadmissibleCycleObstruction(edges, total)


def is_admissible(g: Digraph, h: Subgraph, w: WeightFunction) -> bool:
    """True iff every directed cycle of the contraction has weight-decrease total > -length."""
    return _bellman_ford(build_hcomp(g, h), w)[1] is None


def admissibility_obstruction(g: Digraph, h: Subgraph, w: WeightFunction) -> InadmissibleCycleObstruction | None:
    """A violating directed cycle with its weight-decrease total, or None."""
    return _inadmissible_cycle(g, w, _bellman_ford(build_hcomp(g, h), w)[1])


# --- the no-origin question ----------------------------------------------------


def is_q_face(g: Digraph, h: Subgraph) -> bool:
    """True iff the origin-free subpolytope of H is a face: H path consistent and admissible.

    The empty subgraph encodes the empty face and answers True.
    """
    return build_hcomp(g, h).is_q_face()


def q_obstruction(g: Digraph, h: Subgraph) -> QObstruction | None:
    """A path-consistency conflict or an inadmissible cycle, or None when H passes."""
    return build_hcomp(g, h).q_obstruction()


# --- dimensions ----------------------------------------------------------------


def tilde_dimension(h: GraphLike) -> int:
    """Dimension n - r of the origin-containing polytope, r = undirected components."""
    return h.n - undirected_components(h).count


def q_dimension_alternating(h: GraphLike) -> int:
    """Dimension n - r - 1 of the origin-free polytope of an alternating graph."""
    if not is_alternating(h):
        raise NotAlternatingError("dimension formula requires an alternating graph")
    return h.n - undirected_components(h).count - 1
