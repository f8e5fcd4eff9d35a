"""Directed acyclic graphs on vertices 1..n, spanning subgraphs, and the edge-list file format.

All types are immutable after construction and safe to share across workers.
Edge identity is positional: a subgraph is a subset of the parent's edge
indices, which keeps certificates and JSON output stable.  A Digraph's
validation indexes its edges once, for every later reader of the list.
The edge-list reader turns canonical text (one space between the numbers,
one newline after each row, every number written as ``str()`` writes it)
into edges through a lookup table and finds a subgraph file's edges in that
index; any other text goes through the one loop that raises.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Invalid graph input."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class VertexRangeError(GraphError):
    pass


class DirectedCycleError(GraphError):
    pass


class EdgeNotInParentError(GraphError):
    pass


class NotAlternatingError(GraphError):
    pass


class OverlappingPartsError(GraphError):
    pass


Edge = tuple[int, int]

MAX_VERTICES = 100_000  # the most vertices an edge-list header may declare


def _clip(value: object, quote: bool = False) -> str:
    """str(value) as an error message shows it, repr-quoted with quote: cut past 40 characters, with its length."""
    try:
        text = str(value)
    except ValueError:  # an int, or a tuple holding one, past the interpreter's digit limit for str()
        return f"an integer of {value.bit_length():,} bits" if isinstance(value, int) else "a value too long to print"
    shown = text if len(text) <= 40 else text[:40] + "..."
    shown = repr(shown) if quote else shown
    return shown if len(text) <= 40 else f"{shown} ({len(text):,} characters)"


def sink_first_labels(k: int, arcs: Iterable[Edge]) -> list[int]:
    """Kahn's algorithm from the sinks up on vertices 0..k-1, smallest ready vertex first.

    Vertices get labels 1, 2, ... in the order they are removed, so the
    label drops along every arc.  A vertex on a directed cycle, or with a
    path into one, is never removed and keeps label 0.
    """
    outdeg = [0] * k
    sources_of: list[list[int]] = [[] for _ in range(k)]
    for u, v in arcs:
        outdeg[u] += 1
        sources_of[v].append(u)
    ready = [v for v in range(k) if outdeg[v] == 0]
    label = [0] * k
    assigned = 0
    while ready:
        v = heapq.heappop(ready)
        assigned += 1
        label[v] = assigned
        for u in sources_of[v]:
            outdeg[u] -= 1
            if outdeg[u] == 0:
                heapq.heappush(ready, u)
    return label


def strong_components(k: int, arcs: Iterable[Edge]) -> tuple[list[int], int]:
    """Tarjan's strongly connected components of vertices 0..k-1, without recursion.

    Returns (component id of each vertex, number of components).
    """
    succ: list[list[int]] = [[] for _ in range(k)]
    for u, v in arcs:
        succ[u].append(v)
    index = [-1] * k
    low = [0] * k
    comp = [-1] * k  # -1 while a visited vertex is still on the stack
    stack: list[int] = []
    count = visited = 0
    for root in range(k):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, rest = work[-1]
            for x in rest:
                if index[x] < 0:
                    index[x] = low[x] = visited
                    visited += 1
                    stack.append(x)
                    work.append((x, iter(succ[x])))
                    break
                if comp[x] < 0 and index[x] < low[v]:
                    low[v] = index[x]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    x = -1
                    while x != v:
                        x = stack.pop()
                        comp[x] = count
                    count += 1
    return comp, count


@dataclass(frozen=True)
class Digraph:
    """A loop-free directed acyclic graph with vertex set {1, ..., n} and an ordered edge list.

    Any acyclic labeling is accepted; edges need not be oriented from a
    smaller to a larger vertex.  The first fault in edge order raises;
    that same pass builds ``edge_index`` and the 0-based ``arcs``.
    """

    n: int
    edges: tuple[Edge, ...]
    edge_index: dict[Edge, int] = field(init=False, repr=False, compare=False)
    arcs: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise VertexRangeError(f"vertex count must be positive, got {_clip(self.n)}")
        edge_index: dict[Edge, int] = {}
        for i, (u, v) in enumerate(self.edges):
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise VertexRangeError(f"edge ({_clip(u)}, {_clip(v)}) leaves the vertex range 1..{self.n}")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {u}")
            if edge_index.setdefault((u, v), i) != i:
                raise DuplicateEdgeError(f"duplicate edge ({u}, {v})")
        arcs = tuple((u - 1, v - 1) for u, v in self.edges)
        left = sink_first_labels(self.n, arcs).count(0)
        if left:
            raise DirectedCycleError(f"edge list contains a directed cycle among {left} vertices")
        object.__setattr__(self, "edge_index", edge_index)
        object.__setattr__(self, "arcs", arcs)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def subgraph(self, edges: Iterable[Edge]) -> "Subgraph":
        """Subgraph from explicit edges, each of which must exist in this graph."""
        mask = set()
        for e in edges:
            e = (int(e[0]), int(e[1]))
            idx = self.edge_index.get(e)
            if idx is None:
                raise EdgeNotInParentError(f"edge ({_clip(e[0])}, {_clip(e[1])}) is not an edge of the parent graph")
            if idx in mask:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            mask.add(idx)
        return Subgraph(self, frozenset(mask))

    def full_subgraph(self) -> "Subgraph":
        return Subgraph(self, frozenset(range(len(self.edges))))

    def empty_subgraph(self) -> "Subgraph":
        return Subgraph(self, frozenset())


def validate(n: int, edge_list: Iterable[Sequence[int]]) -> Digraph:
    """Validate raw input and return a Digraph, converting n and each endpoint with int().

    Raises SelfLoopError, DuplicateEdgeError, VertexRangeError or
    DirectedCycleError on bad input.
    """
    return Digraph(int(n), tuple((int(u), int(v)) for u, v in edge_list))


@dataclass(frozen=True)
class Subgraph:
    """A spanning subgraph of a parent Digraph, encoded as a set of parent edge indices.

    The vertex set is always the parent's full vertex set.
    """

    parent: Digraph
    mask: frozenset[int]

    def __post_init__(self) -> None:
        m = len(self.parent.edges)
        for i in self.mask:
            if not (0 <= i < m):
                raise EdgeNotInParentError(f"edge index {i} out of range for parent with {m} edges")

    @property
    def n(self) -> int:
        return self.parent.n

    @cached_property
    def indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.mask))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self.parent.edges[i] for i in self.indices)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    def is_full(self) -> bool:
        return len(self.mask) == len(self.parent.edges)


GraphLike = Digraph | Subgraph


@dataclass(frozen=True)
class ComponentStructure:
    """Connected components of an underlying undirected graph, with its path labelling.

    Component ids are 0..count-1, ordered by smallest member vertex.  The
    search that finds them labels each vertex too, stepping +1 along every
    edge and -1 against it, with the minimum of each component shifted to
    0.  ``conflict`` is the first edge that reaches an already labelled
    vertex with a different label, as (vertex, existing, implied, edge);
    the labels mean nothing when there is one.
    """

    component_of: tuple[int, ...]
    count: int
    labels: tuple[int, ...] = field(compare=False)
    conflict: tuple[int, int, int, Edge] | None = field(compare=False)

    def component(self, v: int) -> int:
        return self.component_of[v - 1]

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in range(self.count)]
        for v, c in enumerate(self.component_of, start=1):
            groups[c].append(v)
        return tuple(tuple(g) for g in groups)


def undirected_components(g: GraphLike) -> ComponentStructure:
    """Components and path labelling of the underlying undirected graph, in one breadth-first search.

    Isolated vertices are singletons.
    """
    n = g.n
    adj: list[list[tuple[int, int, Edge]]] = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        adj[u].append((v, 1, (u, v)))
        adj[v].append((u, -1, (u, v)))
    comp = [-1] * (n + 1)
    label = [0] * (n + 1)
    conflict = None
    count = 0
    for s in range(1, n + 1):
        if comp[s] >= 0:
            continue
        comp[s] = count
        queue = [s]
        for v in queue:  # the list grows as it is read: first in, first out
            for x, step, edge in adj[v]:
                implied = label[v] + step
                if comp[x] < 0:
                    comp[x] = count
                    label[x] = implied
                    queue.append(x)
                elif conflict is None and label[x] != implied:
                    conflict = (x, label[x], implied, edge)
        base = min(label[v] for v in queue)
        if base:
            for v in queue:
                label[v] -= base
        count += 1
    return ComponentStructure(tuple(comp[1:]), count, tuple(label[1:]), conflict)


def is_alternating(g: GraphLike) -> bool:
    """True iff no vertex is both the sink of one edge and the source of another."""
    has_in = [False] * (g.n + 1)
    has_out = [False] * (g.n + 1)
    for u, v in g.edges:
        has_out[u] = True
        has_in[v] = True
    return not any(has_in[v] and has_out[v] for v in range(1, g.n + 1))


def bipartition(g: GraphLike) -> tuple[frozenset[int], frozenset[int]]:
    """Split the vertices of an alternating graph into all-source and all-sink parts.

    Every edge runs from L to R.  Isolated vertices are assigned to L, a
    convention the characterizations never depend on.
    """
    if not is_alternating(g):
        raise NotAlternatingError("graph is not alternating")
    has_in = [False] * (g.n + 1)
    for _, v in g.edges:
        has_in[v] = True
    left = frozenset(v for v in range(1, g.n + 1) if not has_in[v])
    right = frozenset(v for v in range(1, g.n + 1) if has_in[v])
    return left, right


def is_transitively_closed(g: GraphLike) -> bool:
    """True iff (i,j) and (j,k) being edges forces (i,k) to be an edge."""
    edge_set = g.edge_set
    out_of: dict[int, list[int]] = {}
    for u, v in g.edges:
        out_of.setdefault(u, []).append(v)
    for i, j in g.edges:
        for k in out_of.get(j, ()):
            if (i, k) not in edge_set:
                return False
    return True


@lru_cache(maxsize=1)
def complete_graph(n: int) -> Digraph:
    """K_n: every edge (i, j) with i < j, in lexicographic order; the last one built is kept."""
    return Digraph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)))


def induced(g: Digraph, vertices: Iterable[int]) -> Subgraph:
    """Subgraph on the parent's edges with both endpoints inside the given set."""
    s = set(vertices)
    return Subgraph(g, frozenset(i for i, (u, v) in enumerate(g.edges) if u in s and v in s))


def alternating_induced(g: Digraph, left: Iterable[int], right: Iterable[int]) -> Subgraph:
    """Subgraph G_{L,R}: the parent's edges with source in L and target in R."""
    ls, rs = set(left), set(right)
    if ls & rs:
        raise OverlappingPartsError(f"parts overlap in {sorted(ls & rs)}")
    return Subgraph(g, frozenset(i for i, (u, v) in enumerate(g.edges) if u in ls and v in rs))


# --- edge-list file format -------------------------------------------------
#
# First line "n m", then m lines "u v" (1-indexed).  Subgraph files use the
# same format and may only list edges of the parent.


def format_edge_list(g: GraphLike) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# Rows of two ASCII decimals one space apart, each ended by "\n" except perhaps the last.
_CANONICAL = re.compile(r"(?:[0-9]+ [0-9]+\n)*[0-9]+ [0-9]+\n?")


def _parse_canonical(text: str) -> tuple[int, tuple[Edge, ...]] | None:
    """What _parse_lines returns for canonical text, or None for any other text.

    Canonical: the rows match ``_CANONICAL``, exactly m edge rows follow the
    header, n is at most MAX_VERTICES, and every endpoint is written
    ``str(v)`` for some 1 <= v <= min(n, 2m).  On such text ``int()`` would
    give the same numbers, so the table lookup changes nothing but the cost.
    """
    if not _CANONICAL.fullmatch(text):
        return None
    tokens = text.split()
    m = len(tokens) // 2 - 1
    # The length test keeps int() below its digit limit.
    if tokens[1] != str(m) or len(tokens[0]) > len(str(MAX_VERTICES)) or (n := int(tokens[0])) > MAX_VERTICES:
        return None
    table = {str(v): v for v in range(1, min(n, 2 * m) + 1)}
    ends = map(table.__getitem__, tokens[2:])
    try:
        return n, tuple(zip(ends, ends))
    except KeyError:  # 0, a leading zero or a vertex above min(n, 2m)
        return None


def _parse_lines(text: str) -> tuple[int, tuple[Edge, ...]]:
    parsed = _parse_canonical(text)
    if parsed is not None:
        return parsed
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise GraphError("empty edge-list input")
    header = rows[0]
    if len(header) != 2:
        raise GraphError(f"expected header 'n m', got {_clip(' '.join(header), quote=True)}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"bad header {_clip(' '.join(header), quote=True)}") from exc
    if n > MAX_VERTICES:
        raise GraphError(f"header declares {_clip(n)} vertices, above the limit of {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise GraphError(f"header declares {_clip(m)} edges but {len(rows) - 1} follow")
    edges = []
    for row in rows[1:]:
        if len(row) != 2:
            raise GraphError(f"bad edge line {_clip(' '.join(row), quote=True)}")
        try:
            edges.append((int(row[0]), int(row[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {_clip(' '.join(row), quote=True)}") from exc
    return n, tuple(edges)


def parse_digraph(text: str) -> Digraph:
    return Digraph(*_parse_lines(text))


def parse_subgraph(text: str, parent: Digraph) -> Subgraph:
    n, edges = _parse_lines(text)
    if n != parent.n:
        raise GraphError(f"subgraph has {_clip(n)} vertices but the parent has {parent.n}")
    mask = frozenset(map(parent.edge_index.get, edges))
    if None in mask or len(mask) != len(edges):
        return parent.subgraph(edges)  # raises at the first missing or repeated edge
    return Subgraph(parent, mask)


def _read_ascii(path) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise GraphError(f"{path}: byte {exc.start} is not ASCII") from exc


def load_digraph(path) -> Digraph:
    return parse_digraph(_read_ascii(path))


def load_subgraph(path, parent: Digraph) -> Subgraph:
    return parse_subgraph(_read_ascii(path), parent)
