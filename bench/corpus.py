"""Seeded input corpora for the three benchmark workloads.

Everything here is built from a ``random.Random(seed)`` and plain integer
arithmetic, without calling rootpoly, so the program under test only ever
sees the edge-list files written by :func:`write_corpus`, and every known
answer comes from a construction that does not rely on the program.

Polytope vertices are the origin and ``e_u - e_v`` per edge ``(u, v)``.  A
linear functional ``c`` takes the value ``c_u - c_v`` on an edge point and 0
at the origin, so the set of points maximising ``c`` is a face; that is how
the positive queries are built.  The negative queries break the identity
``(e_a - e_b) + (e_b - e_c) = (e_a - e_c) + 0`` for a path ``a -> b -> c``
with shortcut ``a -> c``: a face holding the midpoint of two polytope points
holds both points, so no face can contain ``ab`` and ``bc`` without ``ac``
and the origin, nor the origin and ``ac`` without ``ab`` and ``bc``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

Edge = tuple[int, int]

# (n, m) of the random query graphs; K_120 is added as the last graph.  The
# sizes are fixed so that a seed changes the structure of the inputs but not
# their scale, which keeps the latency distribution comparable across seeds.
QUERY_GRAPH_SIZES = ((200, 1000), (250, 2000), (300, 3000), (350, 4500), (400, 6000))
QUERY_KN = 120
# A sweep pass is SWEEP_ROUNDS rounds of K_5, K_6 and one fresh random DAG
# per (n, m) below, each round a block of about four seconds: many distinct
# random graphs per run average out how their face counts vary, and repeating
# K_5 and K_6 spreads them over the run.  The random DAGs have at most 14
# edges: with 15 and 16, a 30-second run holds only three rounds, and the
# median and p95 latency rest on two or three graphs.
SWEEP_GRAPH_SIZES = ((7, 12), (7, 12), (7, 13), (7, 13), (8, 14))
SWEEP_KN = (5, 6)
SWEEP_ROUNDS = 7
# Graphs per vertex count in the cross-check corpus, and the edge cap of
# acceptance criterion 2.  Graphs with more than CROSSCHECK_SMALL edges make
# the "large" part of the corpus, which takes about half of the run.  The
# graphs are dealt into CROSSCHECK_BLOCKS blocks with the same mix of sizes.
CROSSCHECK_PER_N = 48
CROSSCHECK_SMALL = 8
CROSSCHECK_NS = (5, 6)
CROSSCHECK_MAX_EDGES = 10
CROSSCHECK_BLOCKS = 8


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple[Edge, ...]
    name: str

    def text(self) -> str:
        return format_edge_list(self.n, self.edges)


@dataclass(frozen=True)
class Query:
    """One ``check`` call with its known answer."""

    graph: int
    edges: tuple[Edge, ...]
    with_origin: bool
    is_face: bool
    kind: str


@dataclass(frozen=True)
class Op:
    """One CLI command: argv with ``{dir}`` placeholders, and what it expects.

    Throughput is measured per block of a pass (see ``run.block_rate``).
    """

    argv: tuple[str, ...]
    part: str
    graph: int
    query: int | None = None
    block: int = 0


@dataclass(frozen=True)
class Corpus:
    workload: str
    graphs: tuple[Graph, ...]
    queries: tuple[Query, ...]
    ops: tuple[Op, ...]

    def files(self) -> dict[str, str]:
        """File name -> content, in a fixed order."""
        out = {f"g{i}.txt": g.text() for i, g in enumerate(self.graphs)}
        for i, q in enumerate(self.queries):
            out[f"h{i}.txt"] = format_edge_list(self.graphs[q.graph].n, q.edges)
        return out


def format_edge_list(n: int, edges) -> str:
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)), f"K_{n}")


def random_dag_exact(rng: random.Random, n: int, m: int) -> tuple[Graph, list[int]]:
    """A DAG with exactly m edges drawn uniformly from the pairs of a random order.

    Returns the graph and its topological order.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = sorted(rng.sample(range(len(pairs)), m))
    edges = tuple((order[pairs[k][0]], order[pairs[k][1]]) for k in chosen)
    return Graph(n, edges, f"dag n={n} m={m}"), order


def edge_count_quantiles(n: int, max_edges: int, count: int) -> list[int]:
    """Edge counts at the quantiles (k + 1/2) / count of the criterion-2 distribution.

    A fair coin per vertex pair, redrawn until at most max_edges edges, gives
    m edges with probability proportional to C(pairs, m) for m <= max_edges;
    given m, the graph is a uniform m-subset of the pairs of a random order,
    which is what :func:`random_dag_exact` draws.  Taking one graph per
    quantile keeps the mix of sizes the same for every seed.
    """
    weights = [comb(n * (n - 1) // 2, m) for m in range(max_edges + 1)]
    total = sum(weights)
    out = []
    for k in range(count):
        acc = 0
        for m, w in enumerate(weights):
            acc += w
            if 2 * count * acc >= (2 * k + 1) * total:
                out.append(m)
                break
    return out


# --- query constructions -------------------------------------------------------


def maximisers(g: Graph, c: dict[int, int]) -> tuple[tuple[Edge, ...], bool]:
    """The edges maximising c_u - c_v over the polytope's vertices, and whether the origin does."""
    best = max(max(c[u] - c[v] for u, v in g.edges), 0)
    return tuple(e for e in g.edges if c[e[0]] - c[e[1]] == best), best == 0


def interval_functional(order: list[int], blocks: int) -> dict[int, int]:
    """Constant on each of `blocks` equal intervals of the order and increasing along it.

    Every edge runs forward in the order, so c_u - c_v <= 0 with equality
    inside a block: the maximum is 0 and its face holds the origin.
    """
    n = len(order)
    return {v: pos * blocks // n for pos, v in enumerate(order)}


def random_functional(rng: random.Random, g: Graph, top: int) -> dict[int, int]:
    """Integer values in [0, top], redrawn until some edge beats the origin."""
    while True:
        c = {v: rng.randint(0, top) for v in range(1, g.n + 1)}
        if any(c[u] > c[v] for u, v in g.edges):
            return c


def shortcut_triple(rng: random.Random, g: Graph, keep) -> tuple[Edge, Edge, Edge]:
    """Edges (ab, bc, ac) of a random path a -> b -> c with shortcut a -> c and keep(a, b, c)."""
    succ: dict[int, set[int]] = {}
    pred: dict[int, set[int]] = {}
    for u, v in g.edges:
        succ.setdefault(u, set()).add(v)
        pred.setdefault(v, set()).add(u)
    shortcuts = list(g.edges)
    rng.shuffle(shortcuts)
    for a, c in shortcuts:
        middle = [b for b in sorted(succ.get(a, set()) & pred.get(c, set())) if keep(a, b, c)]
        if middle:
            b = rng.choice(middle)
            return (a, b), (b, c), (a, c)
    raise ValueError(f"{g.name} has no suitable path with a shortcut")


def _ordered(g: Graph, edges: set[Edge]) -> tuple[Edge, ...]:
    return tuple(e for e in g.edges if e in edges)


def graph_queries(rng: random.Random, gi: int, g: Graph, order: list[int]) -> list[Query]:
    """Four faces and four non-faces of g, half of each with the origin.

    The non-faces are built so that the program finds each kind of witness:
    a loop and a directed cycle of the contraction, a path conflict, and an
    inadmissible cycle (a negative loop, on which Bellman-Ford runs every round).
    """
    out = []
    tilde = []
    for blocks in (3, 12):
        c = interval_functional(order, blocks)
        h, origin = maximisers(g, c)
        if not origin:
            raise AssertionError("interval functional lost the origin")
        tilde.append((h, c))
        out.append(Query(gi, h, True, True, f"face {blocks} blocks"))
    q = []
    for top in (1, 3):
        h, origin = maximisers(g, random_functional(rng, g, top))
        if origin:
            raise AssertionError("random functional kept the origin")
        q.append(h)
        out.append(Query(gi, h, False, True, f"face c in [0,{top}]"))

    base = set(tilde[0][0])
    ab, bc, ac = shortcut_triple(rng, g, lambda a, b, c: True)
    out.append(Query(gi, _ordered(g, (base | {ab, bc}) - {ac}), True, False, "loop"))
    # Every edge inside a component of a tilde face is in the face.  Cutting
    # a and c loose and joining them by ac alone keeps that true (G has no
    # other edge between a and c), so the contraction has no loop, and
    # a -> b -> c closes a cycle through the component {a, c}.
    base = set(tilde[1][0])
    ab, bc, ac = shortcut_triple(rng, g, lambda a, b, c: True)
    out.append(Query(gi, _ordered(g, {e for e in base if not set(ac) & set(e)} | {ac}), True, False, "cycle"))
    base = set(q[0])
    ab, bc, ac = shortcut_triple(rng, g, lambda a, b, c: True)
    out.append(Query(gi, _ordered(g, base | {ab, bc, ac}), False, False, "path-conflict"))
    base = set(q[1])
    touched = {v for e in base for v in e}
    ab, bc, ac = shortcut_triple(rng, g, lambda a, b, c: not touched & {a, b, c})
    out.append(Query(gi, _ordered(g, (base | {ab, bc}) - {ac}), False, False, "inadmissible-cycle"))
    return out


# --- corpora -----------------------------------------------------------------------


def query_corpus(seed: int) -> Corpus:
    rng = random.Random(seed)
    graphs: list[Graph] = []
    queries: list[Query] = []
    for n, m in QUERY_GRAPH_SIZES:
        g, order = random_dag_exact(rng, n, m)
        queries += graph_queries(rng, len(graphs), g, order)
        graphs.append(g)
    kn = complete_graph(QUERY_KN)
    queries += graph_queries(rng, len(graphs), kn, list(range(1, QUERY_KN + 1)))
    graphs.append(kn)
    # Interleave so that consecutive calls cycle through the graphs: any
    # stretch of the loop then holds every size and every kind of query.
    per_graph = len(queries) // len(graphs)
    order = [g * per_graph + k for k in range(per_graph) for g in range(len(graphs))]
    ops = []
    for qi in order:
        q = queries[qi]
        flag = "--with-origin" if q.with_origin else "--without-origin"
        part = "yes" if q.is_face else "no"
        ops.append(Op(("check", f"{{dir}}/g{q.graph}.txt", f"{{dir}}/h{qi}.txt", flag, "--json"), part, q.graph, qi))
    return Corpus("query", tuple(graphs), tuple(queries), tuple(ops))


def sweep_corpus(seed: int) -> Corpus:
    rng = random.Random(seed)
    graphs = [complete_graph(n) for n in SWEEP_KN]
    ops = []
    for r in range(SWEEP_ROUNDS):
        ops += [Op(("enumerate", f"{{dir}}/g{i}.txt", "--json", "--jobs", "1"), "kn", i, block=r)
                for i in range(len(SWEEP_KN))]
        for n, m in SWEEP_GRAPH_SIZES:
            ops.append(Op(("enumerate", f"{{dir}}/g{len(graphs)}.txt", "--json", "--jobs", "1"), "dag", len(graphs),
                          block=r))
            graphs.append(random_dag_exact(rng, n, m)[0])
    return Corpus("sweep", tuple(graphs), (), tuple(ops))


def crosscheck_corpus(seed: int) -> Corpus:
    rng = random.Random(seed)
    blocks: list[list[Graph]] = [[] for _ in range(CROSSCHECK_BLOCKS)]
    for n in CROSSCHECK_NS:
        for k, m in enumerate(edge_count_quantiles(n, CROSSCHECK_MAX_EDGES, CROSSCHECK_PER_N)):
            # Deal the sorted edge counts back and forth, so no block gets
            # the largest graph of every stride.
            stride, b = divmod(k, CROSSCHECK_BLOCKS)
            blocks[b if stride % 2 == 0 else CROSSCHECK_BLOCKS - 1 - b].append(random_dag_exact(rng, n, m)[0])
    graphs: list[Graph] = []
    ops = []
    for b, block in enumerate(blocks):
        rng.shuffle(block)  # mixed order, so that each size and each part is spread over the block
        for g in block:
            part = "small" if len(g.edges) <= CROSSCHECK_SMALL else "large"
            ops.append(Op(("verify", f"{{dir}}/g{len(graphs)}.txt", "--json", "--jobs", "1"), part, len(graphs), block=b))
            graphs.append(g)
    return Corpus("crosscheck", tuple(graphs), (), tuple(ops))


CORPORA = {"query": query_corpus, "sweep": sweep_corpus, "crosscheck": crosscheck_corpus}


def write_corpus(corpus: Corpus, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in corpus.files().items():
        (directory / name).write_text(text, encoding="ascii")
