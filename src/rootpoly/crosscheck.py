"""Cross-verification of the combinatorial face criteria against the hull oracle.

For a given ambient graph, every spanning subgraph is tested twice (with and
without the origin) through both routes; a disagreement records the whole
graph, the subgraph and the origin flag, not minimised.  Positive decisions
also have their certificates verified.  Ambient graphs come from the caller,
from all labeled DAGs on n vertices, or from a seeded random generator.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from multiprocessing import Pool

from .certificates import certify, verify_certificate
from .faces import build_hcomp
from .graphs import Digraph, DirectedCycleError, Edge, Subgraph
from .hull import FaceLattice, descriptor_indices, enumerate_faces_bruteforce


@dataclass(frozen=True)
class Disagreement:
    n: int
    graph_edges: tuple[Edge, ...]
    subgraph_edges: tuple[Edge, ...]
    contains_origin: bool
    combinatorial: bool
    bruteforce: bool


@dataclass
class CheckReport:
    graphs: int = 0
    checks: int = 0
    certificates: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)
    certificate_failures: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.certificate_failures

    def merge(self, other: "CheckReport") -> None:
        self.graphs += other.graphs
        self.checks += other.checks
        self.certificates += other.certificates
        self.disagreements.extend(other.disagreements)
        self.certificate_failures.extend(other.certificate_failures)


def check_graph(g: Digraph, lattice: FaceLattice | None = None) -> CheckReport:
    """Exhaustively compare both face predicates with the hull oracle on one graph."""
    if lattice is None:
        lattice = enumerate_faces_bruteforce(g)
    report = CheckReport(graphs=1)
    m = len(g.edges)
    for mask in range(1 << m):
        h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
        hc = build_hcomp(g, h)
        free = descriptor_indices(h, False)
        for contains_origin in (True, False):
            expected = (free | {0} if contains_origin else free) in lattice.faces
            got = hc.is_tilde_face() if contains_origin else hc.is_q_face()
            report.checks += 1
            if got != expected:
                report.disagreements.append(
                    Disagreement(g.n, g.edges, h.edges, contains_origin, got, expected)
                )
                continue
            if got:
                cert = certify(hc, contains_origin)
                report.certificates += 1
                if not verify_certificate(g, h, cert, contains_origin):
                    report.certificate_failures.append(
                        Disagreement(g.n, g.edges, h.edges, contains_origin, got, expected)
                    )
    return report


def check_graphs(graphs: list[Digraph], jobs: int = 1) -> CheckReport:
    """Run check_graph over many ambient graphs, optionally on a worker pool of at most one process per CPU."""
    total = CheckReport()
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs <= 1 or len(graphs) < 2:
        for g in graphs:
            total.merge(check_graph(g))
    else:
        chunk = max(1, len(graphs) // (jobs * 8))
        with Pool(jobs) as pool:
            for rep in pool.imap(check_graph, graphs, chunksize=chunk):
                total.merge(rep)
    return total


def all_dags(n: int) -> list[Digraph]:
    """Every labeled DAG on n vertices (1, 3, 25, 543, ... for n = 1, 2, 3, 4)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    out = []
    for mask in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
        try:
            out.append(Digraph(n, edges))
        except DirectedCycleError:
            continue
    return out


# random_dag refuses an edge cap that fewer than one draw in 2**CAP_ODDS_BITS meets.
CAP_ODDS_BITS = 16


class UnreachableCapError(ValueError):
    """An edge cap that random draws would almost never meet."""


def random_dag(rng: random.Random, n: int, max_edges: int | None = None) -> Digraph:
    """A random labeled DAG: random topological order, then a fair coin per pair.

    When an edge cap is given, draws are rejected until they fit.  The edge
    count is Binomial(n(n-1)/2, 1/2), and a cap it meets with probability
    below 2**-CAP_ODDS_BITS is refused at once, by an exact test on its bit length;
    a cap of at least (pairs - 1) / 2, met by half the draws, needs no test.
    """
    pairs = n * (n - 1) // 2
    if max_edges is not None and 2 * max_edges < pairs - 1:
        total, term = 0, 1
        for k in range(max_edges + 1):  # term = C(pairs, k)
            total += term
            term = term * (pairs - k) // (k + 1)
        if (total << CAP_ODDS_BITS).bit_length() <= pairs:
            raise UnreachableCapError(
                f"edge cap {max_edges} is met by fewer than 1 in 2^{CAP_ODDS_BITS} random DAGs on {n} vertices"
            )
    while True:
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    edges.append((order[i], order[j]))
        if max_edges is None or len(edges) <= max_edges:
            return Digraph(n, tuple(edges))


def random_dags(seed: int, n: int, count: int, max_edges: int | None = None) -> list[Digraph]:
    rng = random.Random(seed)
    return [random_dag(rng, n, max_edges) for _ in range(count)]
