"""Acceptance suite.

Each test implements one acceptance criterion exactly, with zero numeric
tolerance (all arithmetic is exact), and prints a single pass line on
success; a failure shows up as a normal pytest failure.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.  The two
oracle-equivalence sweeps are the slow part (minutes).
"""

import random
from itertools import combinations
from math import comb

import pytest

from rootpoly import crosscheck as cc
from rootpoly.enumeration import (
    faces_alternating_codim,
    facets_alternating,
    facets_transitively_closed,
    kn_q_faces,
    kn_tilde_faces,
)
from rootpoly.faces import (
    InadmissibleCycleObstruction,
    is_q_face,
    is_tilde_face,
    path_consistency,
    q_obstruction,
    tilde_dimension,
)
from rootpoly.graphs import (
    Subgraph,
    complete_graph,
    is_alternating,
    is_transitively_closed,
    undirected_components,
    validate,
)
from rootpoly.hull import (
    affine_dimension,
    descriptor_indices,
    enumerate_faces_bruteforce,
    polytope_vertices,
)

SAMPLE_SEED_N5 = 20260501
SAMPLE_SEED_N6 = 20260502
SAMPLE_SEED_SPECIAL = 20260503


def edge_points(g, h):
    pts = polytope_vertices(g)
    return [pts[i + 1] for i in sorted(h.mask)]


def subgraphs(g):
    m = len(g.edges)
    for mask in range(1 << m):
        yield Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))


@pytest.fixture(scope="session")
def small_universe():
    return [g for n in range(1, 5) for g in cc.all_dags(n)]


@pytest.fixture(scope="session")
def exhaustive_report(small_universe):
    return cc.check_graphs(small_universe, jobs=2)


@pytest.fixture(scope="session")
def sampled_report():
    graphs = cc.random_dags(SAMPLE_SEED_N5, 5, 250, max_edges=10)
    graphs += cc.random_dags(SAMPLE_SEED_N6, 6, 250, max_edges=10)
    assert len(graphs) == 500
    return cc.check_graphs(graphs, jobs=2)


def test_criterion_1_oracle_equivalence_exhaustive(small_universe, exhaustive_report):
    rep = exhaustive_report
    assert len(small_universe) == 1 + 3 + 25 + 543
    assert rep.graphs == len(small_universe)
    assert rep.disagreements == []
    print(
        f"criterion 1: PASS (all {rep.graphs} labeled DAGs with n <= 4, "
        f"{rep.checks} oracle-vs-hull checks, 0 disagreements)"
    )


def test_criterion_2_oracle_equivalence_sampled(sampled_report):
    rep = sampled_report
    assert rep.graphs == 500
    assert rep.disagreements == []
    print(
        f"criterion 2: PASS (500 seeded random DAGs with n in {{5,6}}, |E| <= 10, "
        f"{rep.checks} checks, 0 disagreements)"
    )


# Not acceptance criteria: criteria 1, 2 and 9 read the facet lattice, so
# it must equal the per-subset LP lattice, dimensions included.
def test_facet_lattice_matches_the_lp_reference_exhaustive(small_universe, lp_reference):
    for g in small_universe:
        assert enumerate_faces_bruteforce(g).faces == lp_reference(g).faces, g


def test_facet_lattice_matches_the_lp_reference_sampled(lp_reference):
    graphs = cc.random_dags(SAMPLE_SEED_N5, 5, 30, max_edges=10)
    graphs += cc.random_dags(SAMPLE_SEED_N6, 6, 30, max_edges=10)
    for g in graphs:
        assert enumerate_faces_bruteforce(g).faces == lp_reference(g).faces, g


def test_criterion_3_triangle_instance():
    k3 = complete_graph(3)
    assert not is_q_face(k3, k3.full_subgraph())
    fv = enumerate_faces_bruteforce(k3).f_vector()
    assert fv == {0: 4, 1: 4}
    print("criterion 3: PASS (K_3 hull is not a face of its own polytope; f-vector (4, 4))")


def test_criterion_4_square_pyramid_instance():
    g = validate(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    fv = enumerate_faces_bruteforce(g).f_vector()
    assert fv == {0: 5, 1: 8, 2: 5}
    h = g.subgraph([(1, 3), (2, 4)])
    assert not is_q_face(g, h)
    obs = q_obstruction(g, h)
    assert isinstance(obs, InadmissibleCycleObstruction)
    assert obs.total == -2 and obs.length == 2
    assert set(obs.edges) == {(1, 4), (2, 3)}
    print("criterion 4: PASS (square pyramid f-vector (5, 8, 5); diagonal rejected with cycle total -2)")


def test_criterion_5_distinct_faces_in_k4():
    k4 = complete_graph(4)
    h1 = k4.subgraph([(1, 2), (3, 4)])
    h2 = k4.subgraph([(1, 2), (1, 4), (3, 4)])
    assert is_q_face(k4, h1) and is_q_face(k4, h2)
    assert affine_dimension(edge_points(k4, h1)) == 1
    assert affine_dimension(edge_points(k4, h2)) == 2
    print("criterion 5: PASS (both K_4 subgraphs are faces, of dimensions 1 and 2)")


def test_criterion_6_certificate_soundness(exhaustive_report, sampled_report):
    total = exhaustive_report.certificates + sampled_report.certificates
    failures = exhaustive_report.certificate_failures + sampled_report.certificate_failures
    assert total > 0
    assert failures == []
    print(f"criterion 6: PASS ({total} certificates emitted for positive decisions, all verified exactly)")


def test_criterion_7_complete_graph_generators():
    total_checked = 0
    for n in range(1, 7):
        kn = complete_graph(n)
        tilde_oracle, q_oracle = set(), set()
        for h in subgraphs(kn):
            if is_tilde_face(kn, h):
                tilde_oracle.add(h.mask)
            if h.mask and is_q_face(kn, h):
                q_oracle.add(h.mask)
        tilde_gen = [h.mask for h in kn_tilde_faces(n)]
        q_gen = [h.mask for h in kn_q_faces(n)]
        assert len(set(tilde_gen)) == len(tilde_gen) and set(tilde_gen) == tilde_oracle
        assert len(set(q_gen)) == len(q_gen) and set(q_gen) == q_oracle
        by_dim = {}
        for h in kn_tilde_faces(n):
            by_dim[tilde_dimension(h)] = by_dim.get(tilde_dimension(h), 0) + 1
        for d in range(n):
            assert by_dim.get(d, 0) == comb(n - 1, n - d - 1)
        total_checked += 2 ** len(kn.edges)
    print(
        f"criterion 7: PASS (generators equal oracle-filtered sets for n <= 6 "
        f"over {total_checked} subgraphs; interval counts binomial)"
    )


def connected(g):
    return undirected_components(g).count == 1


def random_alternating(rng, n):
    """A connected alternating DAG on n vertices: a fair coin makes each vertex a source, another adds each edge."""
    while True:
        sources = [v for v in range(1, n + 1) if rng.random() < 0.5]
        sinks = [v for v in range(1, n + 1) if v not in sources]
        g = validate(n, [(u, v) for u in sources for v in sinks if rng.random() < 0.5])
        if connected(g):
            return g


def transitive_closure(g):
    edges = set(g.edges)
    for k in range(1, g.n + 1):  # Warshall: paths through 1..k are closed
        edges |= {(i, j) for i, a in edges if a == k for b, j in edges if b == k}
    return validate(g.n, sorted(edges))


@pytest.fixture(scope="module")
def special_classes(small_universe):
    """Connected alternating and transitively closed DAGs: every one with 2 <= n <= 4, and seeded ones beyond."""
    universe = [g for g in small_universe if g.n >= 2 and connected(g)]
    rng = random.Random(SAMPLE_SEED_SPECIAL)
    alternating = [g for g in universe if is_alternating(g)] + [random_alternating(rng, 5) for _ in range(30)]
    alternating += [
        validate(5, [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)]),
        validate(6, [(1, 2), (3, 2), (3, 4), (5, 4), (5, 6), (1, 6)]),
    ]
    closed = [g for g in universe if is_transitively_closed(g)]
    closed += [g for g in (transitive_closure(cc.random_dag(rng, 5)) for _ in range(30)) if connected(g)]
    return alternating, closed


def test_criterion_8_special_class_generators(special_classes):
    alternating, closed = special_classes

    def listed(faces, contains_origin):
        got = [descriptor_indices(h, contains_origin) for h in faces]
        assert len(set(got)) == len(got)
        return set(got)

    for g in alternating:
        lat = enumerate_faces_bruteforce(g)
        assert listed(facets_alternating(g), True) == {f for f in lat.facets() if 0 in f}
        for d in range(g.n):
            want = {f for f, dim in lat.faces.items() if 0 in f and dim == lat.dim - d}
            assert listed(faces_alternating_codim(g, d), True) == want
    for g in closed:
        lat = enumerate_faces_bruteforce(g)
        assert listed(facets_transitively_closed(g), False) == {f for f in lat.facets() if 0 not in f}
    print(
        f"criterion 8: PASS (alternating facet/codimension generators on {len(alternating)} connected alternating "
        f"DAGs and the transitively closed facet generator on {len(closed)} connected closed DAGs match the hull)"
    )


def test_criterion_9_faces_are_facet_intersections(small_universe):
    faces_checked = 0
    for g in small_universe:
        lat = enumerate_faces_bruteforce(g)
        dim_p = lat.dim
        full = frozenset(range(len(lat.points)))
        facets = lat.facets()
        for face, dim_f in lat.faces.items():
            if not face:
                continue
            d = dim_p - dim_f
            if d == 0:
                assert face == full
                continue
            containing = [f for f in facets if face <= f]
            assert any(
                frozenset.intersection(*combo) == face for combo in combinations(containing, d)
            ), (g, sorted(face), d)
            faces_checked += 1
    print(
        f"criterion 9: PASS (every enumerated codimension-d face over the n <= 4 universe "
        f"is an intersection of d facets; {faces_checked} faces checked)"
    )


def test_note_dimension_formula_for_path_consistent_subgraphs(small_universe):
    # Not an acceptance criterion: dim = n - r - 1 holds for every
    # path-consistent subgraph, not only the alternating ones, because H's
    # weights w give w.p = -1 on every point p of H.  Enumeration relies on it.
    held = total = 0
    for g in small_universe:
        for h in subgraphs(g):
            w = path_consistency(h)
            if w is None or not h.mask:
                continue
            total += 1
            r = undirected_components(h).count
            if affine_dimension(edge_points(g, h)) == g.n - r - 1:
                held += 1
    print(
        f"note: dimension formula n - r - 1 held on {held}/{total} path-consistent "
        f"nonempty subgraphs over the n <= 4 universe"
    )
    assert total > 0 and held == total
