import json
from collections import Counter
from math import comb

import pytest

from rootpoly.cli import main
from rootpoly.enumeration import (
    KnFaceDatum,
    NotConnectedError,
    NotTransitivelyClosedError,
    datum_subgraph,
    enumerate_faces,
    face_closure,
    faces_alternating_codim,
    facets_alternating,
    facets_transitively_closed,
    fvector,
    kn_face_counts,
    kn_face_data,
    kn_q_faces,
    kn_tilde_faces,
    subgraph_datum,
)
from rootpoly.faces import is_q_face, is_tilde_face, tilde_dimension
from rootpoly.graphs import (
    NotAlternatingError,
    Subgraph,
    complete_graph,
    is_alternating,
    is_transitively_closed,
    undirected_components,
    validate,
)
from rootpoly.hull import TooLargeError, descriptor_indices, enumerate_faces_bruteforce


def kn_proper_counts(capsys, n):
    """``kn N --fvector``, which counts neither trivial face: nothing of dimension -1 or n - 1."""
    assert main(["kn", str(n), "--fvector", "--json"]) == 0
    counts = {int(d): c for d, c in json.loads(capsys.readouterr().out)["fvector"].items()}
    assert not {-1, n - 1} & set(counts)
    return counts


def oracle_subgraph_sets(g):
    m = len(g.edges)
    tilde, q = set(), set()
    for mask in range(1 << m):
        h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
        if is_tilde_face(g, h):
            tilde.add(h.mask)
        if h.mask and is_q_face(g, h):
            q.add(h.mask)
    return tilde, q


class TestEnumerateFaces:
    def test_rhombus_counts(self, k3):
        faces = enumerate_faces(k3)
        proper = [f for f in faces if not (f.descriptor.contains_origin and f.descriptor.subgraph.is_full())]
        assert len(proper) == 8
        assert sum(1 for f in proper if f.dim == 0) == 4
        assert sum(1 for f in proper if f.dim == 1) == 4

    def test_square_pyramid_counts(self, square_graph):
        assert fvector(square_graph) == {0: 5, 1: 8, 2: 5}

    def test_edgeless_single_face(self):
        faces = enumerate_faces(validate(3, []))
        assert len(faces) == 1
        f = faces[0]
        assert f.descriptor.contains_origin and f.descriptor.subgraph.edges == () and f.dim == 0

    def test_descriptors_unique(self, k4):
        faces = enumerate_faces(k4)
        keys = {(f.descriptor.subgraph.mask, f.descriptor.contains_origin) for f in faces}
        assert len(keys) == len(faces)

    def test_cap(self, k3):
        with pytest.raises(TooLargeError):
            enumerate_faces(k3, max_edges=2)

    def test_matches_the_sweep_merged_from_chunks(self, sweep):
        g = complete_graph(5)
        chunks = [sweep(g, start=lo, stop=min(lo + 100, 1 << 10)) for lo in range(0, 1 << 10, 100)]
        merged = [f for part in chunks for f in part]
        merged.sort(key=lambda f: (f.dim, f.descriptor.contains_origin, f.descriptor.subgraph.indices))
        assert merged == sweep(g) == enumerate_faces(g)

    def test_kn_listing_validates_kn_at_most_once(self, monkeypatch):
        import rootpoly.graphs as graphs

        sizes = []
        kahn = graphs.sink_first_labels
        monkeypatch.setattr(graphs, "sink_first_labels", lambda k, arcs: sizes.append(k) or kahn(k, arcs))
        assert len(kn_q_faces(7)) == len(kn_face_data(7))
        assert sizes in ([], [7])

    def test_matches_brute_force(self, k3, square_graph):
        for g in (k3, square_graph):
            lat = enumerate_faces_bruteforce(g)
            got = {
                descriptor_indices(f.descriptor.subgraph, f.descriptor.contains_origin): f.dim
                for f in enumerate_faces(g, include_empty=True)
            }
            assert got == lat.faces

    def test_euler_poincare_relation(self, k4, square_graph):
        from rootpoly.crosscheck import random_dags

        for g in [k4, square_graph] + random_dags(29, 5, 4, max_edges=7):
            fv = fvector(g, include_trivial=True)
            assert sum((-1) ** d * c for d, c in fv.items()) == 0

    def test_face_vertex_sets_closed_under_intersection(self, k4):
        sets = {
            descriptor_indices(f.descriptor.subgraph, f.descriptor.contains_origin)
            for f in enumerate_faces(k4, include_empty=True)
        }
        for a in sets:
            for b in sets:
                assert (a & b) in sets


def _with_and_without_empty(full):
    """The listings with and without the empty face, from one listing that has it."""
    return {True: full, False: [f for f in full if f.descriptor.contains_origin or f.descriptor.subgraph.mask]}


class TestClosureMatchesTheSweep:
    """Enumeration by closure lists what the 2^m subgraph sweep lists, in the same order."""

    @pytest.fixture(scope="class")
    def small_universe(self):
        from rootpoly.crosscheck import all_dags

        return [g for n in range(1, 5) for g in all_dags(n)]

    @pytest.fixture(scope="class")
    def random_graphs(self):
        from rootpoly.crosscheck import random_dags

        return [g for n in range(5, 9) for g in random_dags(20261018 + n, n, 4, max_edges=12)]

    def _assert_matches(self, graphs, sweep):
        for g in graphs:
            want = _with_and_without_empty(sweep(g, include_empty=True))
            for empty in (False, True):
                got = enumerate_faces(g, include_empty=empty)
                assert got == want[empty]
                keys = [(f.descriptor.subgraph.mask, f.descriptor.contains_origin) for f in got]
                assert len(set(keys)) == len(keys)

    def test_small_universe(self, small_universe, sweep):
        assert len(small_universe) == 572
        self._assert_matches(small_universe, sweep)

    def test_random_dags(self, random_graphs, sweep):
        assert {g.n for g in random_graphs} == {5, 6, 7, 8}
        assert max(len(g.edges) for g in random_graphs) <= 12
        self._assert_matches(random_graphs, sweep)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kn_counts_match_the_formula(self, n):
        kn = complete_graph(n)
        faces = enumerate_faces(kn, max_edges=len(kn.edges))
        for origin in (True, False):
            counts = Counter(f.dim for f in faces if f.descriptor.contains_origin == origin)
            assert counts == kn_face_counts(n, origin)


class TestOutputSensitive:
    """The enumeration computes at most m + 1 closures per face and never analyses a subgraph."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import sys

        import rootpoly.enumeration as en

        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(en, "face_closure", counting("closure", en.face_closure))
        for name, module in list(sys.modules.items()):
            if name.startswith("rootpoly.") and "build_hcomp" in vars(module):
                monkeypatch.setattr(module, "build_hcomp", counting("analysis", vars(module)["build_hcomp"]))
        return counts

    @pytest.mark.parametrize("graph", ["k6", "square"])
    def test_closures_per_face(self, calls, square_graph, graph):
        g = complete_graph(6) if graph == "k6" else square_graph
        closed = len(enumerate_faces(g, include_empty=True))
        m = len(g.edges)
        assert 0 < calls["closure"] <= closed * (m + 1)
        assert calls["analysis"] == 0
        if graph == "k6":
            assert closed * (m + 1) < 1 << m  # a sweep of all subgraphs would fail here


class TestFaceClosure:
    """face_closure, which reads none of the face criteria, fixes exactly the subgraphs they accept."""

    def test_agrees_with_the_criteria_on_the_small_universe(self):
        from rootpoly.crosscheck import all_dags

        subgraphs = 0
        for n in range(1, 5):
            for g in all_dags(n):
                m = len(g.edges)
                for mask in range(1 << m):
                    h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
                    r = undirected_components(h).count
                    closed, count = face_closure(g, mask << 1 | 1)
                    assert (closed == mask << 1 | 1) == is_tilde_face(g, h)
                    assert closed != mask << 1 | 1 or count == r
                    if mask:
                        closed, count = face_closure(g, mask << 1)
                        assert (closed == mask << 1) == is_q_face(g, h)
                        assert closed != mask << 1 or count == r
                    subgraphs += 1
        assert 2 * subgraphs == 19128  # (subgraph, origin) pairs

    def test_closure_of_nothing_is_the_empty_face(self, k4):
        assert face_closure(k4, 0) == (0, 4)

    def test_origin_joins_when_no_face_avoids_it(self, k3):
        # (1,2) and (2,3) average to the midpoint of the origin and (1,3).
        both = 1 << 1 | 1 << 3
        assert face_closure(k3, both) == (0b1111, 1)


class TestKnTilde:
    def test_n3_interval_unions(self):
        sets = {h.edge_set for h in kn_tilde_faces(3)}
        assert sets == {
            frozenset(),
            frozenset({(1, 2)}),
            frozenset({(2, 3)}),
            frozenset({(1, 2), (1, 3), (2, 3)}),
        }

    def test_n1(self):
        assert len(kn_tilde_faces(1)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_by_components(self, n):
        faces = kn_tilde_faces(n)
        assert len(faces) == 2 ** (n - 1)
        for k in range(1, n + 1):
            got = sum(1 for h in faces if undirected_components(h).count == k)
            assert got == comb(n - 1, k - 1)


class TestKnQ:
    def test_n4_contains_both_ggp_graphs(self):
        sets = {h.edge_set for h in kn_q_faces(4)}
        assert frozenset({(1, 2), (3, 4)}) in sets
        assert frozenset({(1, 2), (1, 4), (3, 4)}) in sets

    def test_n2_single_edge(self):
        faces = kn_q_faces(2)
        assert len(faces) == 1 and faces[0].edge_set == {(1, 2)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_outputs_alternating_with_connected_blocks(self, n):
        for h in kn_q_faces(n):
            assert is_alternating(h)
            comps = undirected_components(h)
            touched = {v for e in h.edges for v in e}
            for left, right in subgraph_datum(h).blocks:
                block = left | right
                assert block <= touched
                assert len({comps.component(v) for v in block}) == 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_datum_round_trip(self, n):
        data = kn_face_data(n)
        assert len(data) == len(set(data))
        for datum in data:
            assert subgraph_datum(datum_subgraph(datum, n)) == datum

    def test_datum_validation(self):
        with pytest.raises(ValueError):
            KnFaceDatum(((frozenset({2}), frozenset({1})),))  # min not in source set
        with pytest.raises(ValueError):
            KnFaceDatum(((frozenset({1}), frozenset({3})), (frozenset({2}), frozenset({4}))))
        with pytest.raises(ValueError):
            KnFaceDatum(((frozenset({1}), frozenset({1, 2})),))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_generators_match_oracle(self, n):
        kn = complete_graph(n)
        tilde, q = oracle_subgraph_sets(kn)
        assert {h.mask for h in kn_tilde_faces(n)} == tilde
        assert {h.mask for h in kn_q_faces(n)} == q


class TestAlternatingGenerators:
    def test_square_facet_from_sink_singleton(self, square_graph):
        facets = facets_alternating(square_graph)
        assert frozenset({(1, 3), (2, 3)}) in {h.edge_set for h in facets}

    def test_square_all_four_facets(self, square_graph):
        sets = {h.edge_set for h in facets_alternating(square_graph)}
        assert sets == {
            frozenset({(1, 3), (1, 4)}),
            frozenset({(1, 3), (2, 3)}),
            frozenset({(1, 4), (2, 4)}),
            frozenset({(2, 3), (2, 4)}),
        }

    def test_facets_have_codimension_one(self, square_graph):
        for h in facets_alternating(square_graph):
            assert is_tilde_face(square_graph, h)
            assert tilde_dimension(h) == square_graph.n - 2

    def test_requires_alternating_and_connected(self, k3):
        with pytest.raises(NotAlternatingError):
            facets_alternating(k3)
        with pytest.raises(NotConnectedError):
            facets_alternating(validate(4, [(1, 2), (3, 4)]))

    def test_codim_zero_is_the_graph(self, square_graph):
        (h,) = faces_alternating_codim(square_graph, 0)
        assert h.is_full()

    def test_codim_one_is_facets(self, square_graph):
        assert faces_alternating_codim(square_graph, 1) == facets_alternating(square_graph)

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_codim_matches_oracle(self, square_graph, d):
        want = set()
        m = len(square_graph.edges)
        for mask in range(1 << m):
            h = Subgraph(square_graph, frozenset(i for i in range(m) if mask >> i & 1))
            if is_tilde_face(square_graph, h) and undirected_components(h).count == d + 1:
                want.add(h.mask)
        assert {h.mask for h in faces_alternating_codim(square_graph, d)} == want

    def test_codim_out_of_range(self, square_graph):
        with pytest.raises(ValueError):
            faces_alternating_codim(square_graph, 4)


class TestTransitivelyClosedGenerators:
    def test_k4_contains_triangular_facet(self, k4):
        sets = {h.edge_set for h in facets_transitively_closed(k4)}
        assert frozenset({(1, 2), (1, 4), (3, 4)}) in sets

    def test_k3_matches_brute_force(self, k3):
        got = {descriptor_indices(h, False) for h in facets_transitively_closed(k3)}
        lat = enumerate_faces_bruteforce(k3)
        assert got == {f for f in lat.facets() if 0 not in f}

    def test_k3_explicit(self, k3):
        sets = {h.edge_set for h in facets_transitively_closed(k3)}
        assert sets == {frozenset({(1, 2), (1, 3)}), frozenset({(1, 3), (2, 3)})}

    def test_requires_closure(self):
        with pytest.raises(NotTransitivelyClosedError):
            facets_transitively_closed(validate(3, [(1, 2), (2, 3)]))

    def test_non_complete_closed_graph_matches_brute_force(self):
        g = validate(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
        assert is_transitively_closed(g)
        got = {descriptor_indices(h, False) for h in facets_transitively_closed(g)}
        lat = enumerate_faces_bruteforce(g)
        assert got == {f for f in lat.facets() if 0 not in f}


class TestFVector:
    def test_formula_matches_oracle_for_k3(self, k3, capsys):
        assert fvector(k3) == kn_proper_counts(capsys, 3) == {0: 4, 1: 4}

    def test_k4_binomial_part(self):
        assert [comb(3, 3 - d) for d in range(4)] == [1, 3, 3, 1]

    def test_oracle_matches_brute_force_with_flags(self, square_graph):
        lat = enumerate_faces_bruteforce(square_graph)
        for trivial in (False, True):
            fv = fvector(square_graph, include_trivial=trivial)
            assert fv == lat.f_vector(include_empty=trivial, include_improper=trivial)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_kn_counts_match_the_generated_data(self, n):
        # The closed form counts the data that kn_face_data lists.
        listed = Counter(sum(len(left) + len(right) for left, right in d.blocks) - len(d.blocks) - 1
                         for d in kn_face_data(n))
        assert kn_face_counts(n, False) == listed
        assert sum(kn_face_counts(n, True).values()) == len(kn_tilde_faces(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_formula_matches_oracle_for_kn(self, n, capsys):
        assert fvector(complete_graph(n)) == kn_proper_counts(capsys, n)
