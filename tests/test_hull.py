from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, strategies as st

from rootpoly.graphs import validate
from rootpoly.hull import (
    EmptySetError,
    NotASubsetOfVerticesError,
    TooLargeError,
    _face_lp,
    _nullspace_basis,
    _rank,
    affine_dimension,
    descriptor_indices,
    enumerate_faces_bruteforce,
    is_face_bruteforce,
    polytope_vertices,
    supporting_hyperplane,
)
from rootpoly.linprog import OPTIMAL, simplex_maximize


def reference_rref(vectors, n):
    """Reduced row echelon form over Fraction: (pivot columns, rows)."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    pivots = []
    for col in range(n):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots, rows


def reference_nullspace(vectors, n):
    """One vector per free column: 1 there, 0 at the other free columns, scaled to integers."""
    pivots, rows = reference_rref(vectors, n)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        scale = lcm(*(x.denominator for x in vec))
        basis.append([int(x * scale) for x in vec])
    return basis


@st.composite
def integer_matrices(draw):
    """Rows with zero rows, rows that combine earlier ones and negative leading entries."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.integers(min_value=-4, max_value=4)
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        kind = draw(st.sampled_from(["free", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entry), draw(entry)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return n, rows


class TestVertexSet:
    def test_triangle_points(self, k3):
        assert polytope_vertices(k3) == ((0, 0, 0), (1, -1, 0), (1, 0, -1), (0, 1, -1))

    def test_points_distinct(self, square_graph):
        points = polytope_vertices(square_graph)
        assert len(set(points)) == len(points) == 5


class TestIsFace:
    def test_diagonal_of_rhombus_is_not_a_face(self, k3):
        assert not is_face_bruteforce(k3, [(1, -1, 0), (0, 1, -1)])

    def test_edge_of_rhombus(self, k3):
        assert is_face_bruteforce(k3, [(0, 0, 0), (1, -1, 0)])

    def test_improper_face(self, k3):
        assert is_face_bruteforce(k3, polytope_vertices(k3))

    def test_empty_set_is_a_face(self, k3):
        assert is_face_bruteforce(k3, [])

    def test_accepts_indices(self, k3):
        assert is_face_bruteforce(k3, [0, 1])

    def test_not_a_subset(self, k3):
        with pytest.raises(NotASubsetOfVerticesError):
            is_face_bruteforce(k3, [(2, 0, -2)])
        with pytest.raises(NotASubsetOfVerticesError):
            is_face_bruteforce(k3, [9])


class TestAffineDimension:
    def test_rhombus_is_two_dimensional(self, k3):
        assert affine_dimension(polytope_vertices(k3)) == 2

    def test_single_point(self):
        assert affine_dimension([(0, 0, 0)]) == 0

    def test_square_pyramid_is_three_dimensional(self, square_graph):
        assert affine_dimension(polytope_vertices(square_graph)) == 3

    def test_empty_raises(self):
        with pytest.raises(EmptySetError):
            affine_dimension([])


class TestEnumeration:
    def test_rhombus_f_vector(self, k3):
        lat = enumerate_faces_bruteforce(k3)
        assert lat.f_vector() == {0: 4, 1: 4}
        assert lat.f_vector(True) == {-1: 1, 0: 4, 1: 4, 2: 1}

    def test_square_pyramid_f_vector(self, square_graph):
        assert enumerate_faces_bruteforce(square_graph).f_vector() == {0: 5, 1: 8, 2: 5}

    def test_segment(self):
        g = validate(2, [(1, 2)])
        assert enumerate_faces_bruteforce(g).f_vector() == {0: 2}
        assert enumerate_faces_bruteforce(g).f_vector(True) == {-1: 1, 0: 2, 1: 1}

    def test_cap(self, k3):
        with pytest.raises(TooLargeError):
            enumerate_faces_bruteforce(k3, cap=3)

    def test_closed_under_intersection(self, k3, square_graph):
        for g in (k3, square_graph):
            lat = enumerate_faces_bruteforce(g)
            for a, b in combinations(lat.faces, 2):
                assert (a & b) in lat.faces

    def test_every_face_has_an_exact_witness(self, square_graph):
        lat = enumerate_faces_bruteforce(square_graph)
        for face in lat.faces:
            c, c0 = supporting_hyperplane(square_graph, face)
            on_plane = {
                i for i, p in enumerate(lat.points)
                if sum(ci * x for ci, x in zip(c, p)) == c0
            }
            assert on_plane == set(face)
            for p in lat.points:
                assert sum(ci * x for ci, x in zip(c, p)) >= c0

    def test_witness_respects_normalization_box(self, k3):
        lat = enumerate_faces_bruteforce(k3)
        for face in lat.faces:
            c, _ = supporting_hyperplane(k3, face)
            assert all(-1 <= ci <= 1 for ci in c)

    def test_no_witness_for_non_face(self, k3):
        assert supporting_hyperplane(k3, [(1, -1, 0), (0, 1, -1)]) is None

    def test_deterministic(self, square_graph):
        a = supporting_hyperplane(square_graph, [0, 1])
        b = supporting_hyperplane(square_graph, [0, 1])
        assert a == b
        assert enumerate_faces_bruteforce(square_graph).faces == enumerate_faces_bruteforce(square_graph).faces

    def test_euler_poincare_relation(self, k3, k4, square_graph):
        # With the empty and improper faces included, the alternating sum of
        # face counts of any polytope vanishes.
        from rootpoly.crosscheck import random_dags

        graphs = [k3, k4, square_graph, validate(2, [(1, 2)])] + random_dags(13, 4, 5, max_edges=6)
        for g in graphs:
            fv = enumerate_faces_bruteforce(g).f_vector(True)
            assert sum((-1) ** d * c for d, c in fv.items()) == 0


class TestIntegerKernel:
    @given(integer_matrices())
    def test_rank_matches_fraction_reference(self, case):
        n, rows = case
        assert _rank(rows) == len(reference_rref(rows, n)[0])

    @given(integer_matrices())
    def test_nullspace_matches_fraction_reference(self, case):
        n, rows = case
        basis = _nullspace_basis(rows, n)
        assert basis == reference_nullspace(rows, n)
        for vec in basis:
            assert all(type(x) is int for x in vec)
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)

    def test_examples(self):
        # Negative pivots, a zero row and a dependent row.
        rows = [[0, -2, 4], [0, 0, 0], [0, 1, -2], [-3, 1, 1]]
        assert _rank(rows) == 2
        assert _nullspace_basis(rows, 3) == [[1, 2, 1]]
        assert _nullspace_basis([[2, 3]], 2) == [[-3, 2]]
        assert _nullspace_basis([], 2) == [[1, 0], [0, 1]]
        assert _rank([[0, 0], [0, 0]]) == 0


def full_separation_program(points, included):
    """The separation program of _face_lp with every excluded row kept."""
    inc = sorted(included)
    n = len(points[0])
    v0 = points[inc[0]]
    basis = _nullspace_basis([[x - y for x, y in zip(points[i], v0)] for i in inc[1:]], n)
    d = len(basis)
    lhs, rhs, in_hull = [], [], False
    for j in range(len(points)):
        if j in included:
            continue
        a = [sum((x - y) * b for x, y, b in zip(points[j], v0, vec)) for vec in basis]
        in_hull = in_hull or not any(a)
        lhs.append([-x for x in a] + a + [1])
        rhs.append(0)
    for i in range(n):
        row = [vec[i] for vec in basis]
        if any(row):
            lhs += [row + [-x for x in row] + [0], [-x for x in row] + row + [0]]
            rhs += [1, 1]
    return [0] * (2 * d) + [1], lhs, rhs, d, in_hull


class TestAffineHullPreTest:
    def test_decides_without_the_program(self, k3, monkeypatch):
        def no_program(*args, **kwargs):
            raise AssertionError("the separation program should have been skipped")

        monkeypatch.setattr("rootpoly.hull.simplex_maximize", no_program)
        # The affine hull of {0, e1-e2, e2-e3} holds e1-e3, their sum.
        assert _face_lp(polytope_vertices(k3), frozenset({0, 1, 3}), want_witness=True) == (False, None)

    def test_never_disagrees_with_the_program(self, k4, square_graph):
        rejected = 0
        for g in (square_graph, k4):
            points = polytope_vertices(g)
            k = len(points)
            for mask in range(1, (1 << k) - 1):
                included = frozenset(i for i in range(k) if mask >> i & 1)
                objective, lhs, rhs, d, in_hull = full_separation_program(points, included)
                if d == 0:
                    continue
                res = simplex_maximize(objective, lhs, rhs)
                assert res.status == OPTIMAL
                assert _face_lp(points, included, want_witness=False)[0] == (res.value > 0)
                if in_hull:
                    rejected += 1
                    assert res.value == 0
                    assert _face_lp(points, included, want_witness=True) == (False, None)
        assert rejected > 50  # 89 of the 154 proper nonempty subsets


class TestDescriptorIndices:
    def test_origin_flag(self, k3):
        h = k3.subgraph([(1, 2)])
        assert descriptor_indices(h, True) == frozenset({0, 1})
        assert descriptor_indices(h, False) == frozenset({1})
