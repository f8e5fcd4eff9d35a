import random
from fractions import Fraction
from itertools import combinations

import pytest

from rootpoly.linprog import OPTIMAL, STOPPED, UNBOUNDED, _integer_row, simplex_maximize


def solve_by_vertex_enumeration(objective, lhs, rhs):
    """Independent reference: evaluate the objective on every basic feasible point.

    Treats x >= 0 as extra constraints, solves every square subsystem by
    exact Gaussian elimination, keeps the feasible solutions, and returns
    the best value (None when the region is empty).  Only valid when the
    optimum is attained at a vertex, i.e. for bounded feasible regions.
    """
    nv = len(objective)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(lhs, rhs)]
    for i in range(nv):
        axis = [Fraction(0)] * (nv + 1)
        axis[i] = Fraction(-1)
        rows.append(axis)
    best = None
    for chosen in combinations(range(len(rows)), nv):
        mat = [rows[i][:] for i in chosen]
        # Gaussian elimination with partial search for a nonzero pivot.
        sol = [Fraction(0)] * nv
        ok = True
        for col in range(nv):
            piv = next((r for r in range(col, nv) if mat[r][col] != 0), None)
            if piv is None:
                ok = False
                break
            mat[col], mat[piv] = mat[piv], mat[col]
            mat[col] = [x / mat[col][col] for x in mat[col]]
            for r in range(nv):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
            continue
        if not ok:
            continue
        sol = [mat[i][nv] for i in range(nv)]
        if any(x < 0 for x in sol):
            continue
        if any(sum(c * x for c, x in zip(row[:nv], sol)) > row[nv] for row in rows[: len(lhs)]):
            continue
        value = sum(Fraction(c) * x for c, x in zip(objective, sol))
        if best is None or value > best:
            best = value
    return best


def test_basic_maximum():
    res = simplex_maximize([1, 1], [[1, 0], [0, 1]], [2, 3])
    assert res.status == OPTIMAL
    assert res.value == 5
    assert res.x == (Fraction(2), Fraction(3))


def test_fractional_data():
    res = simplex_maximize([Fraction(1)], [[Fraction(1, 2)]], [Fraction(3, 2)])
    assert res.status == OPTIMAL and res.value == 3


def test_unbounded():
    res = simplex_maximize([1, 0], [[0, 1]], [1])
    assert res.status == UNBOUNDED


def test_degenerate_zero_rhs():
    # delta <= x and delta <= -x with x free-ish boxed: optimum 0.
    res = simplex_maximize([0, 1], [[-1, 1], [1, 1], [1, 0]], [0, 0, 1])
    assert res.status == OPTIMAL and res.value == 0


def test_stop_above_short_circuits():
    res = simplex_maximize([1], [[1]], [5], stop_above=0)
    assert res.status == STOPPED
    assert res.value > 0


def test_stop_above_fraction_threshold():
    # The early stop compares value and threshold in integers, with the
    # objective's scale: max x/3 with x <= 6 has value 2.
    assert simplex_maximize([Fraction(1, 3)], [[1]], [6], stop_above=Fraction(19, 10)).status == STOPPED
    assert simplex_maximize([Fraction(1, 3)], [[1]], [6], stop_above=2).status == OPTIMAL
    assert simplex_maximize([1], [[1]], [5], stop_above=Fraction(9, 2)).status == STOPPED
    assert simplex_maximize([1], [[1]], [5], stop_above=5).status == OPTIMAL


def test_integer_row_passes_ints_through():
    row = [3, -1, 0, 7]
    scaled, tail = _integer_row(row, 2)
    assert scaled == row and scaled is not row
    assert tail == 2
    assert all(type(x) is int for x in scaled) and type(tail) is int


def test_integer_row_scales_fractions():
    assert _integer_row([Fraction(1, 2), Fraction(-1, 3)], Fraction(1, 4)) == ([6, -4], 3)
    assert _integer_row([1, Fraction(1, 2)], 3) == ([2, 1], 6)
    scaled, tail = _integer_row([Fraction(2), Fraction(4)], Fraction(6))
    assert (scaled, tail) == ([2, 4], 6)
    assert all(type(x) is int for x in scaled) and type(tail) is int


def test_negative_rhs_rejected():
    with pytest.raises(ValueError):
        simplex_maximize([1], [[1]], [-1])


def test_objective_scaling():
    res = simplex_maximize([Fraction(1, 3)], [[1]], [6])
    assert res.value == 2


def test_matches_vertex_enumeration_on_random_boxed_lps():
    rng = random.Random(2024)
    for _ in range(60):
        nv = rng.randint(1, 3)
        extra = rng.randint(1, 3)
        lhs = [[1 if j == i else 0 for j in range(nv)] for i in range(nv)]  # box: x_i <= cap
        rhs = [rng.randint(1, 4) for _ in range(nv)]
        for _ in range(extra):
            lhs.append([rng.randint(-3, 3) for _ in range(nv)])
            rhs.append(rng.randint(0, 6))
        objective = [rng.randint(-3, 3) for _ in range(nv)]
        res = simplex_maximize(objective, lhs, rhs)
        assert res.status == OPTIMAL
        expected = solve_by_vertex_enumeration(objective, lhs, rhs)
        assert expected is not None
        assert res.value == expected
        # The reported solution must itself be feasible and attain the value.
        for row, b in zip(lhs, rhs):
            assert sum(c * x for c, x in zip(row, res.x)) <= b
        assert all(x >= 0 for x in res.x)
        assert sum(Fraction(c) * x for c, x in zip(objective, res.x)) == res.value
