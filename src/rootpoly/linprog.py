"""Exact rational linear programming.

A primal simplex on the standard form  max c.x  s.t.  A.x <= b, x >= 0,
b >= 0, using Bland's rule, so termination is guaranteed and every
comparison is exact.  The tableau is kept integral with a running
denominator (integer pivoting), which is much faster in Python than
Fraction entries.  Integer input rows enter the tableau as they are, and
the pivot loop, including the early-stop test, makes no Fraction; only
the reported values are exact Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

Rational = int | Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
STOPPED = "stopped"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    value: Fraction
    x: tuple[Fraction, ...]


def _integer_row(row: Sequence[Rational], tail: Rational) -> tuple[list[int], int]:
    """Scale a row and its right-hand entry by the lcm of denominators.

    A row of ints with an int tail is returned as it is, in a new list.
    """
    if type(tail) is int and all(type(v) is int for v in row):
        return list(row), tail
    fracs = [Fraction(v) for v in row]
    t = Fraction(tail)
    scale = lcm(t.denominator, *(f.denominator for f in fracs))
    return [int(f * scale) for f in fracs], int(t * scale)


def _pivot_row(r: list[int], prow: list[int], piv: int, det: int, enter: int) -> list[int]:
    """One row after the integer pivot on prow[enter]; every division is exact."""
    f = r[enter]
    if f:
        return [(x * piv - f * y) // det for x, y in zip(r, prow)]
    return [x * piv // det for x in r]


def simplex_maximize(
    objective: Sequence[Rational],
    lhs: Sequence[Sequence[Rational]],
    rhs: Sequence[Rational],
    stop_above: Rational | None = None,
) -> SimplexResult:
    """Maximise objective.x subject to lhs.x <= rhs, x >= 0.

    Requires rhs >= 0 so the slack basis is feasible.  When ``stop_above``
    is given, returns early (status "stopped") as soon as the objective
    value of the current basic solution exceeds it.
    """
    nv = len(objective)
    m = len(lhs)
    if len(rhs) != m:
        raise ValueError("lhs and rhs sizes differ")

    # The tail 1 comes back as the objective's scale.
    obj_int, obj_scale = _integer_row(objective, 1)

    width = nv + m + 1
    rows: list[list[int]] = []
    for i, row in enumerate(lhs):
        if len(row) != nv:
            raise ValueError("constraint row length mismatch")
        base, b = _integer_row(row, rhs[i])
        if b < 0:
            raise ValueError("rhs must be nonnegative for a slack starting basis")
        full = base + [0] * m + [b]
        full[nv + i] = 1
        rows.append(full)
    zrow = [-v for v in obj_int] + [0] * m + [0]

    basis = list(range(nv, nv + m))
    det = 1  # current tableau denominator, always positive
    # value > stop_above  <=>  zrow[-1] * den > num * det * obj_scale
    if stop_above is not None:
        target = Fraction(stop_above)
        num, den = target.numerator, target.denominator

    while True:
        # Bland: entering column = lowest index with negative reduced cost.
        enter = -1
        for j in range(nv + m):
            if zrow[j] < 0:
                enter = j
                break
        if enter < 0:
            status = OPTIMAL
            break
        # Ratio test, ties broken by lowest basic variable index (Bland).
        leave = -1
        for i in range(m):
            a = rows[i][enter]
            if a <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            diff = rows[i][width - 1] * rows[leave][enter] - rows[leave][width - 1] * a
            if diff < 0 or (diff == 0 and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            status = UNBOUNDED
            break

        prow = rows[leave]
        piv = prow[enter]
        for i, r in enumerate(rows):
            if i != leave:
                rows[i] = _pivot_row(r, prow, piv, det, enter)
        zrow = _pivot_row(zrow, prow, piv, det, enter)
        det = piv
        basis[leave] = enter

        if stop_above is not None and zrow[width - 1] * den > num * det * obj_scale:
            status = STOPPED
            break

    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, Fraction(0), tuple(Fraction(0) for _ in range(nv)))

    xs = [Fraction(0)] * nv
    for i, var in enumerate(basis):
        if var < nv:
            xs[var] = Fraction(rows[i][width - 1], det)
    value = Fraction(zrow[width - 1], det * obj_scale)
    return SimplexResult(status, value, tuple(xs))
