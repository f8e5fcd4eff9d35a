"""Exact rational supporting-hyperplane certificates for positive face decisions.

A certificate is a coefficient vector c (one rational per vertex) together
with a right-hand side c0.  For a face containing the origin the emitted
hyperplane has c0 = 0 with c constant on components of H and strictly
decreasing along every leftover edge of G; for a face avoiding the origin
it has c0 = -1 with c stepping down by exactly one along edges of H and by
strictly less than one along the rest.  Both are read off the pair's
analysis (``faces.build_hcomp``): the contraction's sink-first order, or
H's weights shifted by the Bellman-Ford potentials that the admissibility
test has already computed.  Verification checks those conditions exactly,
in integers over a common denominator, and accepts any valid alternative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .faces import HComp, WeightFunction, _bellman_ford, build_hcomp
from .graphs import Digraph, Subgraph


class NotAFaceError(ValueError):
    """Asked to certify a subgraph that fails the face criterion."""


@dataclass(frozen=True)
class Certificate:
    """Hyperplane coefficients c_1..c_n and right-hand side c0, all exact rationals."""

    c: tuple[Fraction, ...]
    c0: Fraction

    def to_json_dict(self) -> dict:
        return {"c": [str(x) for x in self.c], "c0": str(self.c0)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Certificate":
        return cls(tuple(Fraction(x) for x in data["c"]), Fraction(data["c0"]))


def certify(hc: HComp, contains_origin: bool) -> Certificate:
    """Certificate for the face (H, origin flag) from the pair's analysis; raises NotAFaceError otherwise.

    With the origin, coefficients come from the sink-first order of the
    contracted multigraph, and the full graph gets the all-ones vector.
    Without it, coefficients are the vertex weights shifted per component
    by the analysis's Bellman-Ford potentials (in units of 1/(m+1)), with
    right-hand side -1; the empty subgraph certifies the empty face.
    """
    comp = hc.components.component_of
    if contains_origin:
        if not hc.is_tilde_face():
            raise NotAFaceError("subgraph does not define a face containing the origin")
        if hc.h.is_full():
            return Certificate(tuple(Fraction(1) for _ in comp), Fraction(0))
        return Certificate(tuple(Fraction(hc.order[c]) for c in comp), Fraction(0))
    w = hc.weights
    if w is None:
        raise NotAFaceError("subgraph is not path consistent")
    dist, bad = hc.potentials
    if bad is not None:
        raise NotAFaceError("subgraph is not admissible")
    m1 = len(hc.contraction[2]) + 1
    return Certificate(tuple(Fraction(x * m1 + dist[c], m1) for x, c in zip(w.values, comp)), Fraction(-1))


def tilde_certificate(g: Digraph, h: Subgraph) -> Certificate:
    """Certificate for a face containing the origin; raises NotAFaceError otherwise."""
    return certify(build_hcomp(g, h), True)


def solve_shift_vector(hc: HComp, w: WeightFunction) -> tuple[Fraction, ...]:
    """Per-component shifts d with w(u) - w(v) + d[source] - d[target] > -1 on every contracted G-edge (u, v).

    Bellman-Ford runs from a virtual zero-weight source over the edge weights
    w(u) - w(v) + 1 - 1/(m+1); an inadmissible H raises NotAFaceError, as in
    ``certify``, which reads H's own potentials off the analysis instead.
    """
    dist, bad = _bellman_ford(hc, w)
    if bad is not None:
        raise NotAFaceError("subgraph is not admissible")
    m1 = len(hc.contraction[2]) + 1
    return tuple(Fraction(v, m1) for v in dist)


def q_certificate(g: Digraph, h: Subgraph) -> Certificate:
    """Certificate for a face avoiding the origin; raises NotAFaceError otherwise.

    The empty subgraph is accepted and certifies the empty face.
    """
    return certify(build_hcomp(g, h), False)


def verify_certificate(g: Digraph, h: Subgraph, cert: Certificate, contains_origin: bool) -> bool:
    """Exact check of the supporting-hyperplane conditions for the claimed face.

    Every point p of the polytope needs c.p = c0 when the face holds it and
    c.p > c0 otherwise; the origin is the point with c.p = 0.  Scaled by the
    lcm of their denominators, c and c0 are compared as ints on every edge.
    """
    if len(cert.c) != g.n:
        return False
    c0 = cert.c0
    if (c0 != 0) if contains_origin else (c0 >= 0):
        return False
    scale = lcm(c0.denominator, *(x.denominator for x in cert.c))
    c = [x.numerator * (scale // x.denominator) for x in cert.c]
    k0 = c0.numerator * (scale // c0.denominator)
    gap = [c[u] - c[v] for u, v in g.arcs]  # c.p at the point e_u - e_v, scaled
    # With no gap below k0, the gaps equal to k0 are exactly H's edges when there are |H| of them, all on H.
    return min(gap, default=k0) >= k0 and gap.count(k0) == len(h.mask) and all(gap[i] == k0 for i in h.mask)
