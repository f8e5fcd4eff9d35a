from fractions import Fraction

import pytest

from rootpoly.certificates import (
    Certificate,
    NotAFaceError,
    q_certificate,
    solve_shift_vector,
    tilde_certificate,
    verify_certificate,
)
from rootpoly.faces import build_hcomp, path_consistency
from rootpoly.graphs import Subgraph


def F(*args):
    return Fraction(*args)


class TestTildeCertificate:
    def test_single_edge_of_triangle(self, k3):
        cert = tilde_certificate(k3, k3.subgraph([(1, 2)]))
        assert cert.c == (F(2), F(2), F(1))
        assert cert.c0 == 0

    def test_full_subgraph_constant_vector(self, square_graph):
        cert = tilde_certificate(square_graph, square_graph.full_subgraph())
        assert cert.c == (F(1), F(1), F(1), F(1))

    def test_empty_subgraph_of_triangle(self, k3):
        cert = tilde_certificate(k3, k3.empty_subgraph())
        assert cert.c == (F(3), F(2), F(1))

    def test_rejects_non_face(self, k3):
        with pytest.raises(NotAFaceError):
            tilde_certificate(k3, k3.subgraph([(1, 3)]))

    def test_emitted_certificates_verify(self, k3, k4, square_graph):
        from rootpoly.faces import is_tilde_face

        for g in (k3, k4, square_graph):
            m = len(g.edges)
            for mask in range(1 << m):
                h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
                if is_tilde_face(g, h):
                    assert verify_certificate(g, h, tilde_certificate(g, h), True)


class TestShiftVector:
    def test_k3_skew_edge(self, k3):
        h = k3.subgraph([(1, 3)])
        hc = build_hcomp(k3, h)
        assert solve_shift_vector(hc, path_consistency(h)) == (F(-1, 3), F(0))

    def test_inadmissible_subgraph_is_not_a_face(self, square_graph):
        h = square_graph.subgraph([(1, 3), (2, 4)])
        with pytest.raises(NotAFaceError, match="not admissible"):
            solve_shift_vector(build_hcomp(square_graph, h), path_consistency(h))

    def test_edgeless_contraction(self, k4):
        h = k4.full_subgraph()
        assert solve_shift_vector(build_hcomp(k4, h), path_consistency(h)) == (F(0),)

    def test_strict_inequalities_hold(self, k4, square_graph):
        from rootpoly.faces import is_q_face

        for g in (k4, square_graph):
            m = len(g.edges)
            for mask in range(1 << m):
                h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
                if not is_q_face(g, h):
                    continue
                w = path_consistency(h)
                hc = build_hcomp(g, h)
                shift = solve_shift_vector(hc, w)
                for s, t, i in zip(*hc.contraction):
                    u, v = g.edges[i]
                    assert w[u] - w[v] + shift[s] - shift[t] > -1

    def test_certify_shifts_the_weights_by_the_same_potentials(self, k4, square_graph):
        from rootpoly.certificates import certify
        from rootpoly.faces import is_q_face

        for g in (k4, square_graph):
            m = len(g.edges)
            for mask in range(1 << m):
                h = Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))
                if is_q_face(g, h):
                    hc = build_hcomp(g, h)
                    w = path_consistency(h)
                    shift = solve_shift_vector(hc, w)
                    comp = hc.components.component_of
                    assert certify(hc, False).c == tuple(x + shift[c] for x, c in zip(w.values, comp))

    def test_potentials_bounded(self, k4):
        # Acyclic contraction with all-zero decreases: potentials stay in
        # [-(1 - 1/(m+1)) * n, 0].
        h = k4.subgraph([(1, 2)])
        hc = build_hcomp(k4, h)
        w = path_consistency(h)
        shift = solve_shift_vector(hc, w)
        m = len(hc.contraction[2])
        low = -(1 - F(1, m + 1)) * k4.n
        assert all(low <= d <= 0 for d in shift)


class TestQCertificate:
    def test_k3_skew_edge(self, k3):
        cert = q_certificate(k3, k3.subgraph([(1, 3)]))
        assert cert.c == (F(-1, 3), F(0), F(2, 3))
        assert cert.c0 == -1
        assert cert.c[0] == cert.c[2] - 1
        assert cert.c[0] > cert.c[1] - 1
        assert cert.c[1] > cert.c[2] - 1

    def test_square_face_of_pyramid(self, square_graph):
        cert = q_certificate(square_graph, square_graph.full_subgraph())
        assert cert.c == (F(0), F(0), F(1), F(1))
        assert cert.c0 == -1

    def test_matching_in_k4_verifies(self, k4):
        h = k4.subgraph([(1, 2), (3, 4)])
        assert verify_certificate(k4, h, q_certificate(k4, h), False)

    def test_rejects_non_face(self, k3, square_graph):
        with pytest.raises(NotAFaceError):
            q_certificate(k3, k3.full_subgraph())
        with pytest.raises(NotAFaceError):
            q_certificate(square_graph, square_graph.subgraph([(1, 3), (2, 4)]))

    def test_empty_subgraph_certifies_the_empty_face(self, k3):
        cert = q_certificate(k3, k3.empty_subgraph())
        assert cert.c == (F(0), F(0), F(0))
        assert verify_certificate(k3, k3.empty_subgraph(), cert, False)

    def test_strictness_margin(self, k4):
        # Non-tight edges keep slack at least the Bellman-Ford perturbation.
        from rootpoly.faces import is_q_face

        m = len(k4.edges)
        for mask in range(1 << m):
            h = Subgraph(k4, frozenset(i for i in range(m) if mask >> i & 1))
            if not is_q_face(k4, h):
                continue
            cert = q_certificate(k4, h)
            for i, (u, v) in enumerate(k4.edges):
                slack = cert.c[u - 1] - cert.c[v - 1] + 1
                if i in h.mask:
                    assert slack == 0
                else:
                    assert slack > 0


class TestVerifyCertificate:
    def test_accepts_valid_tilde(self, k3):
        cert = Certificate((F(2), F(2), F(1)), F(0))
        assert verify_certificate(k3, k3.subgraph([(1, 2)]), cert, True)

    def test_rejects_wrong_step(self, k3):
        cert = Certificate((F(1), F(0), F(-1)), F(-1))
        assert not verify_certificate(k3, k3.full_subgraph(), cert, False)

    def test_accepts_zero_vector_for_full_graph(self, square_graph):
        cert = Certificate((F(0),) * 4, F(0))
        assert verify_certificate(square_graph, square_graph.full_subgraph(), cert, True)

    def test_rejects_wrong_length(self, k3):
        assert not verify_certificate(k3, k3.full_subgraph(), Certificate((F(0),), F(0)), True)

    def test_rejects_nonzero_rhs_for_origin_face(self, k3):
        cert = Certificate((F(2), F(2), F(1)), F(1))
        assert not verify_certificate(k3, k3.subgraph([(1, 2)]), cert, True)

    @pytest.mark.parametrize("lam", [Fraction(1, 2), Fraction(2), Fraction(7, 3)])
    def test_scaling_invariance(self, k4, lam):
        h = k4.subgraph([(1, 2), (3, 4)])
        cert = q_certificate(k4, h)
        scaled = Certificate(tuple(lam * x for x in cert.c), lam * cert.c0)
        assert verify_certificate(k4, h, scaled, False)

    def test_json_round_trip(self, k3):
        cert = q_certificate(k3, k3.subgraph([(1, 3)]))
        doc = cert.to_json_dict()
        assert doc == {"c": ["-1/3", "0", "2/3"], "c0": "-1"}
        assert Certificate.from_json_dict(doc) == cert


def fraction_verify(g, h, cert, contains_origin):
    """The reference for verify_certificate: its earlier check, one Fraction comparison per edge."""
    if len(cert.c) != g.n:
        return False
    c, c0 = cert.c, cert.c0
    if (c0 != 0) if contains_origin else (c0 >= 0):
        return False
    level = [x + c0 for x in c]
    for i, (u, v) in enumerate(g.edges):
        if i in h.mask:
            if c[u - 1] != level[v - 1]:
                return False
        elif c[u - 1] <= level[v - 1]:
            return False
    return True


def tampered(cert, v, step):
    """The certificate, copies with coefficient v or c0 moved by +-step, and c negated."""
    yield cert
    for d in (step, -step):
        yield Certificate(cert.c[:v] + (cert.c[v] + d,) + cert.c[v + 1:], cert.c0)
        yield Certificate(cert.c, cert.c0 + d)
    yield Certificate(tuple(-x for x in cert.c), cert.c0)


class TestIntegerVerifierMatchesFractions:
    def test_every_subgraph_up_to_four_vertices(self):
        # Every certificate emitted for H, with or without the origin, is
        # checked by both verifiers under both origin flags: its tampered
        # copies against H, and the certificate itself against H with one
        # edge flipped, or with its first edge swapped for the first edge
        # outside it; the moved coefficient and edge cycle with the mask.
        from rootpoly.certificates import certify
        from rootpoly.crosscheck import all_dags

        verdicts = {True: 0, False: 0}
        for n in range(1, 5):
            for g in all_dags(n):
                m = len(g.edges)
                subgraphs = [Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1)) for mask in range(1 << m)]
                for mask, h in enumerate(subgraphs):
                    hc = build_hcomp(g, h)
                    for emitted in [o for o, ok in ((True, hc.is_tilde_face()), (False, hc.is_q_face())) if ok]:
                        cert = certify(hc, emitted)
                        assert verify_certificate(g, h, cert, emitted)
                        pairs = [(copy, h) for copy in tampered(cert, mask % n, F(1, m + 1))]
                        if m:
                            pairs.append((cert, subgraphs[mask ^ 1 << mask % m]))
                        if 0 < mask < (1 << m) - 1:
                            pairs.append((cert, subgraphs[mask ^ (mask & -mask) ^ (~mask & (mask + 1))]))
                        for candidate, sub in pairs:
                            for origin in (True, False):
                                got = verify_certificate(g, sub, candidate, origin)
                                assert got == fraction_verify(g, sub, candidate, origin), (g, sub.edges, candidate, origin)
                                verdicts[got] += 1
        assert verdicts[True] > 10_000 and verdicts[False] > 50_000
