import random
import subprocess
import sys

import pytest
from conftest import per_mask_check_graph

from rootpoly.crosscheck import (
    UnreachableCapError,
    all_dags,
    check_graph,
    check_graphs,
    random_dag,
    random_dags,
)
from rootpoly.graphs import Digraph, complete_graph, validate
from rootpoly.hull import FaceLattice, enumerate_faces_bruteforce


class TestAllDags:
    @pytest.mark.parametrize("n,count", [(1, 1), (2, 3), (3, 25), (4, 543)])
    def test_labeled_dag_counts(self, n, count):
        assert len(all_dags(n)) == count

    def test_all_distinct(self):
        dags = all_dags(3)
        assert len({(g.n, g.edges) for g in dags}) == len(dags)


class TestRandomDags:
    def test_deterministic_for_a_seed(self):
        assert random_dags(42, 5, 10) == random_dags(42, 5, 10)

    def test_seed_changes_output(self):
        assert random_dags(1, 5, 10) != random_dags(2, 5, 10)

    def test_respects_edge_cap(self):
        rng = random.Random(0)
        for _ in range(50):
            g = random_dag(rng, 6, max_edges=4)
            assert len(g.edges) <= 4

    def test_refuses_a_cap_almost_no_draw_meets(self):
        # On 7 vertices (21 pairs), at most one edge has odds 22 / 2^21, below
        # 2^-16; at most two edges has odds 232 / 2^21, above it.
        with pytest.raises(UnreachableCapError):
            random_dag(random.Random(0), 7, max_edges=1)
        assert len(random_dag(random.Random(0), 7, max_edges=2).edges) <= 2

    def test_huge_cap_is_tested_quickly(self):
        # The odds test sums at most pairs + 1 binomials, whatever the cap; a
        # subprocess with a timeout keeps a regression from hanging the suite.
        code = ("import random; from rootpoly.crosscheck import random_dag; "
                "assert random_dag(random.Random(0), 7, 10**12) == random_dag(random.Random(0), 7)")
        assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0

    def test_huge_cap_on_a_large_graph_is_tested_quickly(self):
        # On 300 vertices (44,850 pairs) a cap of 10**9 is met by every draw,
        # so it needs no sum of 44,851 binomials of up to 44,850 bits.  The
        # child only tests the cap: its rng stops random_dag at the first shuffle.
        code = ("import time; from rootpoly.crosscheck import random_dag\n"
                "class Stop(Exception): pass\n"
                "class NoDraw:\n"
                "    def shuffle(self, _): raise Stop\n"
                "start = time.perf_counter()\n"
                "try:\n"
                "    random_dag(NoDraw(), 300, max_edges=10**9)\n"
                "except Stop:\n"
                "    print(time.perf_counter() - start)\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
        assert run.returncode == 0, run.stderr
        assert float(run.stdout) < 1

    def test_million_vertices_are_refused_fast(self):
        # 10**6 vertices have about 5 * 10**11 pairs: comparing the odds with
        # 2**pairs would build a 62 GB integer before refusing.  The child's
        # address space is capped at 1 GB, so a regression fails with a
        # MemoryError rather than exhausting the host.
        code = ("import random, resource, time, tracemalloc\n"
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from rootpoly.crosscheck import UnreachableCapError, random_dag\n"
                "tracemalloc.start()\n"
                "start = time.perf_counter()\n"
                "try:\n"
                "    random_dag(random.Random(0), 10**6, max_edges=10)\n"
                "except UnreachableCapError:\n"
                "    print(time.perf_counter() - start, tracemalloc.get_traced_memory()[1])\n")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        seconds, peak = run.stdout.split()
        assert float(seconds) < 1 and int(peak) < 1 << 20

    def test_accepted_caps_draw_the_same_graphs(self):
        # The first graphs of criterion 2's n = 6 sample, as drawn before
        # caps were tested.
        assert [g.edges for g in random_dags(20260502, 6, 3, max_edges=10)] == [
            ((3, 2), (3, 6), (3, 4), (1, 2), (1, 5), (1, 6), (2, 6), (5, 6)),
            ((6, 4), (3, 1), (3, 5), (4, 1), (4, 5)),
            ((1, 4), (1, 5), (3, 4), (3, 5), (3, 2), (3, 6), (4, 5), (4, 2), (5, 6)),
        ]

    def test_outputs_are_valid_dags(self):
        for g in random_dags(3, 6, 20):
            Digraph(g.n, g.edges)  # re-validates acyclicity


class TestCheckGraph:
    def test_triangle_clean(self, k3):
        rep = check_graph(k3)
        assert rep.checks == 16
        assert rep.ok
        assert rep.certificates > 0

    def test_square_pyramid_clean(self, square_graph):
        rep = check_graph(square_graph)
        assert rep.checks == 32 and rep.ok

    def test_parallel_agrees_with_serial(self):
        graphs = all_dags(3)[:10] + [complete_graph(3), validate(3, [(2, 1), (3, 1)])]
        serial = check_graphs(graphs, jobs=1)
        parallel = check_graphs(graphs, jobs=2)
        assert (serial.graphs, serial.checks, serial.certificates) == (
            parallel.graphs,
            parallel.checks,
            parallel.certificates,
        )
        assert serial.ok and parallel.ok

    def test_pool_size_is_capped_at_the_cpu_count(self, recording_pool, monkeypatch):
        import rootpoly.crosscheck as crosscheck

        monkeypatch.setattr(crosscheck, "Pool", recording_pool)
        graphs = [complete_graph(2), complete_graph(3), validate(3, [(1, 3)])]
        report = check_graphs(graphs, jobs=64)
        assert recording_pool.sizes == [2]
        assert report.ok and report.checks == check_graphs(graphs).checks == 2 * (2 + 8 + 2)


def _outcome(report):
    return report.checks, report.certificates, report.disagreements, report.certificate_failures


class TestBitmaskMembership:
    """``check_graph`` looks up (H, origin flag) as the point bitmask ``mask << 1 | flag``; the per-mask
    loop of ``conftest.per_mask_check_graph`` builds each face's index set instead."""

    def test_matches_the_per_mask_loop_on_every_small_dag(self):
        for g in [g for n in range(1, 5) for g in all_dags(n)]:
            lattice = enumerate_faces_bruteforce(g)
            want = _outcome(per_mask_check_graph(g, lattice))
            assert _outcome(check_graph(g)) == want == _outcome(check_graph(g, lattice)), g
            assert want[0] == 2 ** (len(g.edges) + 1)

    def test_reports_the_same_disagreements_on_a_damaged_lattice(self, k3):
        # Dropping the edge (1, 3) alone and adding the non-face {origin, (1, 3)}
        # must read as the same two disagreements through both lookups.
        lattice = enumerate_faces_bruteforce(k3)
        faces = dict(lattice.faces)
        del faces[frozenset({2})]
        faces[frozenset({0, 2})] = 1
        lattice = FaceLattice(lattice.points, faces)
        got = check_graph(k3, lattice)
        assert _outcome(got) == _outcome(per_mask_check_graph(k3, lattice))
        assert [(d.subgraph_edges, d.contains_origin, d.combinatorial) for d in got.disagreements] == [
            (((1, 3),), True, False),
            (((1, 3),), False, True),
        ]
