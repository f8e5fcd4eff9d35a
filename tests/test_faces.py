import random

import pytest
from hypothesis import given, settings, strategies as st

from rootpoly.faces import (
    ConflictObstruction,
    CycleObstruction,
    HComp,
    InadmissibleCycleObstruction,
    LoopObstruction,
    WeightFunction,
    admissibility_obstruction,
    build_hcomp,
    is_admissible,
    is_q_face,
    is_tilde_face,
    loopless_partition,
    path_consistency,
    q_dimension_alternating,
    q_obstruction,
    tilde_dimension,
    tilde_obstruction,
    _directed_cycle,
    _walk_to_cycle,
)
from rootpoly.graphs import (
    Digraph,
    NotAlternatingError,
    Subgraph,
    is_alternating,
    undirected_components,
    validate,
)


def all_subgraphs(g):
    m = len(g.edges)
    for mask in range(1 << m):
        yield Subgraph(g, frozenset(i for i in range(m) if mask >> i & 1))


def contracted_edges(hc):
    """Each contracted edge as (source component, target component, G-edge)."""
    sources, targets, labels = hc.contraction
    return [(s, t, hc.g.edges[i]) for s, t, i in zip(sources, targets, labels)]


class TestHComp:
    def test_k3_path_contracts_to_loop(self, k3):
        h = k3.subgraph([(1, 2), (2, 3)])
        hc = build_hcomp(k3, h)
        assert hc.vertex_count == 1
        assert contracted_edges(hc) == [(0, 0, (1, 3))]
        assert hc.loop == k3.edge_index[(1, 3)]

    def test_square_pyramid_diagonal(self, square_graph):
        h = square_graph.subgraph([(1, 3), (2, 4)])
        hc = build_hcomp(square_graph, h)
        assert hc.vertex_count == 2
        comp = hc.components.component
        assert comp(1) == comp(3) == 0 and comp(2) == comp(4) == 1
        assert set(contracted_edges(hc)) == {(0, 1, (1, 4)), (1, 0, (2, 3))}

    def test_full_subgraph_contracts_to_edgeless(self, k4):
        hc = build_hcomp(k4, k4.full_subgraph())
        assert hc.contraction == ([], [], [])
        assert hc.vertex_count == 1

    def test_labels_biject_onto_leftover_edges(self, k4):
        h = k4.subgraph([(1, 2), (3, 4)])
        hc = build_hcomp(k4, h)
        assert hc.contraction[2] == sorted(set(range(6)) - set(h.mask))


class TestTildeFace:
    def test_single_edge_of_triangle(self, k3):
        assert is_tilde_face(k3, k3.subgraph([(1, 2)]))

    def test_diagonal_of_rhombus(self, k3):
        assert not is_tilde_face(k3, k3.subgraph([(1, 3)]))

    def test_whole_graph(self, square_graph):
        assert is_tilde_face(square_graph, square_graph.full_subgraph())

    def test_empty_subgraph_of_complete(self, k4):
        assert is_tilde_face(k4, k4.empty_subgraph())

    @given(st.data())
    @settings(max_examples=40)
    def test_full_and_empty_always_faces(self, data):
        n = data.draw(st.integers(1, 5))
        order = data.draw(st.permutations(list(range(1, n + 1))))
        pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
        picks = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Digraph(n, tuple(e for e, k in zip(pairs, picks) if k))
        assert is_tilde_face(g, g.full_subgraph())
        assert is_tilde_face(g, g.empty_subgraph())

    def test_obstruction_agrees_with_predicate(self, k3, square_graph):
        for g in (k3, square_graph):
            for h in all_subgraphs(g):
                assert (tilde_obstruction(g, h) is None) == is_tilde_face(g, h)

    def test_loop_obstruction(self, k3):
        obs = tilde_obstruction(k3, k3.subgraph([(1, 2), (2, 3)]))
        assert isinstance(obs, LoopObstruction)
        assert obs.edge == (1, 3)

    def test_cycle_obstruction(self, k3):
        obs = tilde_obstruction(k3, k3.subgraph([(1, 3)]))
        assert isinstance(obs, CycleObstruction)
        assert set(obs.edges) == {(1, 2), (2, 3)}

    def test_obstructions_are_checkable(self, k3, k4, square_graph):
        # A loop witness joins two vertices of one component; a cycle witness
        # walks the components cyclically.  Both use only leftover edges.
        for g in (k3, k4, square_graph):
            for h in all_subgraphs(g):
                obs = tilde_obstruction(g, h)
                if obs is None:
                    continue
                comps = undirected_components(h)
                if isinstance(obs, LoopObstruction):
                    u, v = obs.edge
                    assert obs.edge in g.edge_set and obs.edge not in h.edge_set
                    assert comps.component(u) == comps.component(v)
                else:
                    arcs = [(comps.component(u), comps.component(v)) for u, v in obs.edges]
                    for (_, b), (c, _) in zip(arcs, arcs[1:] + arcs[:1]):
                        assert b == c
                    assert all(e in g.edge_set and e not in h.edge_set for e in obs.edges)


def dfs_first_cycle(hc):
    """Reference: the G-edge indices of the first directed cycle a depth-first search closes, in order."""
    sources, targets, labels = hc.contraction
    out = [[] for _ in range(hc.vertex_count)]
    for idx, s in enumerate(sources):
        out[s].append(idx)
    state = [0] * hc.vertex_count  # 0 unvisited, 1 on the stack, 2 done
    tree_path = []  # contracted-edge indices from the root to the vertex being visited

    def visit(v):
        state[v] = 1
        for idx in out[v]:
            t = targets[idx]
            if state[t] == 1:
                path = tree_path + [idx]
                return path[next(i for i, j in enumerate(path) if sources[j] == t):]
            if state[t] == 0:
                tree_path.append(idx)
                found = visit(t)
                if found:
                    return found
                tree_path.pop()
        state[v] = 2
        return None

    for root in range(hc.vertex_count):
        if state[root] == 0:
            found = visit(root)
            if found:
                return [labels[i] for i in found]
    return None


class TestCycleWalk:
    def test_walk_returns_the_closing_cycle(self):
        # 0 -> 1 -> 2 -> 3 -> 1: the edge out of 0 leads in but is not on the cycle.
        step = {0: (10, 1), 1: (11, 2), 2: (12, 3), 3: (13, 1)}
        assert _walk_to_cycle(0, step, set()) == [11, 12, 13]
        assert _walk_to_cycle(2, step, set()) == [12, 13, 11]
        assert _walk_to_cycle(5, {5: (7, 5)}, set()) == [7]

    def test_walk_stops_at_a_dead_end_or_an_earlier_walk(self):
        # 0 -> 1 -> 2, and 2 has no step: no cycle, and the walk marks 0 and 1.
        step = {0: (10, 1), 1: (11, 2), 3: (13, 1), 4: (14, 5), 5: (15, 4)}
        seen = set()
        assert _walk_to_cycle(0, step, seen) is None
        assert seen == {0, 1}
        # 3 -> 1 meets the earlier walk and stops there.
        assert _walk_to_cycle(3, step, seen) is None
        assert seen == {0, 1, 3}
        assert _walk_to_cycle(4, step, seen) == [14, 15]

    def test_directed_cycle_is_the_depth_first_cycle(self):
        # Read off Kahn's leftovers, the witness is the cycle a depth-first
        # search would have closed, edge for edge and in the same order.
        from rootpoly.crosscheck import all_dags, random_dags

        cycles = 0
        for g in [g for n in range(1, 5) for g in all_dags(n)] + random_dags(41, 6, 12, max_edges=9):
            for h in all_subgraphs(g):
                hc = build_hcomp(g, h)
                if hc.loop is None and hc.order is None:
                    assert _directed_cycle(hc) == dfs_first_cycle(hc)
                    cycles += 1
        assert cycles > 1000


class TestLooplessPartition:
    def test_matching_in_k4(self, k4):
        parts = loopless_partition(k4, k4.subgraph([(1, 2), (3, 4)]))
        assert parts == (frozenset({1, 2}), frozenset({3, 4}))

    def test_path_in_k3_has_loop(self, k3):
        assert loopless_partition(k3, k3.subgraph([(1, 2), (2, 3)])) is None

    def test_full_subgraph_gives_components(self, square_graph):
        parts = loopless_partition(square_graph, square_graph.full_subgraph())
        assert parts == (frozenset({1, 2, 3, 4}),)

    def test_agrees_with_loop_scan(self, k4):
        for h in all_subgraphs(k4):
            sources, targets, _ = build_hcomp(k4, h).contraction
            has_loop = any(s == t for s, t in zip(sources, targets))
            assert (loopless_partition(k4, h) is None) == has_loop


class TestPathConsistency:
    def test_triangle_not_consistent(self, k3):
        assert path_consistency(k3) is None

    def test_crossing_matching(self):
        h = validate(4, [(1, 3), (2, 4)])
        w = path_consistency(h)
        assert w.values == (0, 0, 1, 1)

    def test_alternating_graphs_are_consistent(self, square_graph):
        w = path_consistency(square_graph)
        assert w is not None
        assert all(w[v] == 0 for v in (1, 2)) and all(w[v] == 1 for v in (3, 4))

    def test_weight_steps_up_along_edges(self, k4):
        for h in all_subgraphs(k4):
            w = path_consistency(h)
            if w is None:
                continue
            for u, v in h.edges:
                assert w[u] + 1 == w[v]
            for part in undirected_components(h).members:
                assert min(w[v] for v in part) == 0

    def test_longer_chain(self):
        h = validate(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert path_consistency(h).values == (0, 1, 2, 3, 4)

    def test_backward_labelled_edge(self):
        h = validate(3, [(3, 1), (1, 2)])
        assert path_consistency(h).values == (1, 2, 0)


class TestAdmissibility:
    def test_square_pyramid_diagonal_inadmissible(self, square_graph):
        h = square_graph.subgraph([(1, 3), (2, 4)])
        w = path_consistency(h)
        assert not is_admissible(square_graph, h, w)

    def test_k3_single_skew_edge_admissible(self, k3):
        h = k3.subgraph([(1, 3)])
        w = path_consistency(h)
        assert is_admissible(k3, h, w)

    def test_acyclic_contraction_vacuous(self, k3):
        h = k3.subgraph([(1, 2)])
        w = path_consistency(h)
        assert is_admissible(k3, h, w)

    def test_shift_invariance(self, k4, square_graph):
        # Shifting the weights by a per-component constant never changes the
        # verdict: each component enters a cycle equally as source and target.
        rng = random.Random(7)
        for g in (k4, square_graph):
            for h in all_subgraphs(g):
                w = path_consistency(h)
                if w is None:
                    continue
                comps = undirected_components(h)
                base = is_admissible(g, h, w)
                for _ in range(3):
                    shifts = [rng.randint(-5, 5) for _ in range(comps.count)]
                    shifted = WeightFunction(
                        tuple(w[v] + shifts[comps.component(v)] for v in range(1, g.n + 1))
                    )
                    assert is_admissible(g, h, shifted) == base

    def test_obstruction_is_the_analysis_obstruction(self, k4, square_graph):
        # On a path-consistent H the analysis has no conflict to report, so
        # its q_obstruction is the inadmissible cycle or None.
        seen = set()
        for g in (k4, square_graph):
            for h in all_subgraphs(g):
                w = path_consistency(h)
                if w is None:
                    continue
                obs = admissibility_obstruction(g, h, w)
                assert obs == build_hcomp(g, h).q_obstruction()
                assert (obs is None) == is_admissible(g, h, w)
                seen.add(obs is None)
        assert seen == {True, False}


def check_inadmissible_witness(g, h, obs):
    """Check an inadmissible-cycle witness against H and its contraction alone.

    Its total is the weight decrease along its edges and at most -length.
    Every edge lies outside H, each edge's target component is the next
    edge's source, the last closes on the first, and no component repeats.
    """
    w = path_consistency(h)
    total = sum(w[u] - w[v] for u, v in obs.edges)
    assert total == obs.total and total <= -obs.length
    assert all(e in g.edge_set and e not in h.edge_set for e in obs.edges)
    comps = undirected_components(h)
    arcs = [(comps.component(u), comps.component(v)) for u, v in obs.edges]
    assert [b for _, b in arcs] == [a for a, _ in arcs[1:] + arcs[:1]]
    assert len({a for a, _ in arcs}) == len(arcs)


class TestQFace:
    def test_triangle_is_not_a_face_of_its_own_hull(self, k3):
        assert not is_q_face(k3, k3.full_subgraph())

    def test_ggp_pair_in_k4(self, k4):
        assert is_q_face(k4, k4.subgraph([(1, 2), (3, 4)]))
        assert is_q_face(k4, k4.subgraph([(1, 2), (1, 4), (3, 4)]))

    def test_square_is_a_face_of_the_pyramid(self, square_graph):
        assert is_q_face(square_graph, square_graph.full_subgraph())

    def test_empty_subgraph_is_the_empty_face(self, k3):
        assert is_q_face(k3, k3.empty_subgraph())

    def test_obstruction_agrees_with_predicate(self, k3, k4, square_graph):
        for g in (k3, k4, square_graph):
            for h in all_subgraphs(g):
                assert (q_obstruction(g, h) is None) == is_q_face(g, h)

    def test_conflict_obstruction_for_triangle(self, k3):
        obs = q_obstruction(k3, k3.full_subgraph())
        assert isinstance(obs, ConflictObstruction)
        assert obs.vertex == 3
        assert obs.existing != obs.implied

    def test_cycle_obstruction_for_diagonal(self, square_graph):
        h = square_graph.subgraph([(1, 3), (2, 4)])
        obs = q_obstruction(square_graph, h)
        assert isinstance(obs, InadmissibleCycleObstruction)
        assert set(obs.edges) == {(1, 4), (2, 3)}
        assert obs.total == -2 and obs.length == 2
        # The total is the sum of the weight decreases w(u) - w(v), each -1 here.
        w = path_consistency(h)
        assert [w[u] - w[v] for u, v in obs.edges] == [-1, -1]

    def test_cycle_obstructions_violate_the_bound(self, k4, square_graph):
        # Each reported cycle must be independently checkable.  The third
        # graph has witnesses of length 3, which fix the cycle's direction.
        longest = 0
        three = validate(7, [(1, 6), (1, 5), (1, 4), (6, 7), (6, 5), (6, 4), (7, 3), (5, 2), (5, 4), (2, 3)])
        for g in (k4, square_graph, three):
            for h in all_subgraphs(g):
                obs = q_obstruction(g, h)
                if isinstance(obs, InadmissibleCycleObstruction):
                    check_inadmissible_witness(g, h, obs)
                    longest = max(longest, obs.length)
        assert longest == 3

    def test_obstructions_on_random_graphs(self):
        from rootpoly.crosscheck import random_dags

        witnesses = 0
        for g in random_dags(4242, 7, 8, max_edges=9):
            for h in all_subgraphs(g):
                qo = q_obstruction(g, h)
                assert (tilde_obstruction(g, h) is None) == is_tilde_face(g, h)
                assert (qo is None) == is_q_face(g, h)
                if isinstance(qo, InadmissibleCycleObstruction):
                    witnesses += 1
                    check_inadmissible_witness(g, h, qo)
        assert witnesses > 0

    def test_transitively_closed_forces_alternating(self, k4):
        for h in all_subgraphs(k4):
            if is_q_face(k4, h):
                assert is_alternating(h)

    def test_relabeling_invariance(self):
        # The criteria are orientation-intrinsic: permuting vertex labels
        # never changes either answer.
        from rootpoly.crosscheck import random_dags

        rng = random.Random(31)
        for g in random_dags(31, 5, 6, max_edges=8):
            perm = list(range(1, g.n + 1))
            rng.shuffle(perm)
            relabel = {v: perm[v - 1] for v in range(1, g.n + 1)}
            g2 = Digraph(g.n, tuple((relabel[u], relabel[v]) for u, v in g.edges))
            for h in all_subgraphs(g):
                h2 = g2.subgraph([(relabel[u], relabel[v]) for u, v in h.edges])
                assert is_tilde_face(g, h) == is_tilde_face(g2, h2)
                assert is_q_face(g, h) == is_q_face(g2, h2)

    def test_edge_reversal_invariance(self):
        # Negating every point maps the polytope onto the reversed graph's
        # polytope, so faces correspond exactly.
        from rootpoly.crosscheck import random_dags

        for g in random_dags(37, 5, 6, max_edges=8):
            g2 = Digraph(g.n, tuple((v, u) for u, v in g.edges))
            for h in all_subgraphs(g):
                h2 = Subgraph(g2, h.mask)
                assert is_tilde_face(g, h) == is_tilde_face(g2, h2)
                assert is_q_face(g, h) == is_q_face(g2, h2)


def negative_loop_pair(seed, n=200, m=1000):
    """A random DAG and a subgraph whose contraction has a negative loop.

    Built as the benchmark's inadmissible-cycle query is: the maximisers of a
    random functional, which form a face without the origin, plus a path
    a -> b -> c that avoids them and leaves its shortcut a -> c out.  That
    shortcut is a loop of weight decrease w(a) - w(c) = -2, so Bellman-Ford
    lowers a potential in every round until it reports the cycle.
    """
    rng = random.Random(seed)
    order = rng.sample(range(1, n + 1), n)
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    g = validate(n, sorted(rng.sample(pairs, m)))
    c = [rng.randint(0, 3) for _ in range(n + 1)]
    best = max(c[u] - c[v] for u, v in g.edges)
    face = {(u, v) for u, v in g.edges if c[u] - c[v] == best}
    touched = {v for e in face for v in e}
    a, b, z = next((a, b, z) for a, z in g.edges for b in range(1, n + 1)
                   if {(a, b), (b, z)} <= g.edge_set and not touched & {a, b, z})
    return g, g.subgraph(face | {(a, b), (b, z)})


class TestEarlyNegativeCycle:
    """Bellman-Ford reads the negative cycle off its predecessor graph after
    the first round that has one, not after all k rounds."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_negative_loop_is_reported_within_two_rounds(self, monkeypatch, seed):
        from rootpoly import faces

        g, h = negative_loop_pair(seed)
        rounds = 0
        check = faces._predecessor_cycle

        def counting(hc, pred):
            nonlocal rounds
            rounds += 1
            return check(hc, pred)

        monkeypatch.setattr(faces, "_predecessor_cycle", counting)
        hc = build_hcomp(g, h)
        obs = hc.q_obstruction()
        assert isinstance(obs, InadmissibleCycleObstruction) and obs.total <= -obs.length
        assert hc.vertex_count > 100
        assert 1 <= rounds <= 2


class TestWitnessEdgesOnly:
    """A query's witness names only edges of G: outside H for a loop or cycle, in H for a path conflict."""

    @pytest.mark.parametrize("sub,origin,kind", [
        ([(1, 2)], "--with-origin", None),
        ([(1, 2), (3, 4)], "--without-origin", None),
        ([(1, 2), (2, 3)], "--with-origin", "loop"),
        ([(1, 3)], "--with-origin", "cycle"),
        ([(1, 2), (1, 3), (2, 3)], "--without-origin", "path-conflict"),
        ([(1, 3), (2, 4)], "--without-origin", "inadmissible-cycle"),
    ])
    def test_cli_check_on_k6(self, tmp_path, capsys, sub, origin, kind):
        import json

        from rootpoly.cli import main

        k6 = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
        (tmp_path / "g.txt").write_text(f"6 {len(k6)}\n" + "".join(f"{u} {v}\n" for u, v in k6))
        (tmp_path / "h.txt").write_text(f"6 {len(sub)}\n" + "".join(f"{u} {v}\n" for u, v in sub))
        code = main(["check", str(tmp_path / "g.txt"), str(tmp_path / "h.txt"), origin, "--json"])
        diagnostic = json.loads(capsys.readouterr().out).get("diagnostic", {})
        assert code == (0 if kind is None else 1) and diagnostic.get("kind") == kind
        # A loop names one edge, a path conflict the H-edge it met, and a cycle its own edges.
        if kind == "path-conflict":
            assert tuple(diagnostic["edge"]) in sub
        elif kind is not None:
            witness = [diagnostic["edge"]] if kind == "loop" else diagnostic["edges"]
            assert witness and all(tuple(e) in k6 and tuple(e) not in sub for e in witness)


class TestDimensions:
    def test_rhombus(self, k3):
        assert tilde_dimension(k3) == 2

    def test_square_face(self, square_graph):
        assert q_dimension_alternating(square_graph) == 2

    def test_edgeless_origin(self):
        assert tilde_dimension(validate(3, [])) == 0

    def test_non_alternating_rejected(self, k3):
        with pytest.raises(NotAlternatingError):
            q_dimension_alternating(k3)


class TestOneAnalysisPerPair:
    """Each (G, H) gets one breadth-first search, one contraction, one Kahn
    pass and one Bellman-Ford run, whatever is asked of it."""

    @pytest.fixture
    def stages(self, monkeypatch):
        import sys
        from collections import Counter

        counts = Counter()

        def counting(stage, fn):
            def wrapper(*args, **kwargs):
                counts[stage] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name, module in list(sys.modules.items()):
            if not name.startswith("rootpoly."):
                continue
            for attr, stage in (("undirected_components", "bfs"), ("sink_first_labels", "kahn"),
                                ("_bellman_ford", "bellman_ford")):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, counting(stage, vars(module)[attr]))
        contraction = HComp.__dict__["contraction"]
        monkeypatch.setattr(contraction, "func", counting("contraction", contraction.func))
        return counts

    @pytest.mark.parametrize("sub,origin,code", [
        ("3 1\n1 2\n", "--with-origin", 0),
        ("3 1\n1 2\n", "--without-origin", 0),
        ("3 1\n1 3\n", "--with-origin", 1),
        ("3 3\n1 2\n1 3\n2 3\n", "--without-origin", 1),
        ("3 0\n", "--without-origin", 0),
    ])
    def test_cli_check(self, tmp_path, capsys, stages, sub, origin, code):
        from rootpoly.cli import main

        (tmp_path / "g.txt").write_text("3 3\n1 2\n1 3\n2 3\n")
        (tmp_path / "h.txt").write_text(sub)
        assert main(["check", str(tmp_path / "g.txt"), str(tmp_path / "h.txt"), origin, "--json"]) == code
        capsys.readouterr()
        # One Kahn pass validates G as it is read.
        assert stages["bfs"] == 1 and stages["contraction"] <= 1
        assert stages["kahn"] <= 2 and stages["bellman_ford"] <= 1

    def test_check_graph(self, square_graph, stages):
        from rootpoly.crosscheck import check_graph
        from rootpoly.hull import enumerate_faces_bruteforce

        lattice = enumerate_faces_bruteforce(square_graph)
        report = check_graph(square_graph, lattice)
        assert report.ok and report.certificates > 0
        masks = 1 << len(square_graph.edges)
        assert stages["bfs"] == masks and stages["contraction"] <= masks
        assert stages["kahn"] <= masks and stages["bellman_ford"] <= masks
