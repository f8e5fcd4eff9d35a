import pytest
from conftest import edge_list_text, mutate_edge_list, tuple_components
from hypothesis import given, settings, strategies as st

import rootpoly.graphs as graphs
from rootpoly.graphs import (
    Digraph,
    DirectedCycleError,
    DuplicateEdgeError,
    EdgeNotInParentError,
    GraphError,
    NotAlternatingError,
    OverlappingPartsError,
    SelfLoopError,
    Subgraph,
    VertexRangeError,
    alternating_induced,
    bipartition,
    complete_graph,
    format_edge_list,
    induced,
    is_alternating,
    is_transitively_closed,
    load_digraph,
    load_subgraph,
    parse_digraph,
    parse_subgraph,
    strong_components,
    undirected_components,
    validate,
)


@st.composite
def dags(draw, max_n=6, p_skip=False):
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations(list(range(1, n + 1))))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Digraph(n, tuple(e for e, keep in zip(pairs, picks) if keep))


@st.composite
def sparse_dags(draw, max_n=12, max_m=8):
    """DAGs whose vertices may run past 2m, with two-digit labels."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    order = draw(st.permutations(list(range(1, n + 1))))
    pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_m)) if pairs else []
    return Digraph(n, tuple(edges))


def outcome(parse, text, *args):
    """What parse(text, *args) returns, or the type and message of what it raises."""
    try:
        return parse(text, *args)
    except Exception as exc:
        return type(exc), str(exc)


class TestValidate:
    def test_triangle(self):
        g = validate(3, [(1, 2), (1, 3), (2, 3)])
        assert g.n == 3 and g.edges == ((1, 2), (1, 3), (2, 3))

    def test_two_cycle_rejected(self):
        with pytest.raises(DirectedCycleError):
            validate(2, [(1, 2), (2, 1)])

    def test_square_pyramid_graph_valid(self):
        g = validate(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
        assert len(g.edges) == 4

    def test_longer_cycle_rejected(self):
        with pytest.raises(DirectedCycleError):
            validate(3, [(1, 2), (2, 3), (3, 1)])

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            validate(2, [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            validate(3, [(1, 2), (1, 2)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexRangeError):
            validate(2, [(1, 3)])
        with pytest.raises(VertexRangeError):
            validate(2, [(0, 1)])

    def test_nonpositive_vertex_count(self):
        with pytest.raises(VertexRangeError):
            validate(0, [])

    def test_vertex_count_above_the_limit(self):
        with pytest.raises(VertexRangeError, match=r"^vertex count an integer of 16,610 bits is above the limit"):
            validate(10**5000, [])
        with pytest.raises(VertexRangeError, match=f"^vertex count {graphs.MAX_VERTICES + 1} is above the limit"):
            validate(graphs.MAX_VERTICES + 1, [])
        assert validate(graphs.MAX_VERTICES, []).n == graphs.MAX_VERTICES

    def test_vertex_limit_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert Digraph(5, ()).n == 5
        with pytest.raises(VertexRangeError, match="vertex count 6 is above the limit of 5"):
            Digraph(6, ())

    def test_arbitrary_acyclic_labeling_accepted(self):
        g = validate(3, [(3, 1), (3, 2), (1, 2)])
        assert len(g.edges) == 3

    @pytest.mark.parametrize("edges,error,message", [
        ([(1, 2), (1, 2), (3, 3)], DuplicateEdgeError, "duplicate edge (1, 2)"),
        ([(1, 1), (1, 2), (1, 2)], SelfLoopError, "self-loop at vertex 1"),
        ([(2, 1), (1, 4), (1, 1)], VertexRangeError, "edge (1, 4) leaves the vertex range 1..3"),
        ([(1, 2), (2, 1), (3, 3)], SelfLoopError, "self-loop at vertex 3"),
    ])
    def test_first_fault_in_edge_order_wins(self, edges, error, message):
        text = f"3 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
        for build in (lambda: validate(3, edges), lambda: parse_digraph(text)):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message


class TestDerivedViews:
    def test_subgraph_keeps_the_edge_index(self):
        g = validate(4, [(1, 3), (4, 2), (1, 2)])
        index = g.edge_index
        assert index == {(1, 3): 0, (4, 2): 1, (1, 2): 2}
        g.subgraph([(4, 2)])
        g.subgraph([(1, 2), (1, 3)])
        assert g.edge_index is index

    def test_left_out_of_comparison_repr_and_pickling(self):
        import pickle

        g = validate(3, [(1, 2), (2, 3)])
        assert repr(g) == "Digraph(n=3, edges=((1, 2), (2, 3)))"
        assert g == Digraph(3, ((1, 2), (2, 3))) and hash(g) == hash(Digraph(3, ((1, 2), (2, 3))))
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.edge_index == g.edge_index

    def test_arcs_are_the_edges_on_vertices_from_0(self):
        import pickle

        g = validate(4, [(1, 3), (4, 2), (1, 2)])
        assert g.arcs == ((0, 2), (3, 1), (0, 1)) == pickle.loads(pickle.dumps(g)).arcs


class TestSerialization:
    def test_round_trip_triangle(self, k3):
        assert parse_digraph(format_edge_list(k3)) == k3

    def test_subgraph_round_trip(self, k3):
        h = k3.subgraph([(1, 2), (2, 3)])
        assert parse_subgraph(format_edge_list(h), k3) == h

    def test_subgraph_vertex_count_must_match(self, k3):
        with pytest.raises(GraphError):
            parse_subgraph("2 1\n1 2\n", k3)

    def test_edge_not_in_parent(self, k3):
        with pytest.raises(EdgeNotInParentError):
            parse_subgraph("3 1\n2 1\n", k3)

    def test_bad_header(self):
        with pytest.raises(GraphError):
            parse_digraph("3\n")
        with pytest.raises(GraphError):
            parse_digraph("3 2\n1 2\n")

    def test_header_vertex_bound(self, monkeypatch):
        import rootpoly.graphs as graphs

        monkeypatch.setattr(graphs, "MAX_VERTICES", 5)
        assert parse_digraph("5 1\n1 5\n").n == 5
        with pytest.raises(GraphError, match="6 vertices, above the limit of 5"):
            parse_digraph("6 0\n")

    @given(dags())
    def test_round_trip_random(self, g):
        assert parse_digraph(format_edge_list(g)) == g

    @settings(max_examples=250, deadline=None)
    @given(sparse_dags(), st.data())
    def test_any_text_reads_as_through_the_loop(self, g, data):
        # A blank line in front keeps text off the canonical fast path, so
        # both readings must agree on the result or on the error raised.
        # H's rows may repeat an edge of G or reverse one, which G lacks.
        rows = g.edges + tuple((v, u) for u, v in g.edges)
        order = data.draw(st.lists(st.sampled_from(rows), max_size=6) if rows else st.just([]))
        assert outcome(parse_subgraph, edge_list_text(g.n, order), g) == outcome(g.subgraph, order)
        rng = data.draw(st.randoms(use_true_random=False))
        g_text = mutate_edge_list(format_edge_list(g), rng, data.draw(st.integers(0, 3)))
        h_text = mutate_edge_list(edge_list_text(g.n, order), rng, data.draw(st.integers(0, 3)))
        limit = data.draw(st.sampled_from([graphs.MAX_VERTICES, g.n - 1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "MAX_VERTICES", limit)
            assert outcome(parse_digraph, g_text) == outcome(parse_digraph, "\n" + g_text)
            assert outcome(parse_subgraph, h_text, g) == outcome(parse_subgraph, "\n" + h_text, g)

    @pytest.mark.parametrize("rows,error,message", [
        ([(2, 1), (1, 2)], EdgeNotInParentError, "edge (2, 1) is not an edge of the parent graph"),
        ([(1, 2), (2, 3), (1, 2), (3, 1)], DuplicateEdgeError, "duplicate edge (1, 2)"),
        ([(2, 3), (1, 3), (2, 3)], DuplicateEdgeError, "duplicate edge (2, 3)"),
        ([(1, 2), (3, 2), (2, 3), (2, 3)], EdgeNotInParentError, "edge (3, 2) is not an edge of the parent graph"),
    ])
    def test_first_missing_or_repeated_edge_raises(self, k3, rows, error, message):
        for build in (lambda: parse_subgraph(edge_list_text(3, rows), k3), lambda: k3.subgraph(rows)):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message

    @pytest.mark.parametrize("parse,text,error,length", [
        (parse_digraph, "3 1\n1 " + "9" * 5000 + "\n", GraphError, "5,002"),
        (parse_digraph, "3 1\n1 " + "9" * 4000 + "\n", VertexRangeError, "4,000"),
        (parse_digraph, "9" * 4000 + " 0\n", GraphError, "4,000"),
        (parse_digraph, "3 1\n" + "1 2 " * 100_000 + "\n", GraphError, "399,999"),
        (parse_digraph, "3 " + "9" * 4000 + "\n1 2\n", GraphError, "4,000"),
        (parse_subgraph, "3 1\n1 " + "9" * 4000 + "\n", EdgeNotInParentError, "4,000"),
    ], ids=["edge-token", "vertex", "header-n", "row", "header-m", "subgraph-vertex"])
    def test_messages_clip_long_input(self, k3, parse, text, error, length):
        args = (k3,) if parse is parse_subgraph else ()
        with pytest.raises(error) as info:
            parse(text, *args)
        message = str(info.value)
        assert len(message) < 200 and message.count("...") == 1 and f"({length} characters)" in message, message

    def test_code_callers_may_pass_lists_and_strings(self, k3):
        assert k3.subgraph([[1, 2], ("2", "3")]) == k3.subgraph([(1, 2), (2, 3)])

    def test_load_digraph_rejects_non_ascii(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes("3 1\n1 2 \u00e9\n".encode("utf-8"))
        with pytest.raises(GraphError, match="byte 8 is not ASCII"):
            load_digraph(path)

    def test_load_subgraph_rejects_non_ascii(self, k3, tmp_path):
        path = tmp_path / "h.txt"
        path.write_bytes(b"3 1\n1 2\xff\n")
        with pytest.raises(GraphError, match="byte 7 is not ASCII"):
            load_subgraph(path, k3)


class TestComponents:
    def test_two_matching_edges(self):
        g = validate(4, [(1, 2), (3, 4)])
        c = undirected_components(g)
        assert c.count == 2
        assert c.members == ((1, 2), (3, 4))

    def test_edgeless(self):
        c = undirected_components(validate(3, []))
        assert c.count == 3

    def test_crossing_matching(self):
        c = undirected_components(validate(4, [(1, 3), (2, 4)]))
        assert c.count == 2
        assert c.members == ((1, 3), (2, 4))

    def test_ids_deterministic(self):
        c = undirected_components(validate(5, [(4, 5), (1, 2)]))
        assert c.component(1) == 0 and c.component(4) == 2 and c.component(3) == 1

    @given(dags(), st.data())
    def test_matches_the_tuple_search(self, g, data):
        # Signed adjacency entries must give the labels and the first conflict
        # of one (neighbour, step, edge) tuple per entry, on G and on any H.
        mask = data.draw(st.sets(st.integers(0, len(g.edges) - 1)) if g.edges else st.just(set()))
        for graph in (g, Subgraph(g, frozenset(mask))):
            got, want = undirected_components(graph), tuple_components(graph)
            assert (got, got.labels, got.conflict) == (want, want.labels, want.conflict)

    @given(dags())
    def test_reversing_edges_preserves_components(self, g):
        rev = Digraph(g.n, tuple((v, u) for u, v in g.edges))
        assert undirected_components(g) == undirected_components(rev)


class TestStrongComponents:
    def test_cycle_with_a_tail(self):
        comp, count = strong_components(5, [(0, 1), (1, 2), (2, 0), (2, 3), (4, 3)])
        assert count == 3
        assert comp[0] == comp[1] == comp[2]
        assert len({comp[0], comp[3], comp[4]}) == 3

    def test_no_arcs(self):
        assert strong_components(3, []) == ([0, 1, 2], 3)

    def test_long_cycle_needs_no_recursion(self):
        k = 20_000
        comp, count = strong_components(k, [(v, (v + 1) % k) for v in range(k)])
        assert count == 1 and set(comp) == {0}

    @given(dags())
    def test_a_dag_with_its_reversed_subgraph_joins_its_components(self, g):
        # Each edge together with its reverse is a 2-cycle: the strong
        # components are then the undirected components.
        arcs = [(u - 1, v - 1) for u, v in g.edges]
        comp, count = strong_components(g.n, arcs + [(v, u) for u, v in arcs])
        c = undirected_components(g)
        assert count == c.count
        assert all((comp[u - 1] == comp[v - 1]) == (c.component(u) == c.component(v))
                   for u in range(1, g.n + 1) for v in range(1, g.n + 1))

    @given(dags())
    def test_a_dag_has_only_singletons(self, g):
        assert strong_components(g.n, [(u - 1, v - 1) for u, v in g.edges])[1] == g.n


class TestAlternating:
    def test_square_graph(self, square_graph):
        assert is_alternating(square_graph)

    def test_triangle_not(self, k3):
        assert not is_alternating(k3)

    def test_empty(self):
        assert is_alternating(validate(3, []))

    def test_bipartition_two_sources(self):
        g = validate(3, [(1, 3), (2, 3)])
        assert bipartition(g) == (frozenset({1, 2}), frozenset({3}))

    def test_bipartition_square(self, square_graph):
        assert bipartition(square_graph) == (frozenset({1, 2}), frozenset({3, 4}))

    def test_bipartition_triangle_raises(self, k3):
        with pytest.raises(NotAlternatingError):
            bipartition(k3)

    def test_isolated_vertices_go_left(self):
        g = validate(4, [(2, 3)])
        left, right = bipartition(g)
        assert 1 in left and 4 in left

    @given(dags())
    def test_bipartition_edges_run_left_to_right(self, g):
        if not is_alternating(g):
            return
        left, right = bipartition(g)
        assert left | right == set(range(1, g.n + 1))
        assert not (left & right)
        for u, v in g.edges:
            assert u in left and v in right


class TestTransitivelyClosed:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_graphs(self, n):
        assert is_transitively_closed(complete_graph(n))

    def test_path_not_closed(self):
        assert not is_transitively_closed(validate(3, [(1, 2), (2, 3)]))

    def test_alternating_vacuously_closed(self, square_graph):
        assert is_transitively_closed(square_graph)


class TestInduced:
    def test_alternating_induced_k5(self):
        h = alternating_induced(complete_graph(5), {1, 3}, {2, 5})
        assert h.edge_set == {(1, 2), (1, 5), (3, 5)}

    def test_alternating_induced_k4(self):
        h = alternating_induced(complete_graph(4), {1, 3}, {2, 4})
        assert h.edge_set == {(1, 2), (1, 4), (3, 4)}

    def test_empty_left_part(self, k4):
        assert alternating_induced(k4, set(), {1, 2}).edge_set == frozenset()

    def test_overlap_rejected(self, k4):
        with pytest.raises(OverlappingPartsError):
            alternating_induced(k4, {1, 2}, {2, 3})

    @given(dags(), st.sets(st.integers(1, 6)), st.sets(st.integers(1, 6)))
    def test_alternating_induced_is_alternating(self, g, left, right):
        left = {v for v in left if v <= g.n}
        right = {v for v in right if v <= g.n} - left
        assert is_alternating(alternating_induced(g, left, right))

    def test_induced_on_subset(self, k4):
        assert induced(k4, {1, 2, 4}).edge_set == {(1, 2), (1, 4), (2, 4)}

    def test_complete_graph_edge_order(self):
        assert complete_graph(3).edges == ((1, 2), (1, 3), (2, 3))
