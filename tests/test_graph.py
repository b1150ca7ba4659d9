"""Graph construction, queries, DIMACS round-trips and canonical keys."""

from __future__ import annotations

import pytest
from hypothesis import given

from tdcolor.graph import DimacsError, Graph
from tdcolor import families as fam

from util_graphs import graphs


class TestFromEdges:
    def test_single_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert g.vertex_count == 2
        assert g.edge_count == 1

    def test_duplicates_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 1)])
        assert g.edge_count == 2
        assert g == fam.path_graph(3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(1, [(0, 0)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out"):
            Graph.from_edges(2, [(0, 2)])

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.vertex_count == 0
        assert g.edge_count == 0


class TestDirectConstruction:
    def test_masks_of_a_path(self):
        assert Graph(3, (0b010, 0b101, 0b010)) == fam.path_graph(3)

    @pytest.mark.parametrize(
        "n,masks,message",
        [
            (-1, (), "vertex count must be non-negative"),
            (2, (0b10,), "mask count does not match vertex count"),
            (2, (-2, 0b01), "neighbor mask of vertex 0 is negative"),
            (2, (0b110, 0b001), "neighbor 2 of vertex 0 out of range"),
            (2, (0b11, 0b01), "self-loop at vertex 0"),
            (3, (0b010, 0b000, 0b000), "asymmetric edge (0, 1)"),
            (3, (0b000, 0b001, 0b000), "asymmetric edge (1, 0)"),
        ],
    )
    def test_malformed_rejected(self, n: int, masks: tuple[int, ...], message: str):
        with pytest.raises(ValueError) as err:
            Graph(n, masks)
        assert str(err.value) == message


class TestQueries:
    def test_neighbors_cycle(self):
        c4 = fam.cycle_graph(4)
        assert c4.neighbors(0) == frozenset({1, 3})

    def test_neighbors_complete(self):
        k4 = fam.complete_graph(4)
        assert k4.neighbors(2) == frozenset({0, 1, 3})

    def test_neighbors_empty(self):
        assert fam.empty_graph(3).neighbors(0) == frozenset()

    def test_neighbors_out_of_range(self):
        with pytest.raises(ValueError):
            fam.path_graph(3).neighbors(3)

    def test_is_connected(self):
        assert fam.path_graph(5).is_connected()
        assert not fam.empty_graph(2).is_connected()
        assert fam.friendship_family(3, 3).is_connected()
        assert fam.empty_graph(0).is_connected()
        assert fam.empty_graph(1).is_connected()

    def test_has_isolated_vertex(self):
        assert fam.empty_graph(3).has_isolated_vertex()
        assert not fam.cycle_graph(5).has_isolated_vertex()
        assert Graph.from_edges(3, [(0, 1)]).has_isolated_vertex()


class TestDimacs:
    def test_exact_output(self):
        assert fam.path_graph(3).to_dimacs() == "p edge 3 2\ne 1 2\ne 2 3\n"

    def test_round_trip(self):
        c6 = fam.cycle_graph(6)
        assert Graph.from_dimacs(c6.to_dimacs()) == c6

    def test_edge_out_of_range(self):
        with pytest.raises(DimacsError, match="out of range"):
            Graph.from_dimacs("p edge 2 1\ne 1 3\n")

    def test_malformed_header(self):
        with pytest.raises(DimacsError, match="problem line"):
            Graph.from_dimacs("p edges 2 1\ne 1 2\n")

    def test_missing_header(self):
        with pytest.raises(DimacsError, match="problem line"):
            Graph.from_dimacs("e 1 2\n")
        with pytest.raises(DimacsError, match="missing problem line"):
            Graph.from_dimacs("c only a comment\n")

    def test_declared_count_mismatch(self):
        with pytest.raises(DimacsError, match="declares"):
            Graph.from_dimacs("p edge 3 2\ne 1 2\n")

    def test_comments_ignored(self):
        text = "c a comment\np edge 2 1\nc another\ne 1 2\n"
        assert Graph.from_dimacs(text) == fam.path_graph(2)

    def test_unknown_line_rejected(self):
        with pytest.raises(DimacsError, match="unrecognized"):
            Graph.from_dimacs("p edge 2 1\nx 1 2\n")

    def test_reversed_duplicate_edge_collapses(self):
        assert Graph.from_dimacs("p edge 2 1\ne 1 2\ne 2 1\n") == fam.path_graph(2)


@pytest.mark.parametrize(
    "text,message",
    [
        ("p edge 2 1\np edge 2 1\n", "duplicate problem line"),
        ("p edges 2 1\n", "malformed problem line: 'p edges 2 1'"),
        ("p edge 2\n", "malformed problem line: 'p edge 2'"),
        ("p edge two 1\n", "malformed problem line: 'p edge two 1'"),
        ("p edge -2 1\n", "negative counts in problem line: 'p edge -2 1'"),
        ("p edge 2 -1\n", "negative counts in problem line: 'p edge 2 -1'"),
        ("e 1 2\np edge 2 1\n", "edge line before problem line"),
        ("p edge 2 1\ne 1\n", "malformed edge line: 'e 1'"),
        ("p edge 2 1\ne 1 x\n", "malformed edge line: 'e 1 x'"),
        ("p edge 2 1\ne 1 3\n", "edge (1, 3) out of range 1..2"),
        ("p edge 2 1\ne 0 1\n", "edge (0, 1) out of range 1..2"),
        ("p edge 2 1\ne 2 2\n", "self-loop edge at vertex 2"),
        ("p edge 2 1\nx 1 2\n", "unrecognized line: 'x 1 2'"),
        ("p edge 2 1\n  x 1 2 \n", "unrecognized line: 'x 1 2'"),
        ("c only a comment\n", "missing problem line"),
        ("p edge 3 2\ne 1 2\n", "problem line declares 2 edges, found 1 distinct"),
        ("p edge 2 2\ne 1 2\ne 2 1\n", "problem line declares 2 edges, found 1 distinct"),
    ],
)
def test_dimacs_error_message(text: str, message: str):
    with pytest.raises(DimacsError) as err:
        Graph.from_dimacs(text)
    assert str(err.value) == message


class TestCanonicalKey:
    def test_deterministic(self):
        assert fam.path_graph(3).canonical_key() == fam.path_graph(3).canonical_key()

    def test_distinguishes_labeled_graphs(self):
        assert fam.path_graph(3).canonical_key() != fam.cycle_graph(3).canonical_key()

    def test_empty_graph_fixed(self):
        assert fam.empty_graph(0).canonical_key() == fam.empty_graph(0).canonical_key()

    def test_edge_order_irrelevant(self):
        a = Graph.from_edges(4, [(0, 1), (2, 3), (1, 2)])
        b = Graph.from_edges(4, [(1, 2), (0, 1), (2, 3)])
        assert a.canonical_key() == b.canonical_key()


@given(graphs())
def test_adjacency_invariants(g: Graph):
    n = g.vertex_count
    assert len(g.masks) == n
    for v in range(n):
        nbrs = g.neighbors(v)
        assert nbrs == {u for u in range(n) if g.masks[v] >> u & 1}
        assert g.degree(v) == len(nbrs)
        assert v not in nbrs
        assert nbrs <= frozenset(range(n))
        for u in nbrs:
            assert v in g.neighbors(u)
    assert g.edges() == [
        (u, v) for u in range(n) for v in range(u + 1, n) if g.masks[u] >> v & 1
    ]


@given(graphs())
def test_dimacs_round_trip_fixpoint(g: Graph):
    text = g.to_dimacs()
    again = Graph.from_dimacs(text)
    assert again == g
    assert again.to_dimacs() == text


@given(graphs())
def test_edge_count_matches_edges(g: Graph):
    assert len(g.edges()) == g.edge_count
    assert all(u < v for u, v in g.edges())
