"""Coloring normalization plus proper- and TD-coloring checkers."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdcolor import families as fam
from tdcolor.coloring import (
    Coloring,
    is_proper,
    is_td_coloring,
    normalize,
)
from tdcolor.solvers import is_total_dominating_set

from util_graphs import graphs


def col(*colors: int) -> Coloring:
    return Coloring(tuple(colors))


class TestIsProper:
    def test_path_alternating(self):
        assert is_proper(fam.path_graph(3), col(1, 2, 1))

    def test_monochromatic_edge(self):
        assert not is_proper(fam.path_graph(2), col(1, 1))

    def test_no_edges_always_proper(self):
        assert is_proper(fam.empty_graph(3), col(1, 1, 1))

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="entries"):
            is_proper(fam.path_graph(3), col(1, 2))


class TestIsTdColoring:
    def test_path4_three_colors(self):
        assert is_td_coloring(fam.path_graph(4), col(1, 2, 3, 1))

    def test_path4_two_colors(self):
        assert not is_td_coloring(fam.path_graph(4), col(1, 2, 1, 2))

    def test_cycle4_alternating(self):
        assert is_td_coloring(fam.cycle_graph(4), col(1, 2, 1, 2))

    def test_improper_is_not_td(self):
        assert not is_td_coloring(fam.path_graph(2), col(1, 1))

    def test_isolated_vertex_never_td(self):
        g = fam.empty_graph(2)
        for colors in itertools.product((1, 2), repeat=2):
            assert not is_td_coloring(g, Coloring(colors))


class TestNormalize:
    @pytest.mark.parametrize(
        "before,after",
        [
            ((3, 1, 3), (1, 2, 1)),
            ((1, 2, 1), (1, 2, 1)),
            ((5, 5, 7, 2), (1, 1, 2, 3)),
        ],
    )
    def test_examples(self, before, after):
        assert normalize(Coloring(before)).colors == after

    def test_invalid_color_rejected(self):
        with pytest.raises(ValueError, match="invalid color"):
            Coloring((0, 1))


def _coloring_for(draw_colors, n: int):
    return st.tuples(*[st.integers(1, max(1, n)) for _ in range(n)])


@st.composite
def graph_and_coloring(draw):
    g = draw(graphs(min_vertices=1, max_vertices=7))
    colors = draw(st.tuples(*[st.integers(1, g.vertex_count) for _ in range(g.vertex_count)]))
    return g, Coloring(colors)


@given(graph_and_coloring())
def test_td_implies_proper(gc):
    g, c = gc
    if is_td_coloring(g, c):
        assert is_proper(g, c)


@given(graph_and_coloring(), st.randoms(use_true_random=False))
def test_td_invariant_under_color_permutation(gc, rng):
    g, c = gc
    used = sorted(set(c.colors))
    shuffled = used[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(used, shuffled))
    permuted = Coloring(tuple(mapping[x] for x in c.colors))
    assert is_td_coloring(g, c) == is_td_coloring(g, permuted)


@given(graph_and_coloring())
def test_normalize_idempotent_and_td_preserving(gc):
    g, c = gc
    once = normalize(c)
    assert normalize(once) == once
    assert once.num_colors == c.num_colors
    assert is_td_coloring(g, once) == is_td_coloring(g, c)


@given(graph_and_coloring())
def test_isolated_vertex_blocks_td(gc):
    g, c = gc
    if g.has_isolated_vertex():
        assert not is_td_coloring(g, c)


@given(graph_and_coloring(), st.data())
def test_checkers_match_definition(gc, data):
    g, c = gc
    n = g.vertex_count
    edges = set(g.edges())

    def adjacent(u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in edges

    classes: dict[int, set[int]] = {}
    for v, color in enumerate(c.colors):
        classes.setdefault(color, set()).add(v)
    assert list(c.classes().items()) == sorted((k, frozenset(m)) for k, m in classes.items())
    proper = all(c.colors[u] != c.colors[v] for u, v in edges)
    dominated = all(
        any(all(adjacent(v, w) for w in members) for members in classes.values())
        for v in range(n)
    )
    assert is_proper(g, c) == proper
    assert is_td_coloring(g, c) == (proper and dominated)
    s = data.draw(st.sets(st.integers(0, n - 1)))
    assert is_total_dominating_set(g, s) == all(any(adjacent(v, w) for w in s) for v in range(n))
