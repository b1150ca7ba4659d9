"""Exact solver behavior: values, witnesses, budgets, oracle equivalence."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from tdcolor import families as fam
from tdcolor import harness
from tdcolor.coloring import Coloring, is_proper, is_td_coloring
from tdcolor.expr import parse_expr
from tdcolor.graph import Graph
from tdcolor.solvers import (
    BudgetExhaustedError,
    SolveOptions,
    _Budget,
    chromatic_number,
    is_total_dominating_set,
    td_chromatic_number,
    td_chromatic_oracle,
    total_domination_number,
)

from util_graphs import (
    brute_force_chromatic,
    brute_force_gamma_t,
    connected_graphs,
    random_connected_graph,
    reference_chromatic_search,
    reference_td_oracle,
    reference_total_dom_search,
)


class TestChromaticNumber:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (fam.complete_graph(4), 4),
            (fam.cycle_graph(5), 3),
            (fam.grid(3, 4), 2),
            (fam.empty_graph(3), 1),
            (fam.empty_graph(0), 0),
            (fam.path_graph(1), 1),
        ],
    )
    def test_known_values(self, g, expected):
        res = chromatic_number(g)
        assert res.value == expected
        assert is_proper(g, res.witness)
        assert res.witness.num_colors == expected

    def test_matches_brute_force_on_tiny_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng, lo=2, hi=6)
            assert chromatic_number(g).value == brute_force_chromatic(g)


class TestTotalDominatingSet:
    def test_examples(self):
        assert is_total_dominating_set(fam.cycle_graph(4), {0, 1})
        assert is_total_dominating_set(fam.path_graph(4), {1, 2})
        assert not is_total_dominating_set(fam.path_graph(4), {0, 3})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            is_total_dominating_set(fam.path_graph(2), {5})


class TestTotalDominationNumber:
    def test_two_vertices(self):
        assert total_domination_number(fam.path_graph(2)).value == 2

    def test_path4(self):
        # brute force over all subsets alongside the frozen value
        g = fam.path_graph(4)
        assert brute_force_gamma_t(g) == 2
        res = total_domination_number(g)
        assert res.value == 2
        assert is_total_dominating_set(g, res.witness)

    def test_cycle6(self):
        g = fam.cycle_graph(6)
        assert brute_force_gamma_t(g) == 4
        assert total_domination_number(g).value == 4

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            total_domination_number(fam.empty_graph(2))

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_graph(rng, lo=2, hi=8)
            assert total_domination_number(g).value == brute_force_gamma_t(g)


class TestTdChromaticNumber:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (fam.path_graph(4), 3),
            (fam.complete_graph(4), 4),
            (fam.cycle_graph(4), 2),
            (fam.path_graph(2), 2),
        ],
    )
    def test_known_values(self, g, expected):
        res = td_chromatic_number(g)
        assert res.value == expected
        assert is_td_coloring(g, res.witness)
        assert res.witness.num_colors == expected

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError, match="at least 2"):
            td_chromatic_number(fam.complete_graph(1))

    def test_rejects_isolated_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="isolated"):
            td_chromatic_number(g)

    def test_bounds_bracket_value(self):
        for g in (fam.cycle_graph(7), fam.grid(3, 3), fam.friendship_family(4, 2)):
            res = td_chromatic_number(g)
            assert res.lower_bound_used <= res.value <= res.upper_bound_used

    def test_deterministic(self):
        g = fam.grid(3, 3)
        a = td_chromatic_number(g)
        b = td_chromatic_number(g)
        assert (a.value, a.witness, a.nodes_explored) == (b.value, b.witness, b.nodes_explored)

    def test_disconnected_graph_supported(self):
        # two disjoint edges force four singleton-witness colors
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert td_chromatic_number(g).value == 4


class TestOracle:
    @pytest.mark.parametrize(
        "g,expected",
        [
            (fam.path_graph(3), 2),
            (fam.friendship_family(3, 2), 3),
            (fam.cycle_graph(7), 5),
        ],
    )
    def test_known_values(self, g, expected):
        res = td_chromatic_oracle(g)
        assert res.value == expected
        assert is_td_coloring(g, res.witness)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            td_chromatic_oracle(fam.path_graph(11))

    def test_cap_configurable(self):
        assert td_chromatic_oracle(fam.path_graph(11), cap=11).value == 7

    def test_rejects_isolated(self):
        with pytest.raises(ValueError, match="isolated"):
            td_chromatic_oracle(fam.empty_graph(3))

    def test_default_suite_partition_count(self):
        # the verify suite calls the oracle on every instance within the cap
        graphs = [fam.realize(parse_expr(text)) for text in harness.default_suite().instances]
        small = [g for g in graphs if g.vertex_count <= 10]
        assert len(small) == 66
        assert sum(td_chromatic_oracle(g).nodes_explored for g in small) == 115_703


class TestSearchNodeTotals:
    """Node totals of the three searches, each instance solved alone.

    Totals, not rows: a single small graph may take a node or two more than
    under the static-order searches (corona(C(5),K(1)): 33 -> 35 total
    domination nodes), while the TD k-loop tree must not change at all.
    """

    def test_default_suite(self):
        chi = dom = kloop = 0
        for text in harness.default_suite().instances:
            g = fam.realize(parse_expr(text))
            c = chromatic_number(g).nodes_explored
            d = total_domination_number(g).nodes_explored
            chi += c
            dom += d
            kloop += td_chromatic_number(g).nodes_explored - c - d
        # the static-order searches took 157 chromatic and 5,080 domination nodes
        assert (chi, dom, kloop) == (100, 956, 27_190)

    def test_bounds_total_domination(self):
        # the benchmark's sparse family members; 3,834,246 nodes by subset order
        texts = ("P(32)", "C(32)", "G(5,6)", "O(10)", "D(5,7)", "L(14)")
        results = [total_domination_number(fam.realize(parse_expr(t))) for t in texts]
        assert [r.value for r in results] == [16, 16, 10, 11, 15, 10]
        assert sum(r.nodes_explored for r in results) == 51_575


class TestClosedFormDeviations:
    """Orders where the built-in path/cycle closed forms disagree with search.

    Both routes (branch-and-bound solver and full partition enumeration)
    agree on these values, so the deviation is in the closed forms.
    """

    def test_path_11_is_7(self):
        g = fam.path_graph(11)
        assert td_chromatic_number(g).value == 7
        assert td_chromatic_oracle(g, cap=11).value == 7

    def test_cycle_10_is_7(self):
        g = fam.cycle_graph(10)
        assert td_chromatic_number(g).value == 7
        assert td_chromatic_oracle(g).value == 7


class TestBudgets:
    def test_node_budget_exhaustion(self):
        with pytest.raises(BudgetExhaustedError) as err:
            td_chromatic_number(fam.grid(4, 4), SolveOptions(node_budget=50))
        assert err.value.nodes_explored > 50 - 1

    def test_time_budget_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(time_budget=0)

    def test_node_budget_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(node_budget=-1)

    def test_generous_budget_succeeds(self):
        res = td_chromatic_number(fam.path_graph(6), SolveOptions(node_budget=10**6))
        assert res.value == 4


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8))
def test_oracle_equivalence(g: Graph):
    assert td_chromatic_number(g).value == td_chromatic_oracle(g).value


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8))
def test_oracle_matches_reference_oracle(g: Graph):
    fast, ref = td_chromatic_oracle(g), reference_td_oracle(g)
    assert (fast.value, fast.witness, fast.nodes_explored) == (
        ref.value,
        ref.witness,
        ref.nodes_explored,
    )


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_chromatic_matches_reference_search(g: Graph):
    res = chromatic_number(g)
    assert res.value == reference_chromatic_search(g, _Budget(None))[0]
    assert is_proper(g, res.witness)
    assert res.witness.num_colors == res.value


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_total_domination_matches_reference_search(g: Graph):
    res = total_domination_number(g)
    assert res.value == reference_total_dom_search(g, _Budget(None))[0]
    assert is_total_dominating_set(g, res.witness)
    assert len(set(res.witness)) == res.value


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8))
def test_sandwich_bounds_hold(g: Graph):
    chi = chromatic_number(g).value
    gamma = total_domination_number(g).value
    value = td_chromatic_number(g).value
    assert max(chi, gamma) <= value <= gamma + chi


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8))
def test_witnesses_verify(g: Graph):
    td = td_chromatic_number(g)
    assert is_td_coloring(g, td.witness)
    ch = chromatic_number(g)
    assert is_proper(g, ch.witness)
    dom = total_domination_number(g)
    assert is_total_dominating_set(g, dom.witness)
    assert len(dom.witness) == dom.value


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=7))
def test_witness_color_relabeling_keeps_verdict(g: Graph):
    witness = td_chromatic_number(g).witness
    assert isinstance(witness, Coloring)
    shifted = Coloring(tuple(c + 3 for c in witness.colors))
    assert is_td_coloring(g, shifted)
