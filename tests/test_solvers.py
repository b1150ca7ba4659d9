"""Exact solver behavior: values, witnesses, budgets, oracle equivalence."""

from __future__ import annotations

import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcolor import families as fam
from tdcolor import harness, solvers
from tdcolor.coloring import Coloring, is_proper, is_td_coloring, normalize
from tdcolor.expr import parse_expr
from tdcolor.graph import Graph
from tdcolor.solvers import (
    BudgetExhaustedError,
    SolveOptions,
    _automorphisms,
    _Budget,
    _can_cover,
    _neighbor_masks,
    _Symmetry,
    chromatic_number,
    is_total_dominating_set,
    td_chromatic_bounds,
    td_chromatic_number,
    td_chromatic_oracle,
    total_domination_number,
)

from util_graphs import (
    BOUNDS_TOTALDOM,
    FRONTIER,
    FRONTIER_ROUNDS_PATH,
    RANDOM_ROUNDS_PATH,
    RANDOM_ROUNDS_SEEDS,
    TOTALDOM_PHASE,
    TOTALDOM_PHASE_PATH,
    bipartite_graphs,
    brute_force_chromatic,
    brute_force_gamma_t,
    connected_graphs,
    graphs,
    pendant_graphs,
    planted_graph,
    random_connected_graph,
    reference_capacity_td_exact_k,
    reference_chromatic_search,
    reference_degree_bound_dom_search,
    reference_dsatur_proper_exact_k,
    reference_gain_sum_can_cover,
    reference_gain_sum_dom_search,
    reference_idle_td_exact_k,
    reference_order_clique_chromatic_search,
    reference_td_exact_k,
    reference_td_oracle,
    reference_total_dom_search,
    reference_value_order_td_exact_k,
    recorded_solve,
    sparse_bipartite_graph,
    sparse_connected_graph,
    two_component_graphs,
    with_filled,
    with_neighbor_lists,
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


def _rounds_against_reference(g: Graph, ks) -> tuple[int, int]:
    """Run each chromatic round k of ``ks`` live and frozen; nodes of each side.

    Asserts that both find the same coloring, or both none, and that no live
    round visits more nodes than its frozen twin.
    """
    order = solvers._branch_order(g)
    nbr = solvers._position_masks(g, order)
    live, ref = _Budget(None), _Budget(None)
    for k in ks:
        live_before, ref_before = live.nodes, ref.nodes
        found = solvers._proper_exact_k(nbr, k, live)
        if found is not None:
            by_vertex = [0] * g.vertex_count
            for p, v in enumerate(order):
                by_vertex[v] = found[p]
            found = by_vertex
        assert found == reference_dsatur_proper_exact_k(g, k, order, ref)
        assert live.nodes - live_before <= ref.nodes - ref_before
    return live.nodes, ref.nodes


class TestForcedColorPropagation:
    """The chromatic rounds with the propagation cut against the frozen DSATUR."""

    def test_planted_graphs(self):
        # the benchmark's planted graphs (n = 28, k = 6, p = 0.5), 60 of them
        # from seed 0: every round from the clique bound up to the greedy
        # coloring in branch order (the search's upper bound before the
        # DSATUR greedy joined it) finds the frozen copy's coloring, or none
        # as it does, in no more nodes. The search itself skips the rounds
        # the DSATUR greedy closes and spends 1,249 nodes; without that
        # greedy it spent the 1,837 of the live rounds below
        rng = random.Random(0)
        live = ref = searched = 0
        for _ in range(60):
            g = planted_graph(rng, 28, 6, 0.5)
            budget = _Budget(None)
            value, _, lb, _ = solvers._chromatic_search(*solvers._tables(g), budget)
            a, b = _rounds_against_reference(g, range(lb, min(value + 1, _branch_order_greedy_bound(g))))
            assert budget.nodes <= a
            live += a
            ref += b
            searched += budget.nodes
        assert (live, ref, searched) == (1_837, 2_344, 1_249)

    def test_odd_cycle_in_one_node(self):
        # the 2-coloring is forced around the cycle, so the k = 2 round fails
        # after its first placement; it used to visit every vertex
        g = fam.cycle_graph(1501)
        budget = _Budget(None)
        assert solvers._proper_exact_k(solvers._tables(g)[1], 2, budget) is None
        assert budget.nodes == 1
        # the DSATUR greedy's 3 colors certify an odd cycle, so the search now
        # runs no round at all (it spent the k = 2 round's 1 node before)
        res = chromatic_number(g)
        assert (res.value, res.nodes_explored, res.lower_bound_used) == (3, 0, 3)
        assert is_proper(g, res.witness) and res.witness.num_colors == 3

    def test_td_of_a_long_odd_cycle(self):
        # past the recursion limit before the propagation cut: the chromatic
        # round recursed once per vertex. The total-domination search took
        # 1,659 nodes in all branching on the lowest-index undominated vertex,
        # 911 with the idle-class cap tested after a node was spent, and 887
        # with reuses that leave a vertex no possible dominator spent; 815
        # before the odd-cycle bound skipped the chromatic k = 2 round
        g = fam.cycle_graph(1501)
        res = td_chromatic_number(g)
        assert (res.value, res.nodes_explored) == (753, 814)
        assert is_td_coloring(g, res.witness) and res.witness.num_colors == 753


def _branch_order_greedy_bound(g: Graph) -> int:
    """Colors of the first-fit greedy coloring in branch order."""
    greedy = [0] * g.vertex_count
    for v in solvers._branch_order(g):
        used = {greedy[u] for u in g.adjacency[v]}
        greedy[v] = next(c for c in itertools.count(1) if c not in used)
    return max(greedy, default=0)


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

    def test_degree_sum_start_and_packing_cut(self):
        # degrees 4, 2, 2, ...: 4 + 2 + 2 < 9, so the search starts at 4, one
        # above ceil(9 / 4) = 3; with the packing cut the tree falls from 55
        # nodes to 17, to 13 with the open-packing test, and to 7 branching
        # fail-first instead of on the lowest-index undominated vertex
        g = fam.realize(parse_expr("D(5,2)"))
        res = total_domination_number(g)
        assert (res.value, res.lower_bound_used, res.witness) == (5, 4, (0, 1, 2, 5, 6))
        assert res.nodes_explored == 7
        ref = reference_degree_bound_dom_search(g, _Budget(None))
        assert (ref[0], ref[1], ref[2]) == (5, (0, 1, 2, 5, 6), 3)


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

    def test_graph_that_broke_an_invalid_bound(self):
        # a witness-family bound that added one color for G - S gave 5 here
        edges = [(0, 5), (1, 2), (1, 6), (2, 4), (2, 7), (3, 5), (3, 7), (4, 5), (4, 6), (5, 6)]
        g = Graph.from_edges(8, edges)
        res = td_chromatic_number(g)
        assert res.value == 4
        assert is_td_coloring(g, res.witness)
        assert td_chromatic_oracle(g).value == 4

    @pytest.mark.parametrize(
        "text,expected",
        [("P(30)", 18), ("C(30)", 18), ("L(12)", 10), ("G(4,6)", 10), ("G(5,5)", 11)],
    )
    def test_past_the_old_frontier(self, text, expected):
        # values agree with an independent witness-family search
        g = fam.realize(parse_expr(text))
        res = td_chromatic_number(g, SolveOptions(node_budget=200_000))
        assert res.value == expected
        assert is_td_coloring(g, res.witness)

    @pytest.mark.parametrize(
        "text,expected",
        [("P(60)", 32), ("L(16)", 14), ("G(4,8)", 14), ("T(20)", 16), ("T(24)", 18)],
    )
    def test_past_the_capacity_frontier(self, text, expected):
        # regression pins resting on one method, the k-loop: no second method
        # reaches these orders yet. With the sum-of-gains capacity bound, P(60),
        # L(16) and G(4,8) were cut off at 1M nodes and T(20) took 910,551;
        # the open-packing test solves each in under 30k. T(24) took 52,446
        # with colors tried in ascending order and 35,071 new color first
        g = fam.realize(parse_expr(text))
        res = td_chromatic_number(g, SolveOptions(node_budget=50_000))
        assert res.value == expected
        assert is_td_coloring(g, res.witness)
        assert res.witness.num_colors == expected

    @pytest.mark.parametrize(
        "text,expected,budget", [("G(4,12)", 18, 15_000), ("T(24)", 18, 20_000)]
    )
    def test_past_the_frontier_from_the_incumbent(self, text, expected, budget):
        # single-method pins: only the rounds below the merged incumbent back
        # these values. The upward k-loop took 38,345 nodes on G(4,12), 27,890
        # of them finding the gamma_t + chi coloring that is now constructed,
        # and 35,071 on T(24), whose optimum the merge reaches
        g = fam.realize(parse_expr(text))
        res = td_chromatic_number(g, SolveOptions(node_budget=budget))
        assert res.value == expected
        assert is_td_coloring(g, res.witness)
        assert res.witness.num_colors == expected

    @pytest.mark.parametrize(
        "text,expected,nodes", [("G(4,10)", 16, 443), ("G(4,12)", 18, 496)]
    )
    def test_grids_with_the_placement_and_idle_class_cuts(self, text, expected, nodes):
        # single-method pins with exact node counts. Without the cap on
        # classes that dominate nobody and the placement check, G(4,10) took
        # 18,932 nodes and G(4,12) 10,330; with the total-domination search
        # branching on the lowest-index undominated vertex, 1,674 and 1,558;
        # with the cap tested after a node was spent, 1,638 and 1,369;
        # without the lex-leader cut from the grids' automorphisms, 910 and
        # 748; with the total-domination search over the whole graph rather
        # than once per covering part, 603 and 685 (its phase 191 and 230,
        # now 31 and 41)
        g = fam.realize(parse_expr(text))
        res = td_chromatic_number(g)
        assert (res.value, res.nodes_explored) == (expected, nodes)
        assert is_td_coloring(g, res.witness)
        assert res.witness.num_colors == expected

    def test_incumbent_at_the_lower_bound_runs_no_round(self):
        # C(6): the construction has 6 classes, two merges reach max(chi,
        # gamma_t) = 4, and the incumbent is optimal with no search
        res, (constructed, merged, merge_nodes), rounds = recorded_solve(fam.cycle_graph(6))
        assert (len(set(constructed)), max(merged), merge_nodes) == (6, 4, 2)
        assert rounds == []
        assert (res.value, res.lower_bound_used) == (4, 4)
        assert res.witness == normalize(Coloring(tuple(merged)))
        assert is_td_coloring(fam.cycle_graph(6), res.witness)


class TestCanCover:
    """The covering test shared by the total-domination search and the k-loop."""

    def test_open_packing_cut(self):
        # path 0-1-2-3-4, need {0, 2, 3, 4}, two picks: vertices 1 and 3 gain
        # two each, enough for the sum-of-gains test, but the regions N(0) =
        # {1}, N(4) = {3} and N(3) = {2, 4} are disjoint and need three picks
        g = fam.path_graph(5)
        nbr_mask, need, full = _neighbor_masks(g), 0b11101, 0b11111
        gains = [(m & need).bit_count() for m in nbr_mask]
        assert reference_gain_sum_can_cover(need, 2, gains, 2)
        assert not _can_cover(need, 2, full, nbr_mask, 2)
        assert _can_cover(need, 3, full, nbr_mask, 2)

    def test_region_best_gain_cut(self):
        # a triangle 0-1-2 and an edge 3-4, need {0, 1, 2, 3}, two picks: the
        # three triangle vertices gain two each, enough for the sum-of-gains
        # test; the regions {4} and {1, 2} pass the packing test, but one pick
        # must be 4, which gains one, and the other gains at most two
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        nbr_mask, need, full = _neighbor_masks(g), 0b01111, 0b11111
        gains = [(m & need).bit_count() for m in nbr_mask]
        assert reference_gain_sum_can_cover(need, 2, gains, 2)
        assert not _can_cover(need, 2, full, nbr_mask, 2)
        assert _can_cover(need, 3, full, nbr_mask, 2)

    def test_uncoverable_vertex_cut(self):
        # vertex 0's only neighbor is not available
        nbr_mask = _neighbor_masks(fam.path_graph(3))
        assert not _can_cover(0b001, 2, 0b101, nbr_mask, 2)


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

    def test_node_budget(self):
        # G(4,5) at cap 20 needs far more than 1,000 partial partitions; P(10)
        # takes 77 within the default cap
        with pytest.raises(BudgetExhaustedError) as err:
            td_chromatic_oracle(fam.grid(4, 5), cap=20, opts=SolveOptions(node_budget=1_000))
        assert err.value.nodes_explored == 1_001
        res = td_chromatic_oracle(fam.path_graph(10), opts=SolveOptions(node_budget=77))
        assert res.value == 7
        with pytest.raises(BudgetExhaustedError):
            td_chromatic_oracle(fam.path_graph(10), opts=SolveOptions(node_budget=76))

    def test_rejects_isolated(self):
        with pytest.raises(ValueError, match="isolated"):
            td_chromatic_oracle(fam.empty_graph(3))

    def test_default_suite_partition_count(self):
        # the verify suite calls the oracle on every instance within the cap;
        # the full enumeration, before the closed-neighborhood cut, examined
        # 115,703, and 12,841 while each N(w) was checked only where it closed.
        # Now each partition left improves on the best, so it is kept
        graphs = [fam.realize(parse_expr(text)) for text in harness.default_suite().instances]
        small = [g for g in graphs if g.vertex_count <= 10]
        assert len(small) == 66
        assert sum(td_chromatic_oracle(g).nodes_explored for g in small) == 77

    def test_default_suite_matches_reference_oracle(self):
        # instances up to 9 vertices keep the full enumeration fast enough
        graphs = [fam.realize(parse_expr(text)) for text in harness.default_suite().instances]
        small = [g for g in graphs if g.vertex_count <= 9]
        assert len(small) == 57
        for g in small:
            res, ref = td_chromatic_oracle(g), reference_td_oracle(g)
            assert (res.value, res.witness) == (ref.value, ref.witness)
            assert res.nodes_explored <= ref.nodes_explored

    def test_cut_when_last_vertex_closes_a_neighborhood(self):
        # path 0-1-3-2: vertex 3 completes N(2) = {3}; the partition
        # {0,3},{1,2} has no block inside N(2) and is cut before its leaf
        g = Graph.from_edges(4, [(0, 1), (1, 3), (2, 3)])
        res, ref = td_chromatic_oracle(g), reference_td_oracle(g)
        assert (res.value, res.witness) == (ref.value, ref.witness) == (3, Coloring((1, 2, 1, 3)))
        assert (res.nodes_explored, ref.nodes_explored) == (1, 2)

    def test_cut_when_a_later_vertex_joins_the_block_inside_a_neighborhood(self):
        # path 2-0-1-3: N(2) = {0} closes at vertex 0 with the block {0}
        # inside it; vertex 3 may join that block later, and then no block
        # lies inside N(2), so the partition is cut before its leaf
        g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
        res, ref = td_chromatic_oracle(g), reference_td_oracle(g)
        assert (res.value, res.witness) == (ref.value, ref.witness) == (3, Coloring((1, 2, 3, 3)))
        assert (res.nodes_explored, ref.nodes_explored) == (1, 4)

    def test_default_suite_past_the_cap(self):
        # the oracle as a second exact method on the default-suite rows past its cap
        graphs = [fam.realize(parse_expr(text)) for text in harness.default_suite().instances]
        large = [g for g in graphs if g.vertex_count > 10]
        assert len(large) == 13
        for g in large:
            res = td_chromatic_oracle(g, cap=g.vertex_count)
            assert res.value == td_chromatic_number(g).value
            assert is_td_coloring(g, res.witness)

    def test_frontier_past_the_cap(self):
        # the FRONTIER instances of at most 14 vertices; the larger ones take
        # up to seconds each (README, "The oracle's reach")
        graphs = [fam.realize(parse_expr(text)) for text in FRONTIER]
        small = [g for g in graphs if g.vertex_count <= 14]
        assert len(small) == 13
        for g in small:
            res = td_chromatic_oracle(g, cap=g.vertex_count)
            assert res.value == td_chromatic_number(g).value
            assert is_td_coloring(g, res.witness)


class TestSearchNodeTotals:
    """Node totals of the three searches, each instance solved alone.

    Totals, not rows: a single small graph may take a node or two more than
    under the static-order searches (corona(C(5),K(1)): 33 -> 35 total
    domination nodes). Without automorphisms, a k-loop round that finds no
    coloring visits the same nodes in any color order, so the
    new-color-first order left those rounds unchanged; the round that finds a coloring may grow on a single
    instance (join(C(5),C(5)): 10 -> 28 nodes) while the total falls. The
    merges and the rounds below the incumbent may cost a node or two more
    than the upward k-loop on a small instance (P(6): 13 -> 14 nodes).
    """

    def test_default_suite(self):
        chi = dom = rest = 0
        for text in harness.default_suite().instances:
            g = fam.realize(parse_expr(text))
            c = chromatic_number(g).nodes_explored
            d = total_domination_number(g).nodes_explored
            chi += c
            dom += d
            rest += td_chromatic_number(g).nodes_explored - c - d
        # the static-order searches took 157 chromatic and 5,080 domination
        # nodes; the k-loop took 27,190 without the domination-capacity bound;
        # without the clique-per-vertex and packing bounds, 100 and 956; with
        # the sum-of-gains covering test in place of the open-packing one,
        # 553 domination and 3,170 k-loop nodes; with colors tried in
        # ascending order, 2,875 k-loop nodes; the upward k-loop from
        # max(chi, gamma_t), before the merged incumbent, 1,777; without the
        # idle-class cap and the placement check, 1,076; without forced-color
        # propagation in the chromatic rounds, 86 chromatic nodes; branching
        # on the lowest-index undominated vertex, 352 domination nodes, and
        # 770 merge and k-loop nodes from the incumbents its witnesses gave;
        # with the idle-class cap tested after a node was spent, 748; with
        # reuses that leave a vertex no possible dominator spent, 635; with
        # rounds down to max(chi, gamma_t) before the counting bound, 523;
        # without the lex-leader cut from automorphisms, 404; with the
        # total-domination search run over the whole graph rather than once
        # per covering part, 276 domination nodes; with each part searched
        # even when its root picks already cover it, 267 domination and 351
        # merge and k-loop nodes, P(10) taking 7 rather than 12 (its new set
        # merges into an incumbent one class worse, so a round runs); without
        # the support vertices as singleton classes in the counting bound,
        # 388 merge and k-loop nodes; without the DSATUR greedy and odd-cycle
        # bounds, 30 chromatic nodes
        assert (chi, dom, rest) == (24, 70, 358)

    def test_bounds_total_domination(self):
        # the benchmark's sparse family members; 3,834,246 nodes by subset order,
        # 51,575 with only the picks-left-times-max-degree prune, 1,768 with
        # the sum-of-gains covering test in place of the open-packing one and
        # 197 branching on the lowest-index undominated vertex, 85 searching
        # the whole graph rather than once per covering part (L(14): 15 -> 12)
        # and 82 searching a part whose root picks already cover it (C(32):
        # 16 -> 8, O(10): 11 -> 0)
        results = [total_domination_number(fam.realize(parse_expr(t))) for t in BOUNDS_TOTALDOM]
        assert [r.value for r in results] == [16, 16, 10, 11, 15, 10]
        assert sum(r.nodes_explored for r in results) == 63

    def test_bounds_chromatic(self):
        # the benchmark's planted graphs, the 60 that TestForcedColorPropagation
        # builds from seed 0; 1,837 nodes with the greedy coloring in branch
        # order as the only upper bound and no odd-cycle bound
        rng = random.Random(0)
        results = [chromatic_number(planted_graph(rng, 28, 6, 0.5)) for _ in range(60)]
        assert {r.value for r in results} == {6}
        assert sum(r.nodes_explored for r in results) == 1_249


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


class TestBoundsInterval:
    def test_cycle6(self):
        g = fam.cycle_graph(6)
        assert brute_force_gamma_t(g) == 4
        assert td_chromatic_bounds(g) == (4, 6)

    def test_complete4(self):
        assert td_chromatic_bounds(fam.complete_graph(4)) == (4, 6)

    def test_path2(self):
        assert td_chromatic_bounds(fam.path_graph(2)) == (2, 4)

    def test_isolated_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            td_chromatic_bounds(fam.empty_graph(2))


class TestBudgets:
    def test_node_budget_exhaustion(self):
        # G(4,5) spends 44 nodes on total domination and 58 on its one round
        with pytest.raises(BudgetExhaustedError) as err:
            td_chromatic_number(fam.grid(4, 5), SolveOptions(node_budget=50))
        assert err.value.nodes_explored == 51

    def test_node_budget_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(node_budget=-1)

    def test_generous_budget_succeeds(self):
        res = td_chromatic_number(fam.path_graph(6), SolveOptions(node_budget=10**6))
        assert res.value == 4


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_oracle_equivalence(g: Graph):
    assert td_chromatic_number(g).value == td_chromatic_oracle(g).value


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8))
def test_oracle_matches_reference_oracle(g: Graph):
    res, ref = td_chromatic_oracle(g), reference_td_oracle(g)
    assert (res.value, res.witness) == (ref.value, ref.witness)
    assert res.nodes_explored <= ref.nodes_explored


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_bounds_are_the_td_solve_bounds(g: Graph):
    res = td_chromatic_number(g)
    assert td_chromatic_bounds(g) == (res.lower_bound_used, res.upper_bound_used)


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_counting_bound_is_sound(g: Graph):
    # no TD-coloring has fewer classes than the count allows, whether it
    # starts from max(chi, gamma_t) or from gamma_t alone
    nbr_mask = _neighbor_masks(g)
    gamma = solvers._total_dom_search(nbr_mask, _Budget(None))[0]
    count = solvers._counting_bound(gamma, gamma, nbr_mask)
    assert count <= td_chromatic_bounds(g)[0] <= td_chromatic_oracle(g).value


def test_counting_bound_is_sound_on_sparse_graphs():
    # sparse graphs leave the idle-class cap tight; the upward k-loop finds
    # the value without the bound. The bound is the value on 9 of the 200
    for seed in range(200):
        g = sparse_connected_graph(random.Random(seed))
        assert td_chromatic_bounds(g)[0] <= _upward_k_loop_value(g)


def test_counting_bound_is_td_on_triangle_chains():
    # td(T(n)) is ceil(2n/3) + 2 from n = 3 on, as the UNSAT rounds below it
    # proved before the bound (326 nodes on T(14), 13,022 on T(30)); the
    # bound now meets it, so no round runs below the merged incumbent
    for n in range(1, 31):
        g = fam.triangle_chain(n)
        td = 3 if n < 3 else -(-2 * n // 3) + 2
        res = td_chromatic_number(g)
        assert td_chromatic_bounds(g)[0] == res.lower_bound_used == res.value == td


def _round_alone(g: Graph, k: int, td_exact_k) -> tuple[int, list[int] | None]:
    """One round of ``td_exact_k`` at k, run alone: its nodes and the coloring found."""
    budget = _Budget(None)
    found = td_exact_k(g, k, solvers._branch_order(g), _neighbor_masks(g), budget)
    return budget.nodes, found


def _solver_round(gamma: int, maps: list[list[int]] | None = None):
    """``solvers._td_exact_k`` for a graph with total domination number gamma.

    It cuts with ``maps`` from its first node; by default with none.
    """

    def round_(g, k, order, nbr_mask, budget):
        return solvers._td_exact_k(k, gamma, order, nbr_mask, budget, _Symmetry(maps or []))

    return round_


def _idle_round_alone(g: Graph, k: int, gamma: int) -> tuple[int, list[int] | None, int]:
    """The idle copy's round at k, run alone: its nodes, its coloring and its dead ends.

    A dead end is a child it spends a node on whose needy set holds a
    vertex with no uncolored neighbor.
    """
    dead_ends: list[int] = []

    def round_(g, k, order, nbr_mask, budget):
        return reference_idle_td_exact_k(k, gamma, order, nbr_mask, budget, dead_ends)

    nodes, found = _round_alone(g, k, round_)
    return nodes, found, len(dead_ends)


def _upward_k_loop_value(g: Graph) -> int:
    """The TD-chromatic number by the earlier upward k-loop on the frozen value-order copy."""
    chi = solvers._chromatic_search(*solvers._tables(g), _Budget(None))[0]
    gamma = solvers._total_dom_search(_neighbor_masks(g), _Budget(None))[0]
    exact_k = with_filled(reference_value_order_td_exact_k)
    return next(
        k for k in range(max(chi, gamma), chi + gamma + 1) if _round_alone(g, k, exact_k)[1]
    )


def _check_td_rounds(g: Graph, *references):
    """Check the incumbent, then each round, against the frozen copies and ``references``.

    Returns the solve's result and its rounds' (k, nodes, found).

    The at-most-k search visits a subtree of the exactly-k search with the
    same color order, and its cuts drop only subtrees with no coloring, so
    each round that runs must find the value-order copy's coloring at the
    same k, in no more nodes. Without automorphisms, a round that finds no
    coloring visits the same nodes in any color order, so it must also take
    no more than a reference's nodes. Rejecting a reuse that
    leaves some vertex with no possible dominator, before a node is spent,
    drops only children with no coloring and keeps the order of the rest,
    so each round with no maps also finds the idle copy's coloring, which
    spends a node on each such child, in exactly that many nodes fewer. The
    solve's own round cuts with the automorphisms it finds, which only
    rejects children, so it finds the same coloring in no more nodes. The
    rounds run downward from the merged incumbent, one color fewer each,
    and stop at the first that finds none or at the lower bound.
    """
    res, (constructed, merged, merge_nodes), rounds = recorded_solve(g)
    value_order = with_filled(reference_value_order_td_exact_k)
    dom = total_domination_number(g)
    for k, nodes, found in rounds:
        copy_nodes, copy_found = _round_alone(g, k, value_order)
        assert copy_found == found and nodes <= copy_nodes
        plain_nodes, plain_found = _round_alone(g, k, _solver_round(dom.value))
        idle_nodes, idle_found, dead_ends = _idle_round_alone(g, k, dom.value)
        assert idle_found == plain_found and plain_nodes == idle_nodes - dead_ends
        assert found == plain_found and nodes <= plain_nodes
        for reference in references:
            ref_nodes, ref_found = _round_alone(g, k, with_neighbor_lists(reference))
            assert (ref_found is None) == (found is None)
            assert found is not None or nodes <= ref_nodes

    best = merged
    for i, (k, _, found) in enumerate(rounds):
        assert k == max(best) - 1 >= res.lower_bound_used
        if found is None:
            assert i == len(rounds) - 1
            break
        best = found
    else:
        assert max(best) == res.lower_bound_used
    assert (res.value, res.witness) == (max(best), normalize(Coloring(tuple(best))))
    assert res.value == _upward_k_loop_value(g)
    chi = chromatic_number(g).nodes_explored
    round_nodes = sum(n for _, n, _ in rounds)
    assert res.nodes_explored == chi + dom.nodes_explored + merge_nodes + round_nodes
    assert is_td_coloring(g, res.witness)
    assert res.witness.num_colors == res.value
    return res, rounds


def _idle_classes(g: Graph, coloring: Coloring) -> int:
    """The classes of ``coloring`` that lie inside no vertex's neighborhood."""
    classes = {}
    for v, c in enumerate(coloring.colors):
        classes.setdefault(c, set()).add(v)
    return sum(
        not any(members <= g.adjacency[w] for w in range(g.vertex_count))
        for members in classes.values()
    )


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_td_matches_reference_k_loop(g: Graph):
    # the per-vertex design without and with the sum-of-gains capacity
    # bound; the open-packing test cuts at least what either cut
    res, _ = _check_td_rounds(g, reference_td_exact_k, reference_capacity_td_exact_k)
    assert res.value == td_chromatic_oracle(g).value


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_td_cuts_are_sound(g: Graph):
    # every round from the lower bound to the upper, run alone, finds the
    # value-order copy's coloring (or none) in no more nodes. That copy
    # searches exactly k colors, so k stops at n, where the all-singleton
    # coloring exists
    chi = solvers._chromatic_search(*solvers._tables(g), _Budget(None))[0]
    gamma = solvers._total_dom_search(_neighbor_masks(g), _Budget(None))[0]
    value_order = with_filled(reference_value_order_td_exact_k)
    for k in range(max(chi, gamma), min(gamma + chi, g.vertex_count) + 1):
        nodes, found = _round_alone(g, k, _solver_round(gamma))
        copy_nodes, copy_found = _round_alone(g, k, value_order)
        assert found == copy_found and nodes <= copy_nodes
    # one member of each class that dominates someone totally dominates G,
    # so at most (colors - gamma_t) classes dominate nobody
    res = td_chromatic_number(g)
    assert _idle_classes(g, res.witness) <= res.value - gamma
    oracle = td_chromatic_oracle(g).witness
    assert _idle_classes(g, oracle) <= oracle.num_colors - gamma


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=10))
def test_fatal_admissibility_keeps_every_round(g: Graph):
    # rejecting a reuse that leaves a needy vertex with no uncolored
    # neighbor, or strands a vertex its color alone dominates, drops only
    # children with no coloring: every round from the lower bound to n, run
    # alone, finds the frozen idle copy's coloring (or none), which spends a
    # node on each such child, in exactly that many nodes fewer
    chi = solvers._chromatic_search(*solvers._tables(g), _Budget(None))[0]
    gamma = solvers._total_dom_search(_neighbor_masks(g), _Budget(None))[0]
    for k in range(max(chi, gamma), g.vertex_count + 1):
        nodes, found = _round_alone(g, k, _solver_round(gamma))
        idle_nodes, idle_found, dead_ends = _idle_round_alone(g, k, gamma)
        assert found == idle_found and nodes == idle_nodes - dead_ends


def test_fatal_admissibility_accounts_for_every_frontier_node():
    # over every round the frontier instances run, the idle copy's nodes
    # minus those of the search with no automorphisms are exactly its dead
    # ends: the children the admissibility test now rejects before a node
    # is spent. Before the counting bound removed 11 final UNSAT rounds,
    # (1,626, 2,427, 801). The solve's own rounds, which cut with the
    # automorphisms they find, find the same colorings in no more nodes:
    # 832 of the 1,031
    live = idle = dead = solve = 0
    for text in FRONTIER:
        g = fam.realize(parse_expr(text))
        gamma = total_domination_number(g).value
        for k, nodes, found in recorded_solve(g)[2]:
            plain_nodes, plain_found = _round_alone(g, k, _solver_round(gamma))
            idle_nodes, idle_found, dead_ends = _idle_round_alone(g, k, gamma)
            assert idle_found == plain_found and idle_nodes - plain_nodes == dead_ends
            assert found == plain_found and nodes <= plain_nodes
            live, idle, dead = live + plain_nodes, idle + idle_nodes, dead + dead_ends
            solve += nodes
    assert (live, idle, dead) == (1_031, 1_505, 474)
    assert solve == 832


def _is_automorphism(g: Graph, image: list[int]) -> bool:
    """Whether ``image`` permutes g's vertices and maps each neighborhood onto its image's."""
    n = g.vertex_count
    return sorted(image) == list(range(n)) and all(
        {image[w] for w in g.adjacency[v]} == set(g.adjacency[image[v]]) for v in range(n)
    )


def _found_maps(g: Graph) -> list[list[int]]:
    """The finder's maps for g, each re-checked on g's adjacency sets."""
    order, _, nbr_mask = solvers._tables(g)
    maps = _automorphisms(order, nbr_mask)
    assert all(_is_automorphism(g, image) for image in maps)
    assert list(range(g.vertex_count)) not in maps
    return maps


@st.composite
def circulants(draw, max_vertices: int = 10):
    """Connected circulant graphs: v joined to v + j mod n for 1 and the drawn jumps j."""
    n = draw(st.integers(3, max_vertices))
    jumps = draw(st.sets(st.integers(1, n // 2))) | {1}
    edges = {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps}
    return Graph.from_edges(n, sorted(edges))


class TestAutomorphisms:
    """The finder behind the TD rounds' lex-leader cut, checked without ``solvers``."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_path_reflection(self, n):
        assert _found_maps(fam.path_graph(n)) == [[n - 1 - v for v in range(n)]]

    @pytest.mark.parametrize("rows,cols,count", [(4, 5, 3), (4, 4, 7), (6, 10, 3), (8, 8, 7)])
    def test_grid_symmetries(self, rows, cols, count):
        # the reflections of the rows and the columns, their product and,
        # on a square grid, the transpose and its products: all of them
        def cell(r, c):
            return r * cols + c

        flips = [
            [cell(rows - 1 - r if a else r, cols - 1 - c if b else c) for r in range(rows) for c in range(cols)]
            for a in (0, 1) for b in (0, 1)
        ]
        if rows == cols:
            flips += [[f[cell(c, r)] for r in range(rows) for c in range(cols)] for f in flips]
        maps = _found_maps(fam.grid(rows, cols))
        assert len(maps) == count
        assert sorted(maps) == sorted(f for f in flips if f != list(range(rows * cols)))

    @pytest.mark.parametrize("n", [3, 5, 8, 10, 18])
    def test_cycle_rotation_and_reflection(self, n):
        maps = _found_maps(fam.cycle_graph(n))
        rotations = [[(v + r) % n for v in range(n)] for r in range(1, n)]
        reflections = [[(r - v) % n for v in range(n)] for r in range(n)]
        assert any(m in rotations for m in maps) and any(m in reflections for m in maps)
        if n <= 10:  # the whole dihedral group fits the step cap
            assert sorted(maps) == sorted(rotations + reflections)

    def test_none_on_an_asymmetric_graph(self):
        g = Graph.from_edges(6, [(0, 4), (0, 5), (1, 4), (2, 3), (2, 5), (4, 5)])
        perms = [list(p) for p in itertools.permutations(range(6))]
        assert [p for p in perms if _is_automorphism(g, p)] == [list(range(6))]
        assert _found_maps(g) == []


@settings(max_examples=60, deadline=None)
@given(st.one_of(connected_graphs(min_vertices=2, max_vertices=10), circulants()))
def test_symmetry_cut_keeps_every_round(g: Graph):
    # a child is rejected only when an automorphism maps every completion
    # to a coloring the search tries earlier, and the first coloring a round
    # finds is the earliest of its orbit. So every round from max(chi,
    # gamma_t) to n, cut with the finder's maps from its first node, finds
    # the coloring (or none) it finds with no maps, in no more nodes, and a
    # solve has the value and witness of one that never cuts, whether its
    # maps are found at its default start, before its first round or a
    # few nodes into one (then the path to the node is replayed)
    maps = _found_maps(g)
    chi = solvers._chromatic_search(*solvers._tables(g), _Budget(None))[0]
    gamma = solvers._total_dom_search(_neighbor_masks(g), _Budget(None))[0]
    for k in range(max(chi, gamma), g.vertex_count + 1):
        nodes, found = _round_alone(g, k, _solver_round(gamma, maps))
        plain_nodes, plain_found = _round_alone(g, k, _solver_round(gamma))
        assert found == plain_found and nodes <= plain_nodes
    with mock.patch.object(solvers, "_automorphisms", lambda order, nbr_mask: []):
        plain = td_chromatic_number(g)
    solves = [td_chromatic_number(g)]
    for start in (0, 0.25):
        with mock.patch.object(solvers, "_SYMMETRY_START", start):
            solves.append(td_chromatic_number(g))
    for solve in solves:
        assert (solve.value, solve.witness) == (plain.value, plain.witness)
        assert solve.nodes_explored <= plain.nodes_explored


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=12))
def test_incumbent_is_a_td_coloring(g: Graph):
    # the gamma_t + chi construction and each merge keep a TD-coloring
    _, (constructed, merged, merge_nodes), _ = recorded_solve(g)
    assert is_td_coloring(g, Coloring(tuple(constructed)))
    assert is_td_coloring(g, Coloring(tuple(merged)))
    assert set(merged) == set(range(1, max(merged) + 1))
    assert merge_nodes == len(set(constructed)) - max(merged) >= 0


@settings(max_examples=60, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=12))
def test_merged_incumbent_is_maximal(g: Graph):
    # a rejected pair stays rejected, so after the merge's one sweep no pair
    # may merge: recoloring any class b as a lower class a breaks it
    _, (_, merged, _), _ = recorded_solve(g)
    for a, b in itertools.combinations(range(1, max(merged) + 1), 2):
        recolored = tuple(a if c == b else c for c in merged)
        assert not is_td_coloring(g, Coloring(recolored))


@pytest.mark.parametrize("text", FRONTIER)
def test_td_frontier_rounds_match_reference_k_loop(text):
    # the per-vertex design without a capacity bound needs over 300k nodes on
    # some of these, so only the one with the sum-of-gains bound takes part.
    # Each round's (k, nodes, coloring) is also pinned exactly, by the table
    # tests/make_frontier_rounds.py generates
    _, rounds = _check_td_rounds(fam.realize(parse_expr(text)), reference_capacity_td_exact_k)
    table = json.loads(FRONTIER_ROUNDS_PATH.read_text(encoding="utf-8"))
    assert [list(r) for r in rounds] == table[text]


@pytest.mark.parametrize("seed", RANDOM_ROUNDS_SEEDS)
def test_td_random_rounds_match_table(seed):
    # sparse random graphs of 10-16 vertices, with each round's (k, nodes,
    # coloring) pinned exactly by the table tests/make_frontier_rounds.py
    # generates, and checked against the frozen copies
    g = sparse_connected_graph(random.Random(seed))
    entry = json.loads(RANDOM_ROUNDS_PATH.read_text(encoding="utf-8"))[str(seed)]
    assert (g.vertex_count, [list(e) for e in g.edges()]) == (entry["n"], entry["edges"])
    _, rounds = _check_td_rounds(g)
    assert [list(r) for r in rounds] == entry["rounds"]


@pytest.mark.parametrize("text", TOTALDOM_PHASE)
def test_total_domination_phase_matches_table(text):
    # [value, lower bound, nodes, witness] pinned exactly by the table that
    # tests/make_frontier_rounds.py generates; the value also against the
    # subset-order search, which spends 59M nodes (over 10 s) on T(30)
    g = fam.realize(parse_expr(text))
    res = total_domination_number(g)
    table = json.loads(TOTALDOM_PHASE_PATH.read_text(encoding="utf-8"))
    assert [res.value, res.lower_bound_used, res.nodes_explored, list(res.witness)] == table[text]
    assert is_total_dominating_set(g, res.witness)
    assert res.value == reference_total_dom_search(g, _Budget(None))[0]


def _root_bound_loop(g: Graph) -> int:
    """The total-domination search's root bound as a loop, summed over the covering parts.

    For each part, the least p >= 1 that the covering test passes with the
    part to cover and its candidates available. On a graph with one part
    this is the least p >= 2 over every vertex, as the search once found it.
    """
    nbr_mask = _neighbor_masks(g)
    total = 0
    for need, avail in solvers._covering_parts(nbr_mask):
        gains = [(m & need).bit_count() for u, m in enumerate(nbr_mask) if avail >> u & 1]
        total += next(
            p for p in range(1, len(gains) + 1) if _can_cover(need, p, avail, nbr_mask, max(gains))
        )
    return total


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(2, 14), bipartite_graphs(2, 14)))
def test_total_domination_root_bound_is_the_loop(g: Graph):
    # the one-pass root bound of each part is the least p the covering test
    # passes with that part's candidates available, which the search found
    # by trying p = 2, 3, ... over the whole graph before it split into parts
    assert total_domination_number(g).lower_bound_used == _root_bound_loop(g)


def test_total_domination_root_bound_is_the_loop_on_sparse_graphs():
    for seed in range(300):
        rng = random.Random(seed)
        for g in (sparse_connected_graph(rng, 4, 40), sparse_bipartite_graph(rng, 4, 40)):
            assert total_domination_number(g).lower_bound_used == _root_bound_loop(g)


def _two_coloring(g: Graph) -> list[int] | None:
    """A connected graph's 2-coloring by breadth-first search, or None when it has an odd cycle."""
    side = [-1] * g.vertex_count
    side[0] = 0
    queue = [0]
    for v in queue:
        for u in g.adjacency[v]:
            if side[u] < 0:
                side[u] = 1 - side[v]
                queue.append(u)
            elif side[u] == side[v]:
                return None
    return side


@settings(max_examples=60, deadline=None)
@given(st.one_of(graphs(1, 12), connected_graphs(2, 12), bipartite_graphs(2, 12)))
def test_covering_parts(g: Graph):
    # the parts partition V, each part's candidates are the union of its
    # members' neighborhoods, and candidate sets are disjoint; two vertices
    # with a common neighbor share a part
    n = g.vertex_count
    parts = solvers._covering_parts(_neighbor_masks(g))
    part_of = {}
    cands = 0
    for i, (part, cand) in enumerate(parts):
        members = [w for w in range(n) if part >> w & 1]
        part_of.update((w, i) for w in members)
        assert cand == sum(1 << u for u in set().union(*(g.adjacency[w] for w in members)))
        assert not cand & cands
        cands |= cand
    assert sorted(part_of) == list(range(n))
    lows = [part & -part for part, _ in parts]
    assert lows == sorted(lows)
    for part, _ in parts:
        # each part is one class: its lowest vertex reaches every member
        # through common neighbors, and no vertex outside it
        reached = [(part & -part).bit_length() - 1]
        for w in reached:
            reached += sorted({x for u in g.adjacency[w] for x in g.adjacency[u]} - set(reached))
        assert sum(1 << w for w in reached) == part
    if n > 1 and g.is_connected():
        side = _two_coloring(g)
        if side is None:
            assert parts == [((1 << n) - 1, (1 << n) - 1)]
        else:
            classes = sorted(sum(1 << w for w in range(n) if side[w] == s) for s in (0, 1))
            assert sorted(part for part, _ in parts) == classes


def _check_split(g: Graph) -> int:
    """The per-part search against the whole vertex set as one part; returns the nodes saved.

    The whole set as one part is the search as it ran before the split. Both
    give the same value, and the split's set is a total dominating set of
    that size. When neither closes at its root, the split is that search run
    per part: the same set, in no more nodes. A part that closes at its root
    keeps its root picks, which may differ from the whole search's set, and
    only spends fewer nodes. But the whole search may close at its root
    while a part does not, since its picks draw on all the gains at once, so
    the node order holds only when the whole search spends a node.
    """
    nbr_mask = _neighbor_masks(g)
    full = (1 << g.vertex_count) - 1
    whole, split = _Budget(None), _Budget(None)
    value, witness, _ = solvers._cover_search(full, full, nbr_mask, whole)
    split_value, split_witness, _, _ = solvers._total_dom_search(nbr_mask, split)
    assert split_value == value == len(split_witness)
    assert is_total_dominating_set(g, split_witness)
    if whole.nodes:
        assert split.nodes <= whole.nodes
        searched = []
        for need, avail in solvers._covering_parts(nbr_mask):
            budget = _Budget(None)
            solvers._cover_search(need, avail, nbr_mask, budget)
            searched.append(budget.nodes)
        if all(searched):
            assert split_witness == witness
    return whole.nodes - split.nodes


@settings(max_examples=60, deadline=None)
@given(bipartite_graphs(2, 16))
def test_covering_parts_keep_the_witness_on_bipartite_graphs(g: Graph):
    _check_split(g)


@settings(max_examples=60, deadline=None)
@given(two_component_graphs(max_vertices=8))
def test_covering_parts_keep_the_witness_on_disconnected_graphs(g: Graph):
    _check_split(g)


def test_covering_parts_keep_the_witness_on_sparse_bipartite_graphs():
    saved = [_check_split(sparse_bipartite_graph(random.Random(seed), 10, 40)) for seed in range(100)]
    assert sum(saved) > 0


@settings(max_examples=100, deadline=None)
@given(st.one_of(connected_graphs(2, 10), bipartite_graphs(2, 10)))
def test_part_closed_at_its_root_spends_no_node(g: Graph):
    # a part whose root picks cover it returns them, a cover of the size the
    # root bound proved, with no node spent; the others search from it
    nbr_mask = _neighbor_masks(g)
    for need, avail in solvers._covering_parts(nbr_mask):
        budget = _Budget(None)
        size, cover, start = solvers._cover_search(need, avail, nbr_mask, budget)
        assert all(avail >> u & 1 for u in cover) and len(cover) == size >= start
        assert not need & ~solvers._union(sum(1 << u for u in cover), nbr_mask)
        if not budget.nodes:
            assert size == start
    res = total_domination_number(g)
    assert res.value == brute_force_gamma_t(g)
    if not res.nodes_explored:
        assert len(res.witness) == res.lower_bound_used == res.value


def test_parts_close_at_their_root_on_small_families():
    # O(10) and both sides of a path with n = 2 mod 4 close at their root
    for text in ("O(10)", "P(6)", "P(10)", "P(14)"):
        res = total_domination_number(fam.realize(parse_expr(text)))
        assert res.nodes_explored == 0
        assert len(res.witness) == res.lower_bound_used == res.value


@settings(max_examples=60, deadline=None)
@given(pendant_graphs(10))
def test_counting_bound_with_support_vertices_is_sound(g: Graph):
    # each support vertex is a singleton class of every TD-coloring
    res = td_chromatic_oracle(g)
    assert td_chromatic_bounds(g)[0] <= res.value
    for s in {next(iter(nbrs)) for nbrs in g.adjacency if len(nbrs) == 1}:
        assert res.witness.colors.count(res.witness.colors[s]) == 1


@pytest.mark.parametrize(
    "base", ["P(2)", "P(3)", "P(5)", "P(8)", "C(3)", "C(4)", "C(7)", "K(2)", "K(4)", "K(6)", "F(2)", "F(3)"]
)
def test_pendant_corona_is_proved_by_the_counting_bound(base):
    # td(G o K1) = n(G) + 1: every vertex of G is a support vertex, so the
    # bound meets the value and no TD round spends a node
    n = fam.realize(parse_expr(base)).vertex_count
    g = fam.realize(parse_expr(f"corona({base},K(1))"))
    res, _, rounds = recorded_solve(g)
    assert td_chromatic_bounds(g)[0] == res.lower_bound_used == res.value == n + 1
    assert rounds == []


def test_total_domination_of_paths_and_cycles_is_henning_form():
    # gamma_t(P_n) = gamma_t(C_n) = floor(n/2) + ceil(n/4) - floor(n/4)
    # (Henning, Discrete Math. 309, 2009): a second method for two families
    for n in range(3, 151):
        form = n // 2 + -(-n // 4) - n // 4
        for g in (fam.path_graph(n), fam.cycle_graph(n)):
            res = total_domination_number(g)
            assert res.value == form == len(res.witness)
            assert is_total_dominating_set(g, res.witness)


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


@settings(max_examples=100, deadline=None)
@given(graphs(min_vertices=1, max_vertices=12))
def test_propagation_keeps_every_round(g: Graph):
    # every k from the clique bound to the greedy bound: the same coloring,
    # or none, as the frozen DSATUR search, in no more nodes
    _, _, lb, ub = solvers._chromatic_search(*solvers._tables(g), _Budget(None))
    _rounds_against_reference(g, range(lb, ub + 1))


@settings(max_examples=100, deadline=None)
@given(graphs(min_vertices=0, max_vertices=12))
def test_chromatic_matches_order_clique_search(g: Graph):
    _check_against_order_clique_search(g)


def test_chromatic_matches_order_clique_search_on_planted_graphs():
    # few small graphs have a DSATUR greedy better than the branch-order one
    # (about 1 in 150 draws of up to 12 vertices); 36 of these 60 do
    rng = random.Random(0)
    replaced = 0
    for _ in range(60):
        g = planted_graph(rng, 28, 6, 0.5)
        replaced += chromatic_number(g).upper_bound_used < _branch_order_greedy_bound(g)
        _check_against_order_clique_search(g)
    assert replaced == 36


def _check_against_order_clique_search(g: Graph) -> None:
    # the larger clique bound and the odd-cycle bound may only skip UNSAT
    # rounds, and the DSATUR greedy may only close the round it would find
    res = chromatic_number(g)
    budget = _Budget(None)
    value, colors, lb, ub = reference_order_clique_chromatic_search(g, budget)
    assert (res.value, res.witness) == (value, normalize(Coloring(tuple(colors))))
    assert res.nodes_explored <= budget.nodes
    assert res.lower_bound_used >= lb
    # the DSATUR greedy replaces the branch-order one when it uses fewer
    # colors and a round would run (ub > lb); d >= chi >= every lower bound,
    # so d < ub implies ub > lb
    d = max(solvers._dsatur_greedy(solvers._tables(g)[1]), default=0)
    assert res.upper_bound_used == (d if d < ub and ub > lb else ub)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=14))
def test_dsatur_greedy_is_the_first_descent(g: Graph):
    # the round for as many colors as the greedy uses returns its coloring
    _dsatur_matches_its_round(g)


def test_dsatur_greedy_is_the_first_descent_on_planted_graphs():
    rng = random.Random(0)
    for _ in range(60):
        _dsatur_matches_its_round(planted_graph(rng, 28, 6, 0.5))


def _dsatur_matches_its_round(g: Graph) -> None:
    order, nbr, _ = solvers._tables(g)
    colors = solvers._dsatur_greedy(nbr)
    by_vertex = [0] * g.vertex_count
    for p, v in enumerate(order):
        by_vertex[v] = colors[p]
    assert is_proper(g, Coloring(tuple(by_vertex)))
    assert solvers._proper_exact_k(nbr, max(colors), _Budget(None)) == colors


def _two_colorable(g: Graph) -> bool:
    side = [-1] * g.vertex_count
    for root in range(g.vertex_count):
        if side[root] < 0:
            side[root], stack = 0, [root]
            while stack:
                v = stack.pop()
                for u in g.adjacency[v]:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return False
    return True


@settings(max_examples=60, deadline=None)
@given(st.one_of(bipartite_graphs(2, 14), two_component_graphs(max_vertices=8)))
def test_dsatur_greedy_two_colors_exactly_the_bipartite_graphs(g: Graph):
    # the odd-cycle bound: at least 3 colors only on a graph with an odd cycle
    d = max(solvers._dsatur_greedy(solvers._tables(g)[1]))
    assert (d <= 2) == _two_colorable(g)


def test_bipartite_graphs_run_no_round():
    # a first-fit greedy in branch order may use 3 colors on a bipartite
    # graph, and the search then ran the k = 2 round; DSATUR uses 2, so no
    # round runs and the lower bound stays 2
    three = 0
    for seed in range(200):
        g = sparse_bipartite_graph(random.Random(seed), 6, 12)
        three += _branch_order_greedy_bound(g) > 2
        res = chromatic_number(g)
        assert (res.value, res.nodes_explored, res.lower_bound_used, res.upper_bound_used) == (2, 0, 2, 2)
    assert three == 9


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11, 13, 15, 21])
def test_dsatur_greedy_on_odd_cycles(n):
    g = fam.cycle_graph(n)
    assert max(solvers._dsatur_greedy(solvers._tables(g)[1])) == 3
    res = chromatic_number(g)
    assert (res.value, res.nodes_explored, res.lower_bound_used) == (3, 0, 3)


@settings(max_examples=100, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=12))
def test_total_domination_matches_degree_bound_search(g: Graph):
    # the packing cut and the degree-sum start drop only subtrees with no
    # set. The branch orders differ, so witnesses and node counts may too
    res = total_domination_number(g)
    value, _, lb, _ = reference_degree_bound_dom_search(g, _Budget(None))
    assert res.value == value
    assert is_total_dominating_set(g, res.witness) and len(set(res.witness)) == value
    assert lb <= res.lower_bound_used <= res.value


@settings(max_examples=100, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=12))
def test_total_domination_matches_gain_sum_search(g: Graph):
    # the open-packing test cuts at least what the sum-of-gains test cut, so
    # the size loop starts no lower. The branch orders differ, so witnesses
    # and node counts may too
    res = total_domination_number(g)
    value, _, lb, _ = reference_gain_sum_dom_search(g, _Budget(None))
    assert res.value == value
    assert is_total_dominating_set(g, res.witness) and len(set(res.witness)) == value
    assert lb <= res.lower_bound_used <= res.value


@settings(max_examples=200, deadline=None)
@given(graphs(min_vertices=1, max_vertices=7), st.data())
def test_can_cover_is_sound_and_no_weaker(g: Graph, data: st.DataObject):
    n = g.vertex_count
    full = (1 << n) - 1
    need = data.draw(st.integers(1, full))
    avail = data.draw(st.integers(0, full))
    picks = data.draw(st.integers(0, n))
    nbr_mask = _neighbor_masks(g)
    max_deg = max(m.bit_count() for m in nbr_mask)
    verdict = _can_cover(need, picks, avail, nbr_mask, max_deg)
    if verdict:
        # the branch region: the lowest-index vertex of need with the fewest
        # avail neighbors
        regions = [nbr_mask[w] & avail for w in range(n) if need >> w & 1]
        assert verdict == min(regions, key=int.bit_count)  # the first of the smallest
    if any(not nbr_mask[w] & avail for w in range(n) if need >> w & 1):
        # an empty region, the k-loop's filled-neighborhood cut, has no cover
        assert not any(_can_cover(need, p, avail, nbr_mask, max_deg) for p in range(n + 1))
    gains = [(nbr_mask[u] & need).bit_count() for u in range(n) if avail >> u & 1]
    if not reference_gain_sum_can_cover(need, picks, gains, max_deg):
        assert not verdict
    if not verdict:  # no picks vertices of avail cover need
        members = [u for u in range(n) if avail >> u & 1]
        for size in range(picks + 1):
            for chosen in itertools.combinations(members, size):
                covered = 0
                for u in chosen:
                    covered |= nbr_mask[u]
                assert need & ~covered


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


@settings(max_examples=40, deadline=None)
@given(connected_graphs(min_vertices=2, max_vertices=8), st.randoms(use_true_random=False))
def test_values_invariant_under_vertex_relabeling(g: Graph, rng: random.Random):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    h = Graph.from_edges(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])
    td = td_chromatic_number(h)
    chi = chromatic_number(h)
    dom = total_domination_number(h)
    assert td.value == td_chromatic_number(g).value
    assert chi.value == chromatic_number(g).value
    assert dom.value == total_domination_number(g).value
    assert is_td_coloring(h, td.witness) and td.witness.num_colors == td.value
    assert is_proper(h, chi.witness) and chi.witness.num_colors == chi.value
    assert is_total_dominating_set(h, dom.witness) and len(set(dom.witness)) == dom.value
