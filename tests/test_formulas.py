"""Closed forms through the spec-keyed table: frozen values, domains, identities."""

from __future__ import annotations

import pytest

from tdcolor import families as fam
from tdcolor.expr import parse_expr
from tdcolor.formulas import formula_for_spec

# factor values for the join rule, None where TD-coloring is undefined
FACTOR_VALUES = {
    fam.Complete(1): None,
    fam.Path(2): 2,
    fam.Path(3): 2,
}


def formula(spec: fam.FamilySpec) -> tuple[str, int] | None:
    result = formula_for_spec(spec, FACTOR_VALUES.get)
    return None if result is None else (result.theorem_tag, result.value)


class TestPath:
    @pytest.mark.parametrize(
        "n,expected",
        [(2, 2), (3, 2), (4, 3), (5, 4), (6, 4), (7, 5), (8, 6), (9, 6), (10, 7), (11, 8), (12, 8)],
    )
    def test_values(self, n, expected):
        assert formula(fam.Path(n)) == ("path", expected)

    def test_domain(self):
        assert formula(fam.Path(1)) is None


class TestCycle:
    @pytest.mark.parametrize(
        "n,expected",
        [(5, 4), (6, 4), (7, 5), (8, 6), (9, 6), (10, 8), (11, 8), (12, 8)],
    )
    def test_values(self, n, expected):
        assert formula(fam.Cycle(n)) == ("cycle", expected)

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 2)])
    def test_small_orders_tagged_extension(self, n, expected):
        assert formula(fam.Cycle(n)) == ("cycle-extension", expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            fam.Cycle(2)  # not a spec, so never reaches the table


class TestCorona:
    def test_path_pendant(self):
        assert formula(fam.Corona(fam.Path(5), fam.Complete(1))) == ("corona-path-pendant", 6)

    def test_cycle_pendant(self):
        assert formula(fam.Corona(fam.Cycle(3), fam.Complete(1))) == ("corona-cycle-pendant", 4)

    def test_path_empty(self):
        assert formula(fam.Corona(fam.Path(4), fam.Empty(3))) == ("corona-path-empty", 5)

    def test_pendant_uses_left_order(self):
        assert formula(fam.Corona(fam.Friendship(3, 2), fam.Complete(1))) == ("corona-pendant", 6)

    def test_pendant_requires_connected(self):
        assert formula(fam.Corona(fam.Empty(3), fam.Complete(1))) is None

    def test_single_vertex_path_takes_generic_pendant_rule(self):
        assert formula(fam.Corona(fam.Path(1), fam.Complete(1))) == ("corona-pendant", 2)

    def test_path_empty_needs_a_pendant(self):
        assert formula(fam.Corona(fam.Path(2), fam.Empty(0))) is None


class TestJoin:
    @pytest.mark.parametrize("a,b,expected", [(2, 2, 4), (3, 2, 5)])
    def test_sum(self, a, b, expected):
        factors = {fam.Path(3): a, fam.Cycle(4): b}
        result = formula_for_spec(fam.Join(fam.Path(3), fam.Cycle(4)), factors.get)
        assert (result.theorem_tag, result.value) == ("join", expected)

    def test_domain(self):
        assert formula(fam.Join(fam.Complete(1), fam.Path(2))) is None


class TestFriendship:
    @pytest.mark.parametrize("q,n,expected", [(3, 5, 3), (4, 3, 5), (5, 2, 6)])
    def test_values(self, q, n, expected):
        assert formula(fam.Friendship(q, n)) == (f"friendship-{q}", expected)

    def test_domain(self):
        assert formula(fam.Friendship(6, 2)) is None
        assert formula(fam.Friendship(3, 1)) is None


class TestLadderAndGrid:
    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 4), (4, 4), (5, 6), (6, 6)])
    def test_ladder(self, n, expected):
        assert formula(fam.Ladder(n)) == ("ladder", expected)

    @pytest.mark.parametrize(
        "m,n,expected", [(4, 4, 8), (5, 4, 11), (3, 3, 6), (2, 2, 2), (3, 4, 7), (2, 5, 6)]
    )
    def test_grid(self, m, n, expected):
        assert formula(fam.Grid(m, n)) == ("grid", expected)

    def test_ladder_equals_two_row_grid(self):
        for n in range(2, 12):
            assert formula(fam.Ladder(n))[1] == formula(fam.Grid(2, n))[1]

    def test_domains(self):
        assert formula(fam.Ladder(1)) is None
        assert formula(fam.Grid(1, 3)) is None


class TestChainCactus:
    CHAINS = {"triangular": fam.TriChain, "ortho": fam.OrthoChain}

    @pytest.mark.parametrize(
        "kind,n,expected",
        [("triangular", 4, 5), ("triangular", 7, 9), ("triangular", 1, 3), ("ortho", 1, 2), ("ortho", 5, 10)],
    )
    def test_values(self, kind, n, expected):
        assert formula(self.CHAINS[kind](n)) == (f"{kind}-chain", expected)

    def test_domain(self):
        with pytest.raises(ValueError):
            fam.TriChain(0)  # not a spec, so never reaches the table


@pytest.mark.parametrize(
    "text",
    [
        "P(1)",
        "D(6,2)",
        "F(1)",
        "corona(E(3),K(1))",
        "corona(C(5),K(2))",
        "join(K(1),P(3))",
        "cart(P(3),P(3))",
        "K(5)",
    ],
)
def test_outside_every_domain(text):
    assert formula(parse_expr(text)) is None


class TestMonotonicity:
    def test_path_values_non_decreasing(self):
        values = [formula(fam.Path(n))[1] for n in range(2, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_cycle_values_non_decreasing_from_5(self):
        values = [formula(fam.Cycle(n))[1] for n in range(5, 40)]
        assert all(a <= b for a, b in zip(values, values[1:]))
