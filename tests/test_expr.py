"""Expression parsing, error offsets and pretty-print round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdcolor import families as fam
from tdcolor.expr import ExprSyntaxError, parse_expr, pretty


class TestParse:
    def test_corona(self):
        assert parse_expr("corona(C(4),K(2))") == fam.Corona(fam.Cycle(4), fam.Complete(2))

    def test_cart(self):
        assert parse_expr("cart(P(2),P(5))") == fam.Cart(fam.Path(2), fam.Path(5))

    def test_friendship_shorthand(self):
        assert parse_expr("F(4)") == parse_expr("D(3,4)") == fam.Friendship(3, 4)

    def test_case_insensitive(self):
        assert parse_expr("CORONA(c(3),k(1))") == parse_expr("corona(C(3),K(1))")

    def test_whitespace_insignificant(self):
        assert parse_expr("  join ( P( 2 ) , K(3) ) ") == fam.Join(fam.Path(2), fam.Complete(3))

    def test_all_atoms(self):
        assert parse_expr("P(1)") == fam.Path(1)
        assert parse_expr("C(3)") == fam.Cycle(3)
        assert parse_expr("K(2)") == fam.Complete(2)
        assert parse_expr("E(0)") == fam.Empty(0)
        assert parse_expr("L(4)") == fam.Ladder(4)
        assert parse_expr("G(2,3)") == fam.Grid(2, 3)
        assert parse_expr("T(2)") == fam.TriChain(2)
        assert parse_expr("O(2)") == fam.OrthoChain(2)


class TestErrors:
    def test_missing_comma_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("D(5 2)")
        assert err.value.offset == 4

    def test_unknown_name(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("corona(P(2),W(3))")
        assert err.value.offset == 12

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("P(2))")
        assert err.value.offset == 4

    def test_missing_integer(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("P()")

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("")

    def test_parameter_range_error_propagates(self):
        with pytest.raises(ValueError, match="cycle order"):
            parse_expr("C(2)")

    @pytest.mark.parametrize(
        "text,message,offset",
        [
            ("P(2,3)", "expected ')'", 3),
            ("G(2)", "expected ','", 3),
            ("corona(P(2))", "expected ','", 11),
            ("join(3,P(2))", "expected a family or operator name", 5),
            ("F(2,3)", "expected ')'", 3),
            ("D(3)", "expected ','", 3),
            ("corona(P(2),K(1),K(1))", "expected ')'", 16),
            ("P(x)", "expected an integer", 2),
            ("W(3)", "unknown name 'w'", 0),
            ("P", "expected '('", 1),
        ],
    )
    def test_message_and_offset(self, text, message, offset):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert str(err.value) == f"{message} at offset {offset}"
        assert err.value.offset == offset


@pytest.mark.parametrize("op,order", [("cart", 1), ("join", 101)])
def test_nesting_capped_at_100_operators(op, order):
    # building and printing recurse once per level; past the cap the parser
    # stops at the first operand too deep
    def nested(depth: int) -> str:
        return f"{op}(" * depth + "K(1)" + ",K(1))" * depth

    spec = parse_expr(nested(100))
    assert parse_expr(pretty(spec)) == spec
    assert fam.realize(spec).vertex_count == order
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(nested(101))
    offset = 101 * len(f"{op}(")
    assert str(err.value) == f"operators nested more than 100 deep at offset {offset}"
    assert err.value.offset == offset


def test_pretty_rejects_non_spec():
    with pytest.raises(TypeError, match="not a family spec"):
        pretty(3)


def specs(max_depth: int = 2):
    atoms = st.one_of(
        st.builds(fam.Path, st.integers(1, 20)),
        st.builds(fam.Cycle, st.integers(3, 20)),
        st.builds(fam.Complete, st.integers(1, 10)),
        st.builds(fam.Empty, st.integers(0, 10)),
        st.builds(fam.Friendship, st.integers(3, 7), st.integers(1, 5)),
        st.builds(fam.Ladder, st.integers(1, 10)),
        st.builds(fam.Grid, st.integers(1, 6), st.integers(1, 6)),
        st.builds(fam.TriChain, st.integers(1, 6)),
        st.builds(fam.OrthoChain, st.integers(1, 6)),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.builds(fam.Corona, children, children),
            st.builds(fam.Join, children, children),
            st.builds(fam.Cart, children, children),
        ),
        max_leaves=4,
    )


@given(specs())
def test_pretty_parse_round_trip(spec):
    assert parse_expr(pretty(spec)) == spec


@given(specs())
def test_pretty_is_deterministic(spec):
    assert pretty(spec) == pretty(spec)
