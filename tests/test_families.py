"""Family constructors: labels, counts, connectivity and determinism."""

from __future__ import annotations

import typing
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tdcolor import families as fam
from tdcolor.expr import ExprSyntaxError, parse_expr


class TestBasicFamilies:
    def test_path_counts(self):
        g = fam.path_graph(4)
        assert (g.vertex_count, g.edge_count) == (4, 3)

    def test_cycle_counts(self):
        g = fam.cycle_graph(5)
        assert (g.vertex_count, g.edge_count) == (5, 5)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            fam.cycle_graph(2)

    def test_complete_counts(self):
        g = fam.complete_graph(5)
        assert g.edge_count == 10


class TestCorona:
    def test_path_pendants(self):
        g = fam.corona(fam.path_graph(3), fam.complete_graph(1))
        assert (g.vertex_count, g.edge_count) == (6, 5)

    def test_cycle_with_pairs(self):
        g = fam.corona(fam.cycle_graph(4), fam.complete_graph(2))
        assert (g.vertex_count, g.edge_count) == (12, 16)

    def test_single_copy_fully_joined(self):
        assert fam.corona(fam.complete_graph(1), fam.complete_graph(3)) == fam.complete_graph(4)

    def test_labels(self):
        g = fam.corona(fam.path_graph(2), fam.path_graph(2))
        # copies occupy blocks after the base graph, each joined to its anchor
        assert g.neighbors(2) == frozenset({0, 3})
        assert g.neighbors(4) == frozenset({1, 5})


class TestJoin:
    def test_k2_join_k2_is_k4(self):
        assert fam.join(fam.complete_graph(2), fam.complete_graph(2)) == fam.complete_graph(4)

    def test_star(self):
        g = fam.join(fam.complete_graph(1), fam.empty_graph(4))
        assert g.degree(0) == 4
        assert all(g.degree(v) == 1 for v in range(1, 5))

    def test_counts(self):
        g = fam.join(fam.path_graph(2), fam.path_graph(3))
        assert (g.vertex_count, g.edge_count) == (5, 9)


class TestCartesianProduct:
    def test_square(self):
        g = fam.cartesian_product(fam.path_graph(2), fam.path_graph(2))
        assert (g.vertex_count, g.edge_count) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_ladder_is_p2_times_pn(self):
        assert fam.grid(2, 5) == fam.cartesian_product(fam.path_graph(2), fam.path_graph(5))

    def test_counts(self):
        g = fam.cartesian_product(fam.path_graph(3), fam.path_graph(3))
        assert (g.vertex_count, g.edge_count) == (9, 12)


class TestFriendship:
    def test_two_triangles(self):
        g = fam.friendship_family(3, 2)
        assert (g.vertex_count, g.edge_count) == (5, 6)
        assert g.degree(0) == 4

    def test_counts_q4(self):
        g = fam.friendship_family(4, 3)
        assert (g.vertex_count, g.edge_count) == (10, 12)

    def test_counts_q5(self):
        g = fam.friendship_family(5, 2)
        assert (g.vertex_count, g.edge_count) == (9, 10)

    def test_single_triangle_is_c3(self):
        assert fam.friendship_family(3, 1) == fam.cycle_graph(3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            fam.friendship_family(2, 1)
        with pytest.raises(ValueError):
            fam.friendship_family(3, 0)


class TestGrid:
    def test_ladder_counts(self):
        g = fam.grid(2, 3)
        assert (g.vertex_count, g.edge_count) == (6, 7)

    def test_square_counts(self):
        g = fam.grid(3, 3)
        assert (g.vertex_count, g.edge_count) == (9, 12)

    def test_degenerate_row(self):
        assert fam.grid(1, 5) == fam.path_graph(5)

    def test_row_major_labels(self):
        g = fam.grid(2, 3)
        assert g.neighbors(0) == frozenset({1, 3})
        assert g.neighbors(4) == frozenset({1, 3, 5})


class TestChainCactus:
    def test_single_triangle(self):
        assert fam.triangle_chain(1) == fam.complete_graph(3)

    def test_two_triangles_share_one_vertex(self):
        g = fam.triangle_chain(2)
        f2 = fam.friendship_family(3, 2)
        assert (g.vertex_count, g.edge_count) == (f2.vertex_count, f2.edge_count)
        assert sorted(g.degree(v) for v in range(5)) == sorted(
            f2.degree(v) for v in range(5)
        )

    def test_single_square_is_a_4_cycle(self):
        g = fam.square_chain(1)
        assert (g.vertex_count, g.edge_count) == (4, 4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_counts(self):
        for n in range(1, 7):
            t = fam.triangle_chain(n)
            assert (t.vertex_count, t.edge_count) == (2 * n + 1, 3 * n)
            o = fam.square_chain(n)
            assert (o.vertex_count, o.edge_count) == (3 * n + 1, 4 * n)

    def test_cut_vertices_adjacent(self):
        o = fam.square_chain(3)
        for i in range(3):
            assert i + 1 in o.neighbors(i)


class TestRealize:
    def test_corona_spec(self):
        g = fam.realize(fam.Corona(fam.Cycle(4), fam.Complete(2)))
        assert g.vertex_count == 12

    def test_ladder_equals_cart(self):
        a = fam.realize(fam.Ladder(4))
        b = fam.realize(fam.Cart(fam.Path(2), fam.Path(4)))
        assert a == b

    def test_friendship_single_blade(self):
        assert fam.realize(fam.Friendship(3, 1)) == fam.cycle_graph(3)

    def test_deterministic(self):
        spec = fam.Corona(fam.Grid(2, 3), fam.Empty(2))
        assert fam.realize(spec).canonical_key() == fam.realize(spec).canonical_key()

    def test_parameter_errors_propagate(self):
        with pytest.raises(ValueError):
            fam.Cycle(2)
        with pytest.raises(ValueError):
            fam.Grid(0, 3)
        with pytest.raises(ValueError):
            fam.Friendship(3, 0)

    def test_every_spec_class_has_a_table_entry(self):
        assert set(typing.get_args(fam.FamilySpec)) == set(fam.FAMILIES)
        heads = [family.head.lower() for family in fam.FAMILIES.values()]
        assert len(set(heads)) == len(heads)

    @pytest.mark.parametrize(
        "cls,field", [(cls, f) for cls, domain in fam.DOMAINS.items() for f in domain]
    )
    def test_domain_table(self, cls, field):
        # one below a field's least value fails with the table's message,
        # written out or built by the public constructor; the least builds.
        # The Ladder and Grid constructors failed on the order of the paths
        # they are built from ("path order must be >= 1") until they checked
        # their own spec
        least = {f: low for f, (_, low) in fam.DOMAINS[cls].items()}
        below = {**least, field: least[field] - 1}
        noun = fam.DOMAINS[cls][field][0]
        head = fam.FAMILIES[cls].head
        message = f"^{noun} must be >= {least[field]}$"
        text = f"{head}({','.join(map(str, below.values()))})"
        with pytest.raises(ValueError, match=message):
            cls(**below)
        if below[field] < 0:  # the grammar has no sign, so E(-1) fails as syntax
            with pytest.raises(ExprSyntaxError, match="^expected an integer"):
                parse_expr(text)
        else:
            with pytest.raises(ValueError, match=message):
                parse_expr(text)
        build = fam.FAMILIES[cls].build
        with pytest.raises(ValueError, match=message):
            build(*below.values())
        assert fam.realize(cls(**least)) == build(*least.values())

    def test_domain_table_covers_every_atom(self):
        atoms = [cls for cls in fam.FAMILIES if all(f.type == "int" for f in fields(cls))]
        assert list(fam.DOMAINS) == atoms
        assert all(list(fam.DOMAINS[cls]) == [f.name for f in fields(cls)] for cls in atoms)

    def test_non_spec_rejected(self):
        with pytest.raises(TypeError, match="not a family spec"):
            fam.realize("x")

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (fam.Path(5), lambda: fam.path_graph(5)),
            (fam.Cycle(5), lambda: fam.cycle_graph(5)),
            (fam.Complete(4), lambda: fam.complete_graph(4)),
            (fam.Empty(3), lambda: fam.empty_graph(3)),
            (fam.Friendship(4, 2), lambda: fam.friendship_family(4, 2)),
            (fam.Ladder(3), lambda: fam.grid(2, 3)),
            (fam.Grid(3, 2), lambda: fam.grid(3, 2)),
            (fam.TriChain(2), lambda: fam.triangle_chain(2)),
            (fam.OrthoChain(2), lambda: fam.square_chain(2)),
            (
                fam.Corona(fam.Cycle(3), fam.Empty(2)),
                lambda: fam.corona(fam.cycle_graph(3), fam.empty_graph(2)),
            ),
            (
                fam.Join(fam.Path(2), fam.Complete(3)),
                lambda: fam.join(fam.path_graph(2), fam.complete_graph(3)),
            ),
            (
                fam.Cart(fam.Cycle(3), fam.Ladder(2)),
                lambda: fam.cartesian_product(fam.cycle_graph(3), fam.grid(2, 2)),
            ),
        ],
    )
    def test_realize_equals_builder(self, spec, expected):
        assert fam.realize(spec) == expected()


@given(st.integers(1, 6), st.integers(0, 4))
def test_corona_count_formulas(ng, nh):
    g = fam.path_graph(ng)
    h = fam.empty_graph(nh)
    c = fam.corona(g, h)
    assert c.vertex_count == g.vertex_count * (1 + h.vertex_count)
    assert c.edge_count == g.edge_count + g.vertex_count * (h.edge_count + h.vertex_count)


@given(st.integers(1, 5), st.integers(1, 5))
def test_join_count_formula(a, b):
    g, h = fam.complete_graph(a), fam.path_graph(b)
    j = fam.join(g, h)
    assert j.vertex_count == a + b
    assert j.edge_count == g.edge_count + h.edge_count + a * b


@given(st.integers(1, 5), st.integers(1, 5))
def test_cartesian_count_formula(a, b):
    g, h = fam.path_graph(a), fam.cycle_graph(b + 2)
    p = fam.cartesian_product(g, h)
    assert p.vertex_count == g.vertex_count * h.vertex_count
    assert p.edge_count == (
        g.vertex_count * h.edge_count + h.vertex_count * g.edge_count
    )


@given(st.integers(3, 7), st.integers(1, 4))
def test_friendship_count_formula(q, n):
    g = fam.friendship_family(q, n)
    assert g.vertex_count == n * (q - 1) + 1
    assert g.edge_count == n * q
    assert g.is_connected()


@pytest.mark.parametrize(
    "spec",
    [
        fam.Path(2),
        fam.Cycle(3),
        fam.Complete(1),
        fam.Friendship(3, 1),
        fam.Friendship(5, 2),
        fam.Ladder(1),
        fam.Grid(2, 2),
        fam.TriChain(1),
        fam.OrthoChain(1),
        fam.Corona(fam.Path(2), fam.Empty(1)),
        fam.Join(fam.Path(2), fam.Path(3)),
        fam.Cart(fam.Path(2), fam.Path(2)),
    ],
)
def test_families_connected_at_minimum_parameters(spec):
    g = fam.realize(spec)
    assert g.is_connected()
    if g.vertex_count > 1:
        assert not g.has_isolated_vertex()
