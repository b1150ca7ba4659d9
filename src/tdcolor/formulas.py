"""Closed-form TD-chromatic values, one rule per spec class.

:func:`formula_for_spec` looks the spec's class up in ``_RULES``. Each rule
checks its formula's domain once and returns a :class:`FormulaResult`, or None
outside that domain; a family without a closed form has no entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import families
from .families import Complete, Corona, Cycle, Empty, FamilySpec, Friendship, Grid
from .families import Join, Ladder, OrthoChain, Path, TriChain

__all__ = ["FormulaResult", "formula_for_spec"]

# a join factor's TD-chromatic number, or None where TD-coloring is undefined
FactorValue = Callable[[FamilySpec], int | None]


@dataclass(frozen=True)
class FormulaResult:
    """The value a closed form gives, and the theorem it comes from."""

    theorem_tag: str
    value: int


def _path_value(n: int) -> int:
    """Paths of order n >= 2: 2*ceil(n/3), minus one when n = 1 (mod 3)."""
    return 2 * -(-n // 3) - (1 if n % 3 == 1 else 0)


def _ladder_value(n: int) -> int:
    """Ladders of length n >= 2: n + 1 when n is odd, n when n is even."""
    return n + 1 if n % 2 else n


def _grid_value(m: int, n: int) -> int:
    """Piecewise grid value built from ladder and path values (m rows, n cols)."""
    if m % 2 == 0 and n % 2 == 0:
        return (m // 2) * _ladder_value(n)
    if m % 2 == 1 and n % 2 == 0:
        return (m // 2) * _ladder_value(n) + _path_value(n)
    if m % 2 == 0 and n % 2 == 1:
        return (n // 2) * _ladder_value(m) + _path_value(m)
    # odd x odd recurses exactly once, into the even x even case
    return _grid_value(m - 1, n - 1) + _path_value(m + n - 1)


def _cycle(spec: Cycle, _: FactorValue | None) -> FormulaResult:
    """Cycles of order n >= 5: 4*floor(n/6) + r, minus one for r in {3, 5}.

    Orders 3 and 4 sit outside that formula's domain; their directly computed
    values carry a separate "cycle-extension" tag.
    """
    if spec.n < 5:
        return FormulaResult("cycle-extension", {3: 3, 4: 2}[spec.n])
    q, r = divmod(spec.n, 6)
    return FormulaResult("cycle", 4 * q + r - (1 if r in (3, 5) else 0))


def _friendship(spec: Friendship, _: FactorValue | None) -> FormulaResult | None:
    """Blade cycles of length 3, 4 or 5 around one center, n >= 2 blades."""
    value = {3: 3, 4: spec.n + 2, 5: 2 * spec.n + 2}.get(spec.q)
    if value is None or spec.n < 2:
        return None
    return FormulaResult(f"friendship-{spec.q}", value)


# the two corona instances claimed to meet the |V(G)| + |V(H)| bound exactly
_SHARP_CORONAS = {
    Corona(Cycle(4), Complete(2)): 6,
    Corona(Complete(2), Complete(3)): 5,
}


def _corona(spec: Corona, _: FactorValue | None) -> FormulaResult | None:
    """The two sharp instances, and |V(G)| + 1 for each pendant-style case.

    Pendant cases: a path of order n >= 2 or a cycle with one pendant per
    vertex, a path of order n >= 2 with m >= 1 independent pendants per vertex,
    and any other connected left factor with one pendant per vertex.
    """
    sharp = _SHARP_CORONAS.get(spec)
    if sharp is not None:
        return FormulaResult("corona-sharpness", sharp)
    match spec:
        case Corona(Path(n), Complete(1)) if n >= 2:
            tag = "corona-path-pendant"
        case Corona(Cycle(n), Complete(1)):
            tag = "corona-cycle-pendant"
        case Corona(Path(n), Empty(m)) if n >= 2 and m >= 1:
            tag = "corona-path-empty"
        case Corona(left, Complete(1)):
            g = families.realize(left)
            if g.vertex_count < 1 or not g.is_connected():
                return None
            tag, n = "corona-pendant", g.vertex_count
        case _:
            return None
    return FormulaResult(tag, n + 1)


def _join(spec: Join, factor_value: FactorValue) -> FormulaResult | None:
    """Claimed join value: the sum of the factors' TD-chromatic numbers."""
    a = factor_value(spec.left)
    b = factor_value(spec.right)
    return None if a is None or b is None else FormulaResult("join", a + b)


# spec class -> rule(spec, factor_value); a family without a closed form has no entry
_RULES: dict[type, Callable[..., FormulaResult | None]] = {
    Path: lambda s, _: FormulaResult("path", _path_value(s.n)) if s.n >= 2 else None,
    Cycle: _cycle,
    Friendship: _friendship,
    Ladder: lambda s, _: (
        FormulaResult("ladder", _ladder_value(s.n)) if s.n >= 2 else None
    ),
    Grid: lambda s, _: (
        FormulaResult("grid", _grid_value(s.m, s.n)) if s.m >= 2 and s.n >= 2 else None
    ),
    # chains of n triangles: 2*ceil(n/2) + 1; chains of n squares: 2n
    TriChain: lambda s, _: FormulaResult("triangular-chain", 2 * ((s.n + 1) // 2) + 1),
    OrthoChain: lambda s, _: FormulaResult("ortho-chain", 2 * s.n),
    Corona: _corona,
    Join: _join,
}


def formula_for_spec(
    spec: FamilySpec, factor_value: FactorValue | None = None
) -> FormulaResult | None:
    """Closed-form value for an instance, or None when no formula applies.

    Join instances need ``factor_value``, which gives each factor's
    TD-chromatic number (None where it is undefined) and may raise
    :class:`~tdcolor.solvers.BudgetExhaustedError`. The dispatcher never
    guesses: parameters outside a formula's domain yield None.
    """
    rule = _RULES.get(type(spec))
    return rule(spec, factor_value) if rule is not None else None
