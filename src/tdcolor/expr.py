"""Surface syntax for family expressions.

Grammar (heads case-insensitive, whitespace insignificant)::

    expr := atom | op
    atom := P(n) | C(n) | K(n) | E(n) | F(n) | D(q,n) | L(n) | G(m,n) | T(n) | O(n)
    op   := corona(expr,expr) | join(expr,expr) | cart(expr,expr)

``F(n)`` is shorthand for ``D(3,n)``. Syntax errors carry a 0-based offset.
Operators nest at most 100 deep, since building and printing an expression
recurse once per level.
"""

from __future__ import annotations

from dataclasses import fields

from . import families
from .families import FAMILIES, FamilySpec

__all__ = ["ExprSyntaxError", "parse_expr", "pretty"]

_MAX_DEPTH = 100  # operators nested in one another


class ExprSyntaxError(ValueError):
    """Syntax error with the 0-based offset of the offending character."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# lower-case head -> (constructor, for each field: whether it is an integer)
_SYNTAX = {
    family.head.lower(): (cls, tuple(f.type in ("int", int) for f in fields(cls)))
    for cls, family in FAMILIES.items()
}
_SYNTAX["f"] = (lambda n: families.Friendship(3, n), (True,))


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected an integer", start)
        return int(self.text[start : self.pos])

    def parse_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise ExprSyntaxError("expected a family or operator name", start)
        return self.text[start : self.pos].lower(), start

    def parse(self, depth: int = 0) -> FamilySpec:
        name, start = self.parse_name()
        if depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"operators nested more than {_MAX_DEPTH} deep", start)
        if name not in _SYNTAX:
            raise ExprSyntaxError(f"unknown name {name!r}", start)
        make, int_fields = _SYNTAX[name]
        self.expect("(")
        args = []
        for i, is_int in enumerate(int_fields):
            if i:
                self.expect(",")
            args.append(self.parse_int() if is_int else self.parse(depth + 1))
        self.expect(")")
        return make(*args)


def parse_expr(text: str) -> FamilySpec:
    """Parse a family expression; see module docstring for the grammar."""
    parser = _Parser(text)
    spec = parser.parse()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ExprSyntaxError("unexpected trailing input", parser.pos)
    return spec


def pretty(spec: FamilySpec) -> str:
    """Canonical text for a spec; ``parse_expr(pretty(s)) == s``."""
    family = FAMILIES.get(type(spec))
    if family is None:
        raise TypeError(f"not a family spec: {spec!r}")
    if type(spec) is families.Friendship and spec.q == 3:
        return f"F({spec.n})"
    args = (pretty(v) if type(v) in FAMILIES else str(v) for v in vars(spec).values())
    return f"{family.head}({','.join(args)})"
