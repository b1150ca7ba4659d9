"""Deterministic constructors for the supported graph families and products."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

from .graph import Graph

__all__ = [
    "Path",
    "Cycle",
    "Complete",
    "Empty",
    "Friendship",
    "Ladder",
    "Grid",
    "TriChain",
    "OrthoChain",
    "Corona",
    "Join",
    "Cart",
    "FamilySpec",
    "Family",
    "FAMILIES",
    "DOMAINS",
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "corona",
    "join",
    "cartesian_product",
    "friendship_family",
    "grid",
    "ladder",
    "triangle_chain",
    "square_chain",
    "realize",
]


class _Atom:
    """An atom's integer fields, each checked against its least value in DOMAINS."""

    def __post_init__(self) -> None:
        for name, (noun, least) in DOMAINS[type(self)].items():
            if getattr(self, name) < least:
                raise ValueError(f"{noun} must be >= {least}")


@dataclass(frozen=True)
class Path(_Atom):
    n: int


@dataclass(frozen=True)
class Cycle(_Atom):
    n: int


@dataclass(frozen=True)
class Complete(_Atom):
    n: int


@dataclass(frozen=True)
class Empty(_Atom):
    n: int


@dataclass(frozen=True)
class Friendship(_Atom):
    """n cycles of length q sharing one common vertex (q = 3: friendship graph)."""

    q: int
    n: int


@dataclass(frozen=True)
class Ladder(_Atom):
    n: int


@dataclass(frozen=True)
class Grid(_Atom):
    m: int
    n: int


@dataclass(frozen=True)
class TriChain(_Atom):
    n: int


@dataclass(frozen=True)
class OrthoChain(_Atom):
    n: int


# each atom's integer fields -> (the noun its error names, least value); the
# public constructors check their arguments by building the atom
DOMAINS: dict[type, dict[str, tuple[str, int]]] = {
    Path: {"n": ("path order", 1)},
    Cycle: {"n": ("cycle order", 3)},
    Complete: {"n": ("complete graph order", 1)},
    Empty: {"n": ("empty graph order", 0)},
    Friendship: {"q": ("blade cycle length", 3), "n": ("blade count", 1)},
    Ladder: {"n": ("ladder length", 1)},
    Grid: {"m": ("grid dimensions", 1), "n": ("grid dimensions", 1)},
    TriChain: {"n": ("chain length", 1)},
    OrthoChain: {"n": ("chain length", 1)},
}


@dataclass(frozen=True)
class Corona:
    left: "FamilySpec"
    right: "FamilySpec"


@dataclass(frozen=True)
class Join:
    left: "FamilySpec"
    right: "FamilySpec"


@dataclass(frozen=True)
class Cart:
    left: "FamilySpec"
    right: "FamilySpec"


FamilySpec = Union[
    Path,
    Cycle,
    Complete,
    Empty,
    Friendship,
    Ladder,
    Grid,
    TriChain,
    OrthoChain,
    Corona,
    Join,
    Cart,
]


def path_graph(n: int) -> Graph:
    Path(n)
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    Cycle(n)
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    Complete(n)
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    Empty(n)
    return Graph.from_edges(n, [])


def corona(g: Graph, h: Graph) -> Graph:
    """Corona product: one copy of h per vertex of g, fully joined to it.

    Vertices of g come first; copy i of h occupies the block starting at
    ``g.vertex_count + i * h.vertex_count``.
    """
    ng, nh = g.vertex_count, h.vertex_count
    edges = list(g.edges())
    h_edges = h.edges()
    for i in range(ng):
        base = ng + i * nh
        edges.extend((base + a, base + b) for a, b in h_edges)
        edges.extend((i, base + j) for j in range(nh))
    return Graph.from_edges(ng + ng * nh, edges)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union of g and h plus every edge between the two vertex sets."""
    ng, nh = g.vertex_count, h.vertex_count
    edges = list(g.edges())
    edges.extend((ng + a, ng + b) for a, b in h.edges())
    edges.extend((u, ng + w) for u in range(ng) for w in range(nh))
    return Graph.from_edges(ng + nh, edges)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (u, v) maps to index u * |V(h)| + v."""
    nh = h.vertex_count
    edges: list[tuple[int, int]] = []
    h_edges = h.edges()
    for u in range(g.vertex_count):
        edges.extend((u * nh + a, u * nh + b) for a, b in h_edges)
    for u, v in g.edges():
        edges.extend((u * nh + w, v * nh + w) for w in range(nh))
    return Graph.from_edges(g.vertex_count * nh, edges)


def friendship_family(q: int, n: int) -> Graph:
    """n cycles of length q meeting at vertex 0.

    Blade i occupies vertices ``1 + i*(q-1) .. (i+1)*(q-1)``, forming a path
    whose two endpoints both join the center.
    """
    Friendship(q, n)
    edges: list[tuple[int, int]] = []
    for i in range(n):
        first = 1 + i * (q - 1)
        last = first + q - 2
        edges.extend((w, w + 1) for w in range(first, last))
        edges.append((0, first))
        edges.append((0, last))
    return Graph.from_edges(n * (q - 1) + 1, edges)


def grid(m: int, n: int) -> Graph:
    """m-by-n grid with row-major labels; equals cartesian_product of paths."""
    Grid(m, n)
    return cartesian_product(path_graph(m), path_graph(n))


def ladder(n: int) -> Graph:
    """The ladder with n rungs: the 2-by-n grid."""
    Ladder(n)
    return grid(2, n)


def triangle_chain(n: int) -> Graph:
    """Chain of n triangles joined at consecutive cut-vertices.

    Cut-vertices are labeled 0..n and are adjacent along the chain; triangle
    i is (i, apex_i, i+1) with apex_i = n + 1 + i.
    """
    TriChain(n)
    edges = [(i, i + 1) for i in range(n)]
    for i in range(n):
        apex = n + 1 + i
        edges += [(i, apex), (apex, i + 1)]
    return Graph.from_edges(2 * n + 1, edges)


def square_chain(n: int) -> Graph:
    """Chain of n squares joined at consecutive cut-vertices.

    Cut-vertices are labeled 0..n and are adjacent along the chain; square i
    is the 4-cycle (i, x_i, y_i, i+1), so the two cut-vertices of a square are
    adjacent inside it.
    """
    OrthoChain(n)
    edges = [(i, i + 1) for i in range(n)]
    for i in range(n):
        x = n + 1 + 2 * i
        y = x + 1
        edges += [(i, x), (x, y), (y, i + 1)]
    return Graph.from_edges(3 * n + 1, edges)


class Family(NamedTuple):
    """How one spec class is written and built."""

    head: str  # expression head, e.g. "P" or "corona"
    build: Callable[..., Graph]  # the spec's fields in order, sub-specs realized


# the one place that knows each family; the parser and pretty read it too
FAMILIES: dict[type, Family] = {
    Path: Family("P", path_graph),
    Cycle: Family("C", cycle_graph),
    Complete: Family("K", complete_graph),
    Empty: Family("E", empty_graph),
    Friendship: Family("D", friendship_family),
    Ladder: Family("L", ladder),
    Grid: Family("G", grid),
    TriChain: Family("T", triangle_chain),
    OrthoChain: Family("O", square_chain),
    Corona: Family("corona", corona),
    Join: Family("join", join),
    Cart: Family("cart", cartesian_product),
}


def realize(spec: FamilySpec) -> Graph:
    """Build the labeled graph for a family spec; deterministic."""
    family = FAMILIES.get(type(spec))
    if family is None:
        raise TypeError(f"not a family spec: {spec!r}")
    return family.build(
        *(realize(v) if type(v) in FAMILIES else v for v in vars(spec).values())
    )
