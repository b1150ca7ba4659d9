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
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "empty_graph",
    "corona",
    "join",
    "cartesian_product",
    "friendship_family",
    "grid",
    "triangle_chain",
    "square_chain",
    "realize",
]


@dataclass(frozen=True)
class Path:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("path order must be >= 1")


@dataclass(frozen=True)
class Cycle:
    n: int

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError("cycle order must be >= 3")


@dataclass(frozen=True)
class Complete:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("complete graph order must be >= 1")


@dataclass(frozen=True)
class Empty:
    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("empty graph order must be >= 0")


@dataclass(frozen=True)
class Friendship:
    """n cycles of length q sharing one common vertex (q = 3: friendship graph)."""

    q: int
    n: int

    def __post_init__(self) -> None:
        if self.q < 3:
            raise ValueError("blade cycle length must be >= 3")
        if self.n < 1:
            raise ValueError("blade count must be >= 1")


@dataclass(frozen=True)
class Ladder:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ladder length must be >= 1")


@dataclass(frozen=True)
class Grid:
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("grid dimensions must be >= 1")


@dataclass(frozen=True)
class TriChain:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("chain length must be >= 1")


@dataclass(frozen=True)
class OrthoChain:
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("chain length must be >= 1")


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
    if n < 1:
        raise ValueError("path order must be >= 1")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle order must be >= 3")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph order must be >= 1")
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def empty_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("empty graph order must be >= 0")
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
    if q < 3:
        raise ValueError("blade cycle length must be >= 3")
    if n < 1:
        raise ValueError("blade count must be >= 1")
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
    return cartesian_product(path_graph(m), path_graph(n))


def triangle_chain(n: int) -> Graph:
    """Chain of n triangles joined at consecutive cut-vertices.

    Cut-vertices are labeled 0..n and are adjacent along the chain; triangle
    i is (i, apex_i, i+1) with apex_i = n + 1 + i.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
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
    if n < 1:
        raise ValueError("chain length must be >= 1")
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
    Ladder: Family("L", lambda n: grid(2, n)),
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
