"""Vertex colorings plus proper- and total-dominator-coloring checks.

A total dominator coloring is a proper coloring in which every vertex is
adjacent to *all* vertices of at least one (non-empty) color class. A vertex
can never witness its own class, because it is not adjacent to itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable
from .graph import Graph, _bits

__all__ = [
    "Coloring",
    "normalize",
    "is_proper",
    "is_td_coloring",
]


@dataclass(frozen=True)
class Coloring:
    """Assignment of 1-based integer colors to vertices ``0 .. len(colors)-1``."""

    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        for v, c in enumerate(self.colors):
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"vertex {v} has invalid color {c!r}; colors are integers >= 1")

    @property
    def num_colors(self) -> int:
        """Number of distinct colors actually used."""
        return len(set(self.colors))

    def classes(self) -> dict[int, frozenset[int]]:
        """Non-empty color classes keyed by color, in ascending color order."""
        return {c: frozenset(_bits(m)) for c, m in sorted(_class_masks(self.colors).items())}


def _class_masks(colors: tuple[int, ...]) -> dict[int, int]:
    """The vertices of each color as a bitmask, by color."""
    masks: dict[int, int] = {}
    for v, c in enumerate(colors):
        masks[c] = masks.get(c, 0) | 1 << v
    return masks


def _first_appearance(colors: Iterable[int]) -> tuple[int, ...]:
    """``colors`` relabeled to 1..k in order of first appearance."""
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(c, len(remap) + 1) for c in colors)


def normalize(coloring: Coloring) -> Coloring:
    """Relabel colors to 1..k in order of first appearance; idempotent."""
    return Coloring(_first_appearance(coloring.colors))


def _check_sized(g: Graph, coloring: Coloring) -> None:
    if len(coloring.colors) != g.vertex_count:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for a graph on "
            f"{g.vertex_count} vertices"
        )


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """True iff no edge joins two vertices of the same color."""
    _check_sized(g, coloring)
    return _no_edge_inside(g, coloring.colors, _class_masks(coloring.colors))


def _no_edge_inside(g: Graph, colors: tuple[int, ...], classes: dict[int, int]) -> bool:
    """True iff no vertex has a neighbor in its own class of ``classes``."""
    return not any(m & classes[c] for m, c in zip(g.masks, colors))


def is_td_coloring(g: Graph, coloring: Coloring) -> bool:
    """True iff proper and every vertex is adjacent to all of some color class."""
    _check_sized(g, coloring)
    classes = _class_masks(coloring.colors)
    if not _no_edge_inside(g, coloring.colors, classes):
        return False
    members = classes.values()
    return all(any(not b & ~m for b in members) for m in g.masks)
