"""Immutable simple undirected graphs with DIMACS .col import/export.

Vertices are always the contiguous integers ``0 .. vertex_count - 1``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["Graph", "DimacsError"]


class DimacsError(ValueError):
    """Raised for malformed DIMACS .col input."""


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no multi-edges, no direction.

    Instances are immutable and safe to share between concurrent workers.
    The graph is stored as neighbor bitmasks: bit u of ``masks[v]`` is set
    exactly when u and v are adjacent, so ``masks[v]`` is the open
    neighborhood of ``v``.
    """

    vertex_count: int
    masks: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.vertex_count
        masks = self.masks
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(masks) != n:
            raise ValueError("mask count does not match vertex count")
        above = total = 0
        for v, m in enumerate(masks):
            if m < 0:
                raise ValueError(f"neighbor mask of vertex {v} is negative")
            if m >> n:
                raise ValueError(f"neighbor {m.bit_length() - 1} of vertex {v} out of range")
            if m >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            up = m >> v + 1
            above += up.bit_count()
            total += m.bit_count()
            while up:
                low = up & -up
                u = v + low.bit_length()
                if not masks[u] >> v & 1:
                    raise ValueError(f"asymmetric edge ({v}, {u})")
                up ^= low
        # every bit above the diagonal is mirrored below it, so equal counts
        # leave no bit below the diagonal unmirrored
        if 2 * above != total:
            v, u = next(
                (v, u) for v in range(n) for u in _bits(masks[v]) if not masks[u] >> v & 1
            )
            raise ValueError(f"asymmetric edge ({v}, {u})")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> Graph:
        """Build a graph from an edge list; duplicate edges collapse."""
        masks = [0] * vertex_count
        for u, v in edges:
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{vertex_count - 1}"
                )
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) is not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return cls(vertex_count, tuple(masks))

    def neighbors(self, v: int) -> frozenset[int]:
        """Open neighborhood of ``v``; never contains ``v`` itself."""
        self._check_vertex(v)
        return frozenset(_bits(self.masks[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.masks[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as ``(u, v)`` pairs with ``u < v``, sorted."""
        return [
            (u, u + 1 + v)
            for u, m in enumerate(self.masks)
            for v in _bits(m >> u + 1)
        ]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.masks) // 2

    def is_connected(self) -> bool:
        """True iff every vertex is reachable from vertex 0 (true for n <= 1)."""
        if self.vertex_count <= 1:
            return True
        seen = frontier = 1
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= self.masks[v]
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.vertex_count) - 1

    def has_isolated_vertex(self) -> bool:
        return 0 in self.masks

    def to_dimacs(self) -> str:
        """Serialize as DIMACS .col text: ``p edge n m`` header, 1-based edges."""
        lines = [f"p edge {self.vertex_count} {self.edge_count}"]
        lines.extend(f"e {u + 1} {v + 1}" for u, v in self.edges())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_dimacs(cls, text: str) -> Graph:
        """Parse DIMACS .col text.

        Comment lines starting with ``c`` and blank lines are ignored. The
        declared edge count must equal the number of distinct edges.
        """
        vertex_count: int | None = None
        declared = 0
        masks: list[int] = []
        for raw in text.splitlines():
            parts = raw.split()
            if not parts or parts[0][0] == "c":
                continue
            if parts[0] == "p":
                if vertex_count is not None:
                    raise DimacsError("duplicate problem line")
                if len(parts) != 4 or parts[1] != "edge":
                    raise DimacsError(f"malformed problem line: {raw.strip()!r}")
                try:
                    vertex_count, declared = int(parts[2]), int(parts[3])
                except ValueError:
                    raise DimacsError(f"malformed problem line: {raw.strip()!r}") from None
                if vertex_count < 0 or declared < 0:
                    raise DimacsError(f"negative counts in problem line: {raw.strip()!r}")
                masks = [0] * vertex_count
            elif parts[0] == "e":
                if vertex_count is None:
                    raise DimacsError("edge line before problem line")
                if len(parts) != 3:
                    raise DimacsError(f"malformed edge line: {raw.strip()!r}")
                try:
                    u, v = int(parts[1]), int(parts[2])
                except ValueError:
                    raise DimacsError(f"malformed edge line: {raw.strip()!r}") from None
                if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                    raise DimacsError(f"edge ({u}, {v}) out of range 1..{vertex_count}")
                if u == v:
                    raise DimacsError(f"self-loop edge at vertex {u}")
                masks[u - 1] |= 1 << v - 1
                masks[v - 1] |= 1 << u - 1
            else:
                raise DimacsError(f"unrecognized line: {raw.strip()!r}")
        if vertex_count is None:
            raise DimacsError("missing problem line")
        g = cls(vertex_count, tuple(masks))
        if g.edge_count != declared:
            raise DimacsError(
                f"problem line declares {declared} edges, found {g.edge_count} distinct"
            )
        return g

    def canonical_key(self) -> str:
        """Deterministic cache key for this labeled graph.

        Label-sensitive (hash of the sorted edge list), not an isomorphism
        invariant: equal labeled graphs get equal keys, isomorphic relabelings
        generally do not.
        """
        payload = f"{self.vertex_count}|" + ",".join(
            f"{u}-{v}" for u, v in self.edges()
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range 0..{self.vertex_count - 1}")
