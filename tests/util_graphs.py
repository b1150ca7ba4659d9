"""Shared graph generators and independent brute-force oracles for tests."""

from __future__ import annotations

import itertools
import random
import time

from hypothesis import strategies as st

from tdcolor.coloring import Coloring, is_td_coloring, normalize
from tdcolor.graph import Graph
from tdcolor.solvers import SolveResult


def random_connected_graph(rng: random.Random, lo: int = 4, hi: int = 8) -> Graph:
    """Pseudo-random connected graph with lo..hi vertices; deterministic per rng."""
    while True:
        n = rng.randint(lo, hi)
        p = rng.uniform(0.25, 0.7)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = Graph.from_edges(n, edges)
        if g.is_connected():
            return g


def brute_force_gamma_t(g: Graph) -> int | None:
    """Minimum total dominating set size by plain subset enumeration."""
    n = g.vertex_count
    for size in range(1, n + 1):
        for comb in itertools.combinations(range(n), size):
            members = set(comb)
            if all(g.adjacency[v] & members for v in range(n)):
                return size
    return None


def brute_force_chromatic(g: Graph) -> int:
    """Minimum proper-coloring size by enumerating all assignments (tiny n only)."""
    n = g.vertex_count
    if n == 0:
        return 0
    edges = g.edges()
    for k in range(1, n + 1):
        for assignment in itertools.product(range(k), repeat=n):
            if all(assignment[u] != assignment[v] for u, v in edges):
                return k
    raise AssertionError("unreachable")


def reference_td_oracle(g: Graph, cap: int = 10) -> SolveResult:
    """The partition oracle with every complete partition checked by is_td_coloring.

    Same enumeration as ``td_chromatic_oracle`` (restricted-growth strings,
    properness filter, prune once a partition has ``best_k`` classes), kept
    as the reference that its bitmask leaf test is compared against.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("TD-coloring needs at least 2 vertices")
    if g.has_isolated_vertex():
        raise ValueError("TD-coloring undefined: graph has an isolated vertex")
    if n > cap:
        raise ValueError(f"graph has {n} vertices; oracle cap is {cap}")

    started = time.perf_counter()
    nbr_mask = [sum(1 << u for u in g.adjacency[v]) for v in range(n)]
    assign = [0] * n
    blocks: list[int] = []
    best_k = n + 1
    best: tuple[int, ...] | None = None
    examined = 0

    def recurse(v: int) -> None:
        nonlocal best_k, best, examined
        if len(blocks) >= best_k:
            return  # already no better than the best complete partition
        if v == n:
            examined += 1
            coloring = Coloring(tuple(c + 1 for c in assign))
            if is_td_coloring(g, coloring):
                best_k = len(blocks)
                best = coloring.colors
            return
        vbit = 1 << v
        for b in range(len(blocks)):
            if not blocks[b] & nbr_mask[v]:
                assign[v] = b
                blocks[b] |= vbit
                recurse(v + 1)
                blocks[b] ^= vbit
        blocks.append(vbit)
        assign[v] = len(blocks) - 1
        recurse(v + 1)
        blocks.pop()

    recurse(0)
    if best is None:
        raise AssertionError("unreachable: all-singleton classes always dominate here")
    witness = normalize(Coloring(best))
    return SolveResult(best_k, witness, examined, time.perf_counter() - started, 1, n)


@st.composite
def graphs(draw, min_vertices: int = 0, max_vertices: int = 8):
    """Arbitrary simple graphs."""
    n = draw(st.integers(min_vertices, max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True))
    else:
        edges = []
    return Graph.from_edges(n, edges)


@st.composite
def connected_graphs(draw, min_vertices: int = 2, max_vertices: int = 8):
    """Connected graphs built from a random spanning tree plus extra edges."""
    n = draw(st.integers(min_vertices, max_vertices))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if possible:
        edges.update(draw(st.lists(st.sampled_from(possible), unique=True)))
    return Graph.from_edges(n, sorted(edges))
