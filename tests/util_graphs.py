"""Shared graph generators and independent brute-force oracles for tests."""

from __future__ import annotations

import itertools
import random
import time

from hypothesis import strategies as st

from tdcolor.coloring import Coloring, is_td_coloring, normalize
from tdcolor.graph import Graph
from tdcolor.solvers import SolveResult, _branch_order, _Budget, _neighbor_masks


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


def reference_proper_exact_k(g: Graph, k: int, order: list[int], budget: _Budget) -> list[int] | None:
    """Any proper coloring with colors 1..k, or None. Canonical color order.

    Colors vertices in the static ``order``; kept as the reference that the
    saturation-ordered search is compared against.
    """
    n = g.vertex_count
    adj = g.adjacency
    color_of = [0] * n
    result: list[int] | None = None

    def extend(depth: int, max_used: int) -> bool:
        nonlocal result
        if depth == n:
            result = color_of[:]
            return True
        v = order[depth]
        forbidden = {color_of[u] for u in adj[v] if color_of[u]}
        limit = min(max_used + 1, k)
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            budget.spend()
            color_of[v] = c
            if extend(depth + 1, max_used if c <= max_used else c):
                return True
            color_of[v] = 0
        return False

    extend(0, 0)
    return result


def reference_chromatic_search(g: Graph, budget: _Budget) -> tuple[int, list[int], int, int]:
    """Exact chromatic number: (value, colors, lower bound, upper bound)."""
    n = g.vertex_count
    if n == 0:
        return 0, [], 0, 0
    order = _branch_order(g)
    adj = g.adjacency

    greedy = [0] * n
    for v in order:
        used = {greedy[u] for u in adj[v] if greedy[u]}
        c = 1
        while c in used:
            c += 1
        greedy[v] = c
    ub = max(greedy)

    clique: list[int] = []
    for v in order:
        if all(u in adj[v] for u in clique):
            clique.append(v)
    lb = max(1, len(clique))

    for k in range(lb, ub):
        found = reference_proper_exact_k(g, k, order, budget)
        if found is not None:
            return k, found, lb, ub
    return ub, greedy, lb, ub


def reference_total_dom_search(g: Graph, budget: _Budget) -> tuple[int, tuple[int, ...], int, int]:
    """Exact total domination number by increasing-cardinality subset search.

    Enumerates k-subsets in index order with a suffix-coverage prune; kept as
    the reference that the undominated-vertex branching is compared against.
    """
    n = g.vertex_count
    nbr_mask = _neighbor_masks(g)
    full = (1 << n) - 1
    # suffix[i]: union of neighborhoods coverable by vertices i..n-1
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | nbr_mask[i]

    max_deg = max(len(a) for a in g.adjacency)
    lower = max(2, -(-n // max_deg))
    chosen: list[int] = []
    witness: tuple[int, ...] = ()

    def extend(start: int, picks_left: int, covered: int) -> bool:
        nonlocal witness
        if picks_left == 0:
            if covered == full:
                witness = tuple(chosen)
                return True
            return False
        if covered | suffix[start] != full:
            return False  # remaining candidates cannot cover what is missing
        for v in range(start, n - picks_left + 1):
            budget.spend()
            chosen.append(v)
            if extend(v + 1, picks_left - 1, covered | nbr_mask[v]):
                return True
            chosen.pop()
        return False

    for size in range(lower, n + 1):
        if extend(0, size, 0):
            return size, witness, lower, n
    raise AssertionError("unreachable: V itself totally dominates an isolated-free graph")


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
