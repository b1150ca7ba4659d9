"""Shared graph generators and independent brute-force oracles for tests."""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path
from typing import Iterable
from unittest import mock

from hypothesis import strategies as st

from tdcolor import solvers
from tdcolor.coloring import Coloring, is_td_coloring, normalize
from tdcolor.graph import Graph
from tdcolor.solvers import (
    SolveResult,
    _branch_order,
    _Budget,
    _can_cover,
    _in_exactly_one,
    _neighbor_masks,
)


# the benchmark's frontier workload: seven families from easy orders to past
# the frontier of an earlier k-loop
FRONTIER = [
    *(f"P({n})" for n in (12, 14, 16, 18, 20, 22)),
    *(f"C({n})" for n in (12, 14, 16, 18, 20)),
    *(f"L({n})" for n in (5, 6, 7, 8, 9)),
    *(f"G(4,{n})" for n in (3, 4, 5)),
    *(f"O({n})" for n in (3, 4, 5, 6)),
    *(f"T({n})" for n in (6, 8, 10, 12, 14)),
    *(f"D(5,{n})" for n in (2, 3, 4, 5)),
]

# each FRONTIER instance's rounds as [k, nodes, coloring or None], written
# by make_frontier_rounds.py
FRONTIER_ROUNDS_PATH = Path(__file__).parent / "data" / "frontier_rounds.json"

# the sparse family members whose total domination number the benchmark's
# bounds workload solves
BOUNDS_TOTALDOM = ["P(32)", "C(32)", "G(5,6)", "O(10)", "D(5,7)", "L(14)"]

# instances whose total_domination_number is pinned as [value, lower bound,
# nodes, witness] in TOTALDOM_PHASE_PATH, written by make_frontier_rounds.py
TOTALDOM_PHASE = [*FRONTIER, *BOUNDS_TOTALDOM, "T(30)"]
TOTALDOM_PHASE_PATH = Path(__file__).parent / "data" / "totaldom_phase.json"


# seeded sparse random graphs, each pinned with its rounds as {"n", "edges",
# "rounds"} in RANDOM_ROUNDS_PATH by make_frontier_rounds.py; sparse, since
# few colors per class leave the cap on classes that dominate nobody tight
RANDOM_ROUNDS_SEEDS = range(60)
RANDOM_ROUNDS_PATH = Path(__file__).parent / "data" / "random_rounds.json"


def recorded_solve(g: Graph):
    """Solve g; the merge's (input, output, nodes), and each round's (k, nodes, found)."""
    merge_classes, td_exact_k = solvers._merge_classes, solvers._td_exact_k
    merges: list[tuple[list[int], list[int], int]] = []
    rounds: list[tuple[int, int, list[int] | None]] = []

    def merge(colors, nbr_mask, budget):
        before = budget.nodes
        merged = merge_classes(colors, nbr_mask, budget)
        merges.append((colors, merged, budget.nodes - before))
        return merged

    def round_(k, gamma, order, nbr_mask, budget, symmetry):
        before = budget.nodes
        found = td_exact_k(k, gamma, order, nbr_mask, budget, symmetry)
        rounds.append((k, budget.nodes - before, found))
        return found

    with mock.patch.object(solvers, "_merge_classes", merge), mock.patch.object(
        solvers, "_td_exact_k", round_
    ):
        res = solvers.td_chromatic_number(g)
    (merge_record,) = merges
    return res, merge_record, rounds


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


def sparse_connected_graph(rng: random.Random, lo: int = 10, hi: int = 16) -> Graph:
    """A random spanning tree on lo..hi vertices plus up to n // 2 random edges.

    Deterministic per rng.
    """
    n = rng.randint(lo, hi)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n // 2)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def sparse_bipartite_graph(rng: random.Random, lo: int = 10, hi: int = 16) -> Graph:
    """A random spanning tree on lo..hi vertices plus up to n // 2 random edges between its sides.

    Deterministic per rng. The sides are the tree's two color classes.
    """
    n = rng.randint(lo, hi)
    side = [0] * n
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        side[v] = 1 - side[u]
        edges.add((u, v))
    for _ in range(rng.randint(0, n // 2)):
        u, v = sorted(rng.sample(range(n), 2))
        if side[u] != side[v]:
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def planted_graph(rng: random.Random, n: int, k: int, p: float) -> Graph:
    """Random k-partite graph plus a k-clique across the parts: chi is exactly k."""
    part = [i % k for i in range(n)]
    rng.shuffle(part)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v] and rng.random() < p}
    reps = sorted(part.index(c) for c in range(k))
    edges |= {(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]}
    return Graph.from_edges(n, sorted(edges))


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
    properness filter, prune once a partition has ``best_k`` classes), but
    without its closed-neighborhood cut. Kept as the reference that the
    oracle's value, witness and partition count are compared against.
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


def reference_dsatur_proper_exact_k(
    g: Graph, k: int, order: list[int], budget: _Budget
) -> list[int] | None:
    """Any proper coloring with colors 1..k, or None. Canonical color order.

    Branches on the uncolored vertex with the most distinct neighbor colors
    (DSATUR), ties broken by position in ``order``, and fails as soon as that
    vertex sees all k colors. Kept as the reference that the search with
    forced-color propagation is compared against.
    """
    n = g.vertex_count
    adj = g.adjacency
    color_of = [0] * n
    nbr_colors = [0] * n  # colors present in N(v), uncolored v only
    result: list[int] | None = None

    def extend(depth: int, max_used: int) -> bool:
        nonlocal result
        if depth == n:
            result = color_of[:]
            return True
        v, sat = -1, -1
        for u in order:
            if not color_of[u] and nbr_colors[u].bit_count() > sat:
                v, sat = u, nbr_colors[u].bit_count()
        if sat == k:
            return False
        for c in range(1, min(max_used + 1, k) + 1):
            cbit = 1 << (c - 1)
            if nbr_colors[v] & cbit:
                continue
            budget.spend()
            color_of[v] = c
            changed = [u for u in adj[v] if not color_of[u] and not nbr_colors[u] & cbit]
            for u in changed:
                nbr_colors[u] |= cbit
            if extend(depth + 1, max_used if c <= max_used else c):
                return True
            for u in changed:
                nbr_colors[u] ^= cbit
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


def reference_order_clique_chromatic_search(
    g: Graph, budget: _Budget
) -> tuple[int, list[int], int, int]:
    """Exact chromatic number: (value, colors, lower bound, upper bound).

    The DSATUR search without forced-color propagation, with only the
    greedy clique in branch order as its lower bound. Kept as the reference that the best-of-cliques bound's
    value, witness, node count and lower bound are compared against.
    """
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
        found = reference_dsatur_proper_exact_k(g, k, order, budget)
        if found is not None:
            return k, found, lb, ub
    return ub, greedy, lb, ub


def reference_degree_bound_dom_search(
    g: Graph, budget: _Budget
) -> tuple[int, tuple[int, ...], int, int]:
    """Exact total domination number by increasing-cardinality search.

    The undominated-vertex branching with only the "picks left times the
    maximum degree" prune, started at ceil(n / max degree). Kept as the
    reference that the packing-bound search's value is compared against.
    """
    n = g.vertex_count
    nbr_mask = _neighbor_masks(g)
    nbr_list = [sorted(a) for a in g.adjacency]
    full = (1 << n) - 1
    max_deg = max(len(a) for a in g.adjacency)
    lower = max(2, -(-n // max_deg))
    chosen: list[int] = []
    witness: tuple[int, ...] = ()

    def extend(picks_left: int, covered: int, excluded: int) -> bool:
        nonlocal witness
        undominated = full & ~covered
        if not undominated:
            witness = tuple(sorted(chosen))
            return True
        if picks_left * max_deg < undominated.bit_count():
            return False  # each pick dominates at most max_deg more vertices
        w = (undominated & -undominated).bit_length() - 1
        for v in nbr_list[w]:
            if excluded >> v & 1:
                continue
            budget.spend()
            chosen.append(v)
            if extend(picks_left - 1, covered | nbr_mask[v], excluded):
                return True
            chosen.pop()
            excluded |= 1 << v
        return False

    for size in range(lower, n + 1):
        if extend(size, 0, 0):
            return size, witness, lower, n
    raise AssertionError("unreachable: V itself totally dominates an isolated-free graph")


def reference_gain_sum_can_cover(
    need: int, picks: int, gains: Iterable[int], max_deg: int
) -> bool:
    """False when no ``picks`` candidate sets, each used once, can cover ``need``.

    ``gains`` holds each candidate's count of vertices in ``need``, and
    ``max_deg`` bounds every count. A counting test against ``|need|``:
    first ``picks`` times ``max_deg``, then the sum of the ``picks`` largest
    gains. ``gains`` is read only when the first test passes, so a generator
    costs little then. True does not promise a cover.

    Kept, with :func:`reference_gain_sum_dom_search`, as the sum-of-gains
    test that the open-packing test of ``solvers._can_cover`` must cut at
    least as hard as.
    """
    short = need.bit_count()
    if picks * max_deg < short:
        return False
    return sum(sorted(gains, reverse=True)[:picks]) >= short


def reference_gain_sum_dom_search(
    g: Graph, budget: _Budget
) -> tuple[int, tuple[int, ...], int, int]:
    """Exact total domination number by increasing-cardinality search.

    For each target size, branches on the neighbors of the lowest-index
    undominated vertex (one of them must be in the set); a neighbor refuted
    for one branch is excluded from its later siblings, so each set is
    reached at most once.

    Packing bound: each remaining pick is a distinct vertex u that is not
    excluded, and it dominates nothing outside N(u). So a branch is cut when
    the ``picks_left`` largest counts of undominated vertices in N(u), over
    the non-excluded u, sum to less than the undominated count (tested after
    the cheaper ``picks_left`` times the maximum degree). The size loop starts
    at the root case: the fewest picks whose largest degrees sum to at least
    n, never below ceil(n / max degree). Both cut only subtrees that hold no
    total dominating set of the target size, and the branch order is
    unchanged, so the first set found is the same as without them.

    Kept as the reference that the open-packing search's value is compared
    against.
    """
    n = g.vertex_count
    nbr_mask = _neighbor_masks(g)
    nbr_list = [sorted(a) for a in g.adjacency]
    full = (1 << n) - 1
    degrees = [len(a) for a in g.adjacency]
    max_deg = max(degrees)
    # the root case of the packing bound below
    lower = next(
        p for p in range(2, n + 1) if reference_gain_sum_can_cover(full, p, degrees, max_deg)
    )
    chosen: list[int] = []
    witness: tuple[int, ...] = ()

    def extend(picks_left: int, covered: int, excluded: int) -> bool:
        nonlocal witness
        undominated = full & ~covered
        if not undominated:
            witness = tuple(sorted(chosen))
            return True
        # each pick is a distinct non-excluded u and dominates only N(u)
        gains = (
            (nbr_mask[u] & undominated).bit_count() for u in range(n) if not excluded >> u & 1
        )
        if not reference_gain_sum_can_cover(undominated, picks_left, gains, max_deg):
            return False
        w = (undominated & -undominated).bit_length() - 1
        for v in nbr_list[w]:
            if excluded >> v & 1:
                continue
            budget.spend()
            chosen.append(v)
            if extend(picks_left - 1, covered | nbr_mask[v], excluded):
                return True
            chosen.pop()
            excluded |= 1 << v
        return False

    for size in range(lower, n + 1):
        if extend(size, 0, 0):
            return size, witness, lower, n
    raise AssertionError("unreachable: V itself totally dominates an isolated-free graph")


def reference_td_exact_k(
    g: Graph,
    k: int,
    order: list[int],
    nbr_mask: list[int],
    nbr_list: list[list[int]],
    non_nbr_list: list[list[int]],
    budget: _Budget,
) -> list[int] | None:
    """Search for a total dominator coloring with exactly k classes.

    The k-loop search without the domination-capacity bound: properness,
    canonical color order and the per-vertex ``can_witness`` feasibility
    prunes only. Kept as the reference that the bounded search's value,
    witness and node count are compared against.
    """
    n = g.vertex_count
    if k > n:
        return None
    all_colors = (1 << k) - 1  # bit c-1 stands for color c
    color_of = [0] * n
    class_mask = [0] * (k + 1)  # indexed by 1-based color
    nbr_colors = [0] * n  # colors present in N(v), uncolored v only
    can_witness = [all_colors] * n
    uncolored_nbrs = [len(nbr_list[v]) for v in range(n)]
    result: list[int] | None = None

    def witness_ok(w: int) -> bool:
        # some candidate color already has a member inside N(w)
        cand = can_witness[w]
        nb = nbr_mask[w]
        while cand:
            low = cand & -cand
            if class_mask[low.bit_length()] & nb:
                return True
            cand -= low
        return False

    def extend(depth: int, max_used: int) -> bool:
        nonlocal result
        if depth == n:
            if max_used == k:
                result = color_of[:]
                return True
            return False
        v = order[depth]
        vbit = 1 << v
        remaining_after = n - depth - 1
        if k - max_used > remaining_after + 1:
            return False
        must_new = k - max_used == remaining_after + 1
        start_c = max_used + 1 if must_new else 1
        limit = min(max_used + 1, k)
        v_nbrs = nbr_list[v]
        for c in range(start_c, limit + 1):
            cbit = 1 << (c - 1)
            if nbr_colors[v] & cbit:
                continue
            budget.spend()
            color_of[v] = c
            class_mask[c] |= vbit
            sat_changed: list[int] = []
            for u in v_nbrs:
                uncolored_nbrs[u] -= 1
                if not color_of[u] and not nbr_colors[u] & cbit:
                    nbr_colors[u] |= cbit
                    sat_changed.append(u)
            w_undo: list[tuple[int, int]] = []
            # neighbors whose neighborhood just filled must be dominated now;
            # tested first because the sweep below cannot change the outcome
            ok = True
            for u in v_nbrs:
                if not uncolored_nbrs[u] and not witness_ok(u):
                    ok = False
                    break
            if ok:
                # v now sits outside N(w) for every non-neighbor w: color c
                # can no longer form a witness class for those vertices
                for w in non_nbr_list[v]:
                    old = can_witness[w]
                    if old & cbit:
                        new = old & ~cbit
                        can_witness[w] = new
                        w_undo.append((w, old))
                        if not new or (not uncolored_nbrs[w] and not witness_ok(w)):
                            ok = False
                            break
            if ok and extend(depth + 1, max_used if c <= max_used else c):
                return True
            for w, old in w_undo:
                can_witness[w] = old
            for u in sat_changed:
                nbr_colors[u] ^= cbit
            for u in v_nbrs:
                uncolored_nbrs[u] += 1
            class_mask[c] ^= vbit
            color_of[v] = 0
        return False

    extend(0, 0)
    return result


def reference_capacity_td_exact_k(
    g: Graph,
    k: int,
    order: list[int],
    nbr_mask: list[int],
    nbr_list: list[list[int]],
    non_nbr_list: list[list[int]],
    budget: _Budget,
) -> list[int] | None:
    """Search for a total dominator coloring with exactly k classes.

    Branches vertex by vertex in the fixed order with a canonical color order
    (at most one color beyond the maximum used so far). Prunes on properness
    and on domination feasibility: ``can_witness[w]`` tracks the colors whose
    class has no member outside N(w); once it empties, or once N(w) is fully
    colored without a complete class inside it, no completion can dominate w.

    Then prunes on domination capacity. A vertex is *needy* when no color
    used so far can still be its witness class, so one of the k - max_used
    colors not used yet must be. Each of those colors ends up with a class of
    uncolored vertices; pick one member u of each, distinct because classes
    are disjoint. The class lies inside N(u), so it dominates only needy
    vertices in N(u). Hence the needy count is at most the sum of the
    k - max_used largest ``|N(u) & needy|`` over uncolored u (tested first
    against (k - max_used) * max degree). A branch that fails this has no
    k-coloring, and the search order is unchanged, so the first coloring
    found is the same as without the bound.

    Kept as the reference that the per-color bitmask search's value, witness
    and node count are compared against.
    """
    n = g.vertex_count
    if k > n:
        return None
    all_colors = (1 << k) - 1  # bit c-1 stands for color c
    color_of = [0] * n
    class_mask = [0] * (k + 1)  # indexed by 1-based color
    nbr_colors = [0] * n  # colors present in N(v), uncolored v only
    can_witness = [all_colors] * n
    uncolored_nbrs = [len(nbr_list[v]) for v in range(n)]
    max_deg = max(uncolored_nbrs)
    result: list[int] | None = None

    def witness_ok(w: int) -> bool:
        # some candidate color already has a member inside N(w)
        cand = can_witness[w]
        nb = nbr_mask[w]
        while cand:
            low = cand & -cand
            if class_mask[low.bit_length()] & nb:
                return True
            cand -= low
        return False

    def extend(depth: int, max_used: int, needy: int) -> bool:
        # needy: vertices w with can_witness[w] & colors 1..max_used == 0
        nonlocal result
        if depth == n:
            if max_used == k:
                result = color_of[:]
                return True
            return False
        v = order[depth]
        vbit = 1 << v
        remaining_after = n - depth - 1
        if k - max_used > remaining_after + 1:
            return False
        must_new = k - max_used == remaining_after + 1
        start_c = max_used + 1 if must_new else 1
        limit = min(max_used + 1, k)
        v_nbrs = nbr_list[v]
        for c in range(start_c, limit + 1):
            cbit = 1 << (c - 1)
            if nbr_colors[v] & cbit:
                continue
            budget.spend()
            color_of[v] = c
            class_mask[c] |= vbit
            used_after = max_used if c <= max_used else c
            used_bits = (1 << used_after) - 1
            # a new color's class {v} lies inside N(w) exactly for w in N(v)
            needy_after = needy if c <= max_used else needy & ~nbr_mask[v]
            sat_changed: list[int] = []
            for u in v_nbrs:
                uncolored_nbrs[u] -= 1
                if not color_of[u] and not nbr_colors[u] & cbit:
                    nbr_colors[u] |= cbit
                    sat_changed.append(u)
            w_undo: list[tuple[int, int]] = []
            # neighbors whose neighborhood just filled must be dominated now;
            # tested first because the sweep below cannot change the outcome
            ok = True
            for u in v_nbrs:
                if not uncolored_nbrs[u] and not witness_ok(u):
                    ok = False
                    break
            if ok:
                # v now sits outside N(w) for every non-neighbor w: color c
                # can no longer form a witness class for those vertices
                for w in non_nbr_list[v]:
                    old = can_witness[w]
                    if old & cbit:
                        new = old & ~cbit
                        can_witness[w] = new
                        w_undo.append((w, old))
                        if not new or (not uncolored_nbrs[w] and not witness_ok(w)):
                            ok = False
                            break
                        if not new & used_bits:
                            needy_after |= 1 << w
            if ok and needy_after:
                # each unused color dominates needy vertices around one
                # distinct uncolored vertex only
                free = k - used_after
                short = needy_after.bit_count()
                if short > free * max_deg:
                    ok = False
                else:
                    gains = sorted(
                        ((nbr_mask[u] & needy_after).bit_count() for u in order[depth + 1 :]),
                        reverse=True,
                    )
                    ok = sum(gains[:free]) >= short
            if ok and extend(depth + 1, used_after, needy_after):
                return True
            for w, old in w_undo:
                can_witness[w] = old
            for u in sat_changed:
                nbr_colors[u] ^= cbit
            for u in v_nbrs:
                uncolored_nbrs[u] += 1
            class_mask[c] ^= vbit
            color_of[v] = 0
        return False

    extend(0, 0, (1 << n) - 1)
    return result


def reference_value_order_td_exact_k(
    g: Graph,
    k: int,
    order: list[int],
    nbr_mask: list[int],
    filled: list[int],
    budget: _Budget,
) -> list[int] | None:
    """Search for a total dominator coloring with exactly k classes.

    Branches vertex by vertex in the fixed order with a canonical color order
    (at most one color beyond the maximum used so far), trying the new color
    first and then the used colors by descending index. A new color's class
    {v} lies inside N(w) for every w in N(v); small classes like it are what
    a TD-coloring needs. The state is one bitmask pair per color:
    ``class_mask[c]`` holds the class, and ``dom[c]`` the common neighbors of
    its members, that is the vertices w whose N(w) contains the whole class,
    so the class can still be w's witness. Color c is allowed on v when its
    class misses N(v). A new color's ``dom`` is N(v); a reused color's
    shrinks to ``dom[c] & N(v)``.

    A vertex is *needy* when it lies in no used color's ``dom``. A new color
    removes N(v) from the needy set; a reused color adds the vertices that
    just left its ``dom`` and lie in no other used one. Classes only grow, so
    a class can come to lie inside N(w) only as a new color on an uncolored
    vertex of N(w). A needy vertex whose neighborhood is fully colored
    (``filled[depth]``, fixed by the static order) can thus never be
    dominated, and the branch is cut.

    Then prunes on domination capacity. One of the k - max_used colors not
    used yet must dominate each needy vertex. Each of those colors ends up
    with a class of uncolored vertices; pick one member u of each, distinct
    because classes are disjoint. The class lies inside N(u), so it
    dominates only needy vertices in N(u), and a class that dominates a
    needy w lies inside N(w) & uncolored. So :func:`_can_cover` applies with
    the k - max_used unused colors as picks and the uncolored vertices
    (``uncolored[depth]``) as the available ones: it cuts when too many
    needy vertices remain for the maximum degree, when more needy vertices
    than unused colors have pairwise disjoint uncolored neighborhoods (an
    open packing, each needing a class of its own), or when the largest
    ``|N(u) & needy|`` gains cannot reach the needy count.

    Both cuts drop only subtrees with no k-coloring, and the search order is
    fixed, so the first coloring found does not depend on them. No state
    carries from one sibling to the next and every cut reads only the
    current node, so a round with no k-coloring visits the same nodes in any
    color order; the color order moves only the round that finds a coloring.

    Kept as the reference that the at-most-k search's rounds are compared
    against: each round finds the same coloring in no more nodes.
    """
    n = g.vertex_count
    if k > n:
        return None
    max_deg = max(m.bit_count() for m in nbr_mask)
    # uncolored[d]: the vertices after depth d in the order
    uncolored = [0] * n
    for d in range(n - 2, -1, -1):
        uncolored[d] = uncolored[d + 1] | 1 << order[d + 1]
    class_mask = [0] * (k + 1)  # indexed by 1-based color
    dom = [0] * (k + 1)
    result: list[int] | None = None

    def extend(depth: int, max_used: int, needy: int) -> bool:
        # needy: vertices in no dom[c] for c in 1..max_used
        nonlocal result
        if depth == n:
            if max_used == k:
                result = [
                    next(c for c in range(1, k + 1) if class_mask[c] >> v & 1) for v in range(n)
                ]
                return True
            return False
        v = order[depth]
        nbrs = nbr_mask[v]
        remaining_after = n - depth - 1
        if k - max_used > remaining_after + 1:
            return False
        must_new = k - max_used == remaining_after + 1
        start_c = max_used + 1 if must_new else 1
        for c in range(min(max_used + 1, k), start_c - 1, -1):
            if class_mask[c] & nbrs:
                continue
            budget.spend()
            old_dom = dom[c]
            if c > max_used:
                used_after = c
                dom[c] = nbrs
                needy_after = needy & ~nbrs
            else:
                used_after = max_used
                dom[c] = old_dom & nbrs
                left = old_dom & ~nbrs
                for other in dom[1 : max_used + 1]:  # dom[c] is disjoint from left
                    left &= ~other
                needy_after = needy | left
            class_mask[c] |= 1 << v
            # a filled needy vertex can never be dominated; each unused color
            # dominates needy vertices around one distinct uncolored vertex only
            ok = not needy_after or (
                not needy_after & filled[depth]
                and _can_cover(needy_after, k - used_after, uncolored[depth], nbr_mask, max_deg)
            )
            if ok and extend(depth + 1, used_after, needy_after):
                return True
            class_mask[c] ^= 1 << v
            dom[c] = old_dom
        return False

    extend(0, 0, (1 << n) - 1)
    return result


def reference_idle_td_exact_k(
    k: int,
    gamma: int,
    order: list[int],
    nbr_mask: list[int],
    budget: _Budget,
    dead_ends: list[int] | None = None,
) -> list[int] | None:
    """Search for a total dominator coloring with at most k classes.

    The round of ``solvers._td_exact_k`` that tests only two things before
    it spends a node on a child: a used color c is admissible on v when v
    lies outside ``reach[c]`` and, once ``idle`` colors (used colors whose
    ``dom`` is empty) reach the cap k - gamma, c is idle already or
    ``dom[c] & N(v)`` is not empty. After each placement it runs the same
    two cuts: :func:`_can_cover` on the needy vertices, with the unused
    colors as picks and the uncolored vertices as the available ones, and,
    once at most one color is unused, ``can_place``. Its ``can_place`` finds
    the fatal vertices with its own ``not nbrs & rest`` test.

    A child whose needy set holds a vertex w with no uncolored neighbor is
    spent and then cut by :func:`_can_cover`: no used color can come to
    dominate w, and no new class can come to lie inside N(w). When
    ``dead_ends`` is given, the depth of each such child is appended to it.

    Kept as the reference for the search that rejects those children
    before it spends a node: each round finds the same coloring (or none)
    in exactly as many nodes fewer as this copy has such children.
    """
    n = len(order)
    max_deg = max(m.bit_count() for m in nbr_mask)
    # uncolored[d]: the vertices after depth d in the order
    uncolored = [0] * n
    for d in range(n - 2, -1, -1):
        uncolored[d] = uncolored[d + 1] | 1 << order[d + 1]
    colors = [0] * n  # valid for the vertices colored so far
    dom = [0] * (k + 1)  # indexed by 1-based color
    reach = [0] * (k + 1)
    cap = k - gamma  # at most this many classes dominate nobody
    result: list[int] | None = None

    def can_place(depth: int, used: int, needy: int, idle: int) -> bool:
        """False when the uncolored vertices cannot all find a class.

        For a node with at most one color unused. A vertex w is *fatal* when
        exactly one used color c dominates it and, if a color is unused, all
        of N(w) is colored: no used color can come to dominate w, and no new
        class can come to lie inside N(w), so c must keep w. An uncolored
        vertex u can join c only when c is admissible on u and every fatal
        vertex of c lies in N(u). Admissibility only gets stricter further
        down: ``reach[c]`` grows, and once ``idle`` is at the cap it stays
        there, so a non-empty ``dom[c]`` stays non-empty and only shrinks.
        With no color unused, a vertex that can join no used color has no
        class. With one unused, all such vertices share the new class: they
        must be pairwise non-adjacent, and each needy vertex, which only the
        new class can dominate, must be adjacent to all of them.
        """
        rest = uncolored[depth]
        single = _in_exactly_one(dom[1 : used + 1])
        joinable = 0
        for c in range(1, used + 1):
            free = rest & ~reach[c]
            if idle == cap and dom[c]:  # u must leave c dominating someone
                keeps, ws = 0, dom[c]
                while ws:
                    low = ws & -ws
                    keeps |= nbr_mask[low.bit_length() - 1]
                    ws ^= low
                free &= keeps
            only = dom[c] & single  # the vertices c alone dominates
            while only and free:
                low = only & -only
                nbrs = nbr_mask[low.bit_length() - 1]
                if used == k or not nbrs & rest:  # fatal
                    free &= nbrs
                only ^= low
            joinable |= free
        stuck = rest & ~joinable
        if stuck and used == k:
            return False
        while stuck:
            low = stuck & -stuck
            nbrs = nbr_mask[low.bit_length() - 1]
            if nbrs & stuck or needy & ~nbrs:
                return False
            stuck ^= low
        return True

    def extend(depth: int, max_used: int, needy: int, idle: int) -> bool:
        # needy: vertices in no dom[c] for c in 1..max_used; idle: used
        # colors whose dom is empty
        nonlocal result
        if depth == n:
            result = colors[:]
            return True
        v = order[depth]
        nbrs = nbr_mask[v]
        for c in range(min(max_used + 1, k), 0, -1):
            old_dom, old_reach = dom[c], reach[c]
            # admissible: v outside c's reach, and at the idle cap no reuse
            # that leaves c's class dominating nobody
            if old_reach >> v & 1 or (idle == cap and old_dom and not old_dom & nbrs):
                continue
            budget.spend()
            idle_after = idle
            if c > max_used:
                used_after = c
                dom[c] = nbrs
                needy_after = needy & ~nbrs
            else:
                used_after = max_used
                dom[c] = old_dom & nbrs
                left = old_dom & ~nbrs
                for other in dom[1 : max_used + 1]:  # dom[c] is disjoint from left
                    left &= ~other
                needy_after = needy | left
                if old_dom and not dom[c]:
                    idle_after += 1
            colors[v] = c
            reach[c] |= nbrs
            unused, rest = k - used_after, uncolored[depth]
            ws = needy_after if dead_ends is not None else 0
            while ws:
                low = ws & -ws
                if not nbr_mask[low.bit_length() - 1] & rest:
                    dead_ends.append(depth)
                    break
                ws ^= low
            # each unused color dominates needy vertices around one distinct
            # uncolored vertex only; every uncolored vertex needs a class it
            # can still join
            ok = (not needy_after or _can_cover(needy_after, unused, rest, nbr_mask, max_deg)) and (
                unused > 1 or not rest or can_place(depth, used_after, needy_after, idle_after)
            )
            if ok and extend(depth + 1, used_after, needy_after, idle_after):
                return True
            dom[c], reach[c] = old_dom, old_reach
        return False

    extend(0, 0, (1 << n) - 1, 0)
    return result


def with_neighbor_lists(td_exact_k):
    """Adapt a k-loop that takes neighbor lists to the ``(g, k, order, nbr_mask, budget)`` form."""

    def adapted(g, k, order, nbr_mask, budget):
        n = g.vertex_count
        nbr_list = [sorted(g.adjacency[v]) for v in range(n)]
        non_nbr_list = [
            [w for w in range(n) if not (nbr_mask[v] >> w) & 1] for v in range(n)
        ]
        return td_exact_k(g, k, order, nbr_mask, nbr_list, non_nbr_list, budget)

    return adapted


def with_filled(td_exact_k):
    """Adapt a k-loop that takes the ``filled`` table to ``(g, k, order, nbr_mask, budget)``.

    ``filled[d]`` holds the vertices whose whole neighborhood is colored
    after depth d of ``order``.
    """

    def adapted(g, k, order, nbr_mask, budget):
        depth_of = {v: d for d, v in enumerate(order)}
        filled = [0] * g.vertex_count
        for w in range(g.vertex_count):
            filled[max(depth_of[u] for u in g.adjacency[w])] |= 1 << w
        for d in range(1, g.vertex_count):
            filled[d] |= filled[d - 1]
        return td_exact_k(g, k, order, nbr_mask, filled, budget)

    return adapted


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


@st.composite
def bipartite_graphs(draw, min_vertices: int = 2, max_vertices: int = 8):
    """Connected bipartite graphs: a random spanning tree plus extra edges between its sides."""
    n = draw(st.integers(min_vertices, max_vertices))
    side = [0] * n
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        side[v] = 1 - side[u]
        edges.add((u, v))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
    if possible:
        edges.update(draw(st.lists(st.sampled_from(possible), unique=True)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def two_component_graphs(draw, max_vertices: int = 8):
    """Two disjoint connected graphs, each bipartite or not, under a random relabelling."""
    a, b = (draw(st.one_of(bipartite_graphs(2, max_vertices), connected_graphs(2, max_vertices)))
            for _ in range(2))
    label = draw(st.permutations(range(a.vertex_count + b.vertex_count)))
    edges = [(label[u], label[v]) for u, v in a.edges()]
    edges += [(label[a.vertex_count + u], label[a.vertex_count + v]) for u, v in b.edges()]
    return Graph.from_edges(len(label), edges)


@st.composite
def pendant_graphs(draw, max_vertices: int = 10):
    """A connected graph with a leaf hung on each of one or more of its vertices."""
    core = draw(connected_graphs(2, max_vertices - 1))
    n = core.vertex_count
    hosts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=max_vertices - n, unique=True))
    edges = list(core.edges()) + [(v, n + i) for i, v in enumerate(hosts)]
    return Graph.from_edges(n + len(hosts), edges)
