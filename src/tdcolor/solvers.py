"""Exact solvers: chromatic number, total domination, and TD-chromatic number.

All searches are deterministic, with no randomness. The chromatic search
branches on the most color-saturated vertex (DSATUR), ties broken by a fixed
order (descending degree, then index). The total-domination search branches
on the neighbors of the lowest-index undominated vertex. The TD search colors
vertices in that fixed order. Colors and vertices are tried in ascending
order. Node and time budgets abort with :class:`BudgetExhaustedError` rather
than returning a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring, is_proper, is_td_coloring, normalize
from .graph import Graph

__all__ = [
    "SOLVER_VERSION",
    "SolveOptions",
    "SolveResult",
    "BudgetExhaustedError",
    "chromatic_number",
    "is_total_dominating_set",
    "total_domination_number",
    "td_chromatic_number",
    "td_chromatic_oracle",
]

SOLVER_VERSION = "2"


class BudgetExhaustedError(RuntimeError):
    """Search aborted by a node or time budget; no answer is implied."""

    def __init__(self, message: str, nodes_explored: int, elapsed: float) -> None:
        super().__init__(message)
        self.nodes_explored = nodes_explored
        self.elapsed = elapsed


@dataclass(frozen=True)
class SolveOptions:
    """Optional search budgets shared by all phases of one solve call."""

    node_budget: int | None = None
    time_budget: float | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class SolveResult:
    """Optimum value plus a re-checkable witness and search statistics."""

    value: int
    witness: Coloring | tuple[int, ...] | None
    nodes_explored: int
    elapsed: float
    lower_bound_used: int
    upper_bound_used: int

    def __post_init__(self) -> None:
        if not self.lower_bound_used <= self.value <= self.upper_bound_used:
            raise ValueError("value outside its own bounds")


class _Budget:
    """Cumulative node counter with optional node/time limits."""

    __slots__ = ("node_budget", "deadline", "nodes", "started")

    def __init__(self, opts: SolveOptions | None) -> None:
        self.node_budget = opts.node_budget if opts else None
        self.started = time.perf_counter()
        self.deadline = (
            self.started + opts.time_budget if opts and opts.time_budget else None
        )
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExhaustedError("node budget exhausted", self.nodes, self.elapsed())
        if (
            self.deadline is not None
            and self.nodes & 1023 == 0
            and time.perf_counter() > self.deadline
        ):
            raise BudgetExhaustedError("time budget exhausted", self.nodes, self.elapsed())

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def _branch_order(g: Graph) -> list[int]:
    # fail-first heuristic, fixed for determinism
    return sorted(range(g.vertex_count), key=lambda v: (-len(g.adjacency[v]), v))


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.vertex_count
    for v in range(g.vertex_count):
        m = 0
        for u in g.adjacency[v]:
            m |= 1 << u
        masks[v] = m
    return masks


# ---------------------------------------------------------------------------
# chromatic number


def _proper_exact_k(g: Graph, k: int, order: list[int], budget: _Budget) -> list[int] | None:
    """Any proper coloring with colors 1..k, or None. Canonical color order.

    Branches on the uncolored vertex with the most distinct neighbor colors
    (DSATUR), ties broken by position in ``order``, and fails as soon as that
    vertex sees all k colors.
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


def _chromatic_search(g: Graph, budget: _Budget) -> tuple[int, list[int], int, int]:
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
        found = _proper_exact_k(g, k, order, budget)
        if found is not None:
            return k, found, lb, ub
    return ub, greedy, lb, ub


def chromatic_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact chromatic number with a witness proper coloring."""
    budget = _Budget(opts)
    value, colors, lb, ub = _chromatic_search(g, budget)
    witness = normalize(Coloring(tuple(colors)))
    if not is_proper(g, witness):
        raise AssertionError("internal error: chromatic witness is not proper")
    return SolveResult(value, witness, budget.nodes, budget.elapsed(), lb, ub)


# ---------------------------------------------------------------------------
# total domination


def is_total_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex of g (members of s included) has a neighbor in s."""
    members = set(s)
    for v in members:
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range 0..{g.vertex_count - 1}")
    return all(g.adjacency[v] & members for v in range(g.vertex_count))


def _total_dom_search(g: Graph, budget: _Budget) -> tuple[int, tuple[int, ...], int, int]:
    """Exact total domination number by increasing-cardinality search.

    For each target size, branches on the neighbors of the lowest-index
    undominated vertex (one of them must be in the set); a neighbor refuted
    for one branch is excluded from its later siblings, so each set is
    reached at most once.
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


def total_domination_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact total domination number with a witness vertex set."""
    budget = _Budget(opts)
    if g.vertex_count == 0:
        return SolveResult(0, (), 0, budget.elapsed(), 0, 0)
    if g.has_isolated_vertex():
        raise ValueError("total domination undefined: graph has an isolated vertex")
    value, witness, lb, ub = _total_dom_search(g, budget)
    if not is_total_dominating_set(g, witness):
        raise AssertionError("internal error: domination witness failed verification")
    return SolveResult(value, witness, budget.nodes, budget.elapsed(), lb, ub)


# ---------------------------------------------------------------------------
# TD-chromatic number


def _td_exact_k(
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


def td_chromatic_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact TD-chromatic number with a verified witness coloring.

    Iterates the target class count k upward from max(chromatic number,
    total domination number); the first feasible k is optimal. The upper
    bound (their sum) always admits a coloring: give each member of a minimum
    total dominating set a private color and color the rest properly.
    """
    budget = _Budget(opts)
    n = g.vertex_count
    if n < 2:
        raise ValueError("TD-coloring needs at least 2 vertices")
    if g.has_isolated_vertex():
        raise ValueError("TD-coloring undefined: graph has an isolated vertex")

    chi, _, _, _ = _chromatic_search(g, budget)
    gamma, _, _, _ = _total_dom_search(g, budget)
    lower = max(chi, gamma)
    upper = gamma + chi

    order = _branch_order(g)
    nbr_mask = _neighbor_masks(g)
    nbr_list = [sorted(g.adjacency[v]) for v in range(n)]
    non_nbr_list = [
        [w for w in range(n) if not (nbr_mask[v] >> w) & 1] for v in range(n)
    ]

    for k in range(lower, upper + 1):
        found = _td_exact_k(g, k, order, nbr_mask, nbr_list, non_nbr_list, budget)
        if found is not None:
            witness = normalize(Coloring(tuple(found)))
            if not is_td_coloring(g, witness):
                raise AssertionError("internal error: TD witness failed verification")
            return SolveResult(k, witness, budget.nodes, budget.elapsed(), lower, upper)
    raise AssertionError("unreachable: gamma_t + chi colors always suffice")


def td_chromatic_oracle(g: Graph, cap: int = 10) -> SolveResult:
    """Brute-force TD-chromatic number by full set-partition enumeration.

    Enumerates restricted-growth strings filtered to proper partitions and
    returns the minimum class count. A complete partition is tested on its
    class bitmasks: every vertex needs a class with no member outside its
    neighborhood. Each new best partition is re-checked with the coloring
    checker before it is kept, so the witness passes the public checker.
    Deliberately shares no search machinery with :func:`td_chromatic_number`;
    intended as an independent correctness oracle for graphs of at most
    ``cap`` vertices.
    """
    n = g.vertex_count
    if n < 2:
        raise ValueError("TD-coloring needs at least 2 vertices")
    if g.has_isolated_vertex():
        raise ValueError("TD-coloring undefined: graph has an isolated vertex")
    if n > cap:
        raise ValueError(f"graph has {n} vertices; oracle cap is {cap}")

    started = time.perf_counter()
    nbr_mask = _neighbor_masks(g)
    outside = [~m for m in nbr_mask]  # class b lies inside N(v) iff b & outside[v] == 0
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
            for out in outside:
                for b in blocks:
                    if not b & out:
                        break
                else:
                    return  # no class lies inside this vertex's neighborhood
            coloring = Coloring(tuple(c + 1 for c in assign))
            if not is_td_coloring(g, coloring):
                raise AssertionError("internal error: oracle leaf test disagrees with checker")
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
