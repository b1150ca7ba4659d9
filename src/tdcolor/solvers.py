"""Exact solvers: chromatic number, total domination, and TD-chromatic number.

All searches are deterministic, with no randomness. The chromatic search
branches on the most color-saturated vertex (DSATUR), ties broken by a fixed
order (descending degree, then index), and starts from the largest of
several greedy cliques. Its rounds cut by forced-color propagation: any
completion gives each uncolored vertex a color in 1..k that none of its
colored neighbors has, so a vertex with one color left must take it, which
takes that color from its neighbors, and a vertex left with none cuts the
subtree. The cut holds for every coloring, so it drops only subtrees with
no coloring; an odd cycle's 2-coloring round fails after one node. Two
bounds spend no node. The search's own rule run with no color cap, the
DSATUR greedy, is the first descent of the round for as many colors as it
uses, so when it beats the greedy coloring in branch order it stands for
that round, which would return its coloring. It 2-colors every
bipartite graph, so 3 or more colors certify an odd cycle and rule out
k = 2. The
total-domination search is fail-first too: it branches on the undominated
vertex with the fewest non-excluded neighbors, ties to the lowest index,
and tries those neighbors by descending gain, ties by index. It cuts a
branch once the picks left cannot reach the undominated vertices: each
pick u dominates only N(u). It runs once per covering part: two vertices
interact only when they share a neighbor, so V splits into parts whose
possible dominators are disjoint (a connected bipartite graph's two sides,
or all of a connected graph that is not bipartite), and gamma_t is the sum
of the parts' least covers. A part's dead ends are then proved once, not
again under every state of the other parts. The search starts at a root
bound that it counts by picking vertices; when those picks already cover
the part, they are a least cover and the part spends no node, much as the
chromatic search runs no round when the greedy coloring meets the clique
bound. The TD search colors vertices
in the chromatic search's fixed tie-break order with at most k colors and
keeps two bitmasks per color: the union of its class members'
neighborhoods, and the vertices whose neighborhood holds the whole class.
At most k - gamma_t classes may dominate nobody, since one member of each
class that dominates someone forms a total dominating set. So a used color
is admissible on a vertex outside its members' neighborhoods and, once k -
gamma_t classes dominate nobody, only when the vertex joining does not make
one more. Nor may a reuse leave some vertex with no possible dominator: a
vertex no used class dominates whose neighborhood is now fully colored
needs the vertex's own new class, and a vertex that the reused class alone
dominates, outside the vertex's neighborhood and with its own neighborhood
fully colored, would be dropped by the growing class for good. The search
tests all this before it spends a node on the child. It has two cuts. The
unused colors, each dominating only neighbors of one distinct uncolored
vertex, must reach the vertices no used color can still dominate. And once
at most one color is unused, every uncolored vertex must still have an
admissible class it can join without leaving some vertex undominated for
good. The first cut and the total-domination search share a covering test,
:func:`_can_cover`: a count against the maximum degree, an open packing
(vertices whose available neighborhoods are disjoint each need a pick of
their own) and a sum of the largest gains. Every bound cuts only subtrees
with no solution and leaves the search order alone, so it changes no value
or witness. The chromatic search tries colors in ascending order. The TD
search tries a new color first, then the used colors by descending index: a
new color's class is one vertex, which dominates its whole neighborhood.
Without the symmetry cut below, the color order moves only the round that
finds a coloring, and with it the witness.

The TD rounds also break symmetry with lex-leader cuts (Crawford, Ginsberg,
Luks and Roy, 1996). An automorphism maps every TD-coloring to one, and the
search meets the colorings in a fixed order: position by position in the
branch order, by its own child order. A child is rejected before a node is
spent when some automorphism, found on the graph itself, maps every
completion of its colored prefix to a coloring the search meets earlier.
The first coloring a round finds is the earliest of its orbit, so no prefix
of it is rejected: the cut changes no value or witness and no round visits
more nodes. A round with no coloring, though, no longer visits the same
nodes in any color order, since the cut reads that order. The maps are
found at most once per solve, by a bounded search, and only once a round
has spent a few nodes per vertex, so small rounds never pay for them.

The TD solve starts from an incumbent rather than searching upward: the
coloring behind the bound gamma_t + chi (a private color for each member of a
minimum total dominating set, then a proper coloring of the rest), with
classes merged while it stays a TD-coloring. Rounds then run downward, each
for at most one color fewer than the incumbent. Since a round allows at most
k colors, the first round that finds none proves that no smaller count
works either, so it proves the incumbent optimal. No round runs below a
counting bound, which spends no node. Each class of a TD-coloring either
dominates nobody (at most k - gamma_t classes can) or lies inside some
N(w), where it has few members and dominates only its members' common
neighbors. Since k classes must hold all n vertices and dominate each one,
a k whose classes are too few or too small for that has no coloring. Some
classes are known before any round: a leaf's class lies inside N(leaf),
so each support vertex (a neighbor of a leaf) is a class of its own. A
node budget, the only limit on a search, aborts with
:class:`BudgetExhaustedError` rather than returning a wrong answer.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

from .coloring import Coloring, _first_appearance, is_proper, is_td_coloring
from .graph import Graph

__all__ = [
    "SOLVER_VERSION",
    "SolveOptions",
    "SolveResult",
    "BudgetExhaustedError",
    "chromatic_number",
    "is_total_dominating_set",
    "total_domination_number",
    "td_chromatic_bounds",
    "td_chromatic_number",
    "td_chromatic_oracle",
]

SOLVER_VERSION = "6"


class BudgetExhaustedError(RuntimeError):
    """Search aborted by its node budget; no answer is implied."""

    def __init__(self, message: str, nodes_explored: int) -> None:
        super().__init__(message)
        self.nodes_explored = nodes_explored


@dataclass(frozen=True)
class SolveOptions:
    """Optional node budget shared by all phases of one solve call."""

    node_budget: int | None = None

    def __post_init__(self) -> None:
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")


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
    """Cumulative node counter with an optional node budget."""

    __slots__ = ("node_budget", "nodes", "started")

    def __init__(self, opts: SolveOptions | None) -> None:
        self.node_budget = opts.node_budget if opts else None
        self.started = time.perf_counter()
        self.nodes = 0

    def spend(self) -> None:
        self.nodes += 1
        if self.node_budget is not None and self.nodes > self.node_budget:
            raise BudgetExhaustedError("node budget exhausted", self.nodes)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def _branch_order(g: Graph) -> list[int]:
    # fail-first heuristic, fixed for determinism
    masks = g.masks
    return sorted(range(g.vertex_count), key=lambda v: (-masks[v].bit_count(), v))


def _position_masks(g: Graph, order: Sequence[int]) -> list[int]:
    """The neighbors of ``order[p]`` as a bitmask of positions in ``order``, for each p."""
    bit = [0] * g.vertex_count
    for p, v in enumerate(order):
        bit[v] = 1 << p
    masks = []
    for v in order:
        m = 0
        rest = g.masks[v]
        while rest:
            low = rest & -rest
            m |= bit[low.bit_length() - 1]
            rest ^= low
        masks.append(m)
    return masks


def _tables(g: Graph) -> tuple[list[int], list[int], tuple[int, ...]]:
    """The branch order, g's neighbor bitmasks by position in it, and ``g.masks``."""
    order = _branch_order(g)
    return order, _position_masks(g, order), g.masks


def _can_cover(need: int, picks: int, avail: int, nbr_mask: Sequence[int], max_deg: int) -> int:
    """0 when no ``picks`` distinct vertices u of ``avail`` can cover ``need``.

    A pick u covers only N(u), at most ``max_deg`` vertices, so a vertex w
    of ``need`` is covered only by a pick in its region N(w) & ``avail``.
    Three tests, each run only when the cheaper one before it passes:

    1. ``picks`` times ``max_deg`` is below |need|;
    2. an open packing (Henning and Slater, 1999): taking the vertices of
       ``need`` by ascending region size, ties by index, keep each region
       that misses every region kept so far. Kept regions are disjoint and
       each needs a pick of its own, so more of them than ``picks`` (or an
       empty one) cannot be covered;
    3. the most the picks can gain falls short of |need|. A pick u gains
       |N(u) & need|, and one pick lies in each kept region, so the picks
       gain at most the best gain in each kept region plus the largest gains
       of the other vertices for the picks left. This sum is never above the
       ``picks`` largest gains, so the test cuts whatever that sum cuts.

    The gains are counted only when the first two tests pass. ``need`` must
    not be empty. When no test cuts, returns the smallest region, the one of
    the lowest-index vertex of ``need`` with the fewest ``avail`` neighbors:
    a cover must pick one of its vertices. A non-zero result does not
    promise a cover.
    """
    short = need.bit_count()
    if picks * max_deg < short:
        return 0
    regions = []
    reach = 0  # the vertices with a positive gain
    rest = need
    while rest:
        low = rest & -rest
        region = nbr_mask[low.bit_length() - 1] & avail
        if not region:
            return 0
        regions.append(region)
        reach |= region
        rest ^= low
    regions.sort(key=int.bit_count)  # stable, so ties stay in index order
    kept = []
    packed = 0
    for region in regions:
        if not region & packed:
            if len(kept) == picks:
                return 0
            kept.append(region)
            packed |= region
    total = 0
    for region in kept:
        best = 0
        while region:
            low = region & -region
            gain = (nbr_mask[low.bit_length() - 1] & need).bit_count()
            if gain > best:
                best, best_bit = gain, low
            region ^= low
        total += best
        if total >= short:
            return regions[0]
        reach ^= best_bit
    free = picks - len(kept)
    if total + free * max_deg < short:
        return 0
    gains = []
    while reach:
        low = reach & -reach
        gains.append((nbr_mask[low.bit_length() - 1] & need).bit_count())
        reach ^= low
    gains.sort(reverse=True)
    return regions[0] if total + sum(gains[:free]) >= short else 0


_FINDER_STEPS = 32  # per vertex: the cap on the steps of _automorphisms


def _automorphisms(order: list[int], nbr_mask: Sequence[int]) -> list[list[int]]:
    """Automorphisms of the graph other than the identity, as image lists; not always all.

    First color refinement: each vertex starts in the cell of its degree,
    and each round splits the cells by the multiset of cells around their
    members until no cell splits. An automorphism maps each cell onto
    itself. Then a backtracking search maps the vertices in branch order
    ``order``, each to an unused vertex u of its cell, and keeps u only when
    the mapped neighbors agree both ways: each mapped neighbor's image is a
    neighbor of u, and u has no other neighbor among the images. So every
    complete map is an automorphism, and the maps are listed in the order
    the search finds them. The finder counts a step per vertex or neighbor a refinement
    round reads and per image the search tries, and stops at a cap of
    ``_FINDER_STEPS`` steps per vertex. Refinement starts no round past half
    of it and keeps the cells it has, which every automorphism still
    respects; the search returns the maps found by the cap. So it may miss
    maps, and it spends no node.
    """
    n = len(nbr_mask)
    cap = _FINDER_STEPS * n
    nbrs = []
    for m in nbr_mask:
        ws = []
        while m:
            low = m & -m
            ws.append(low.bit_length() - 1)
            m ^= low
        nbrs.append(ws)
    cell = [len(ws) for ws in nbrs]
    cells = len(set(cell))
    steps, per_round = n, n + sum(cell)
    while cells < n and 2 * steps < cap:
        index: dict[tuple, int] = {}
        split = [
            index.setdefault((cell[v], tuple(sorted(cell[w] for w in ws))), len(index))
            for v, ws in enumerate(nbrs)
        ]
        steps += per_round
        if len(index) == cells:
            break
        cell, cells = split, len(index)
    members: dict[int, int] = {}
    for v, c in enumerate(cell):
        members[c] = members.get(c, 0) | 1 << v

    maps: list[list[int]] = []
    image = list(range(n))
    cand = [0] * n  # cand[d]: the images left to try for order[d]
    cand[0] = members[cell[order[0]]]
    d = mapped = used = 0
    while d >= 0 and steps < cap:
        v = order[d]
        rest = cand[d]
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest ^= 1 << u
            steps += 1
            if (nbr_mask[u] & used).bit_count() == (nbr_mask[v] & mapped).bit_count():
                break
        else:  # no image left: back to the vertex before
            d -= 1
            if d >= 0:
                mapped ^= 1 << order[d]
                used ^= 1 << image[order[d]]
            continue
        cand[d] = rest
        image[v] = u
        if d == n - 1:
            if any(image[w] != w for w in range(n)):
                maps.append(image[:])
            continue
        mapped |= 1 << v
        used |= 1 << u
        d += 1
        w = order[d]
        allowed = members[cell[w]] & ~used
        ms = nbr_mask[w] & mapped
        while ms:
            low = ms & -ms
            allowed &= nbr_mask[image[low.bit_length() - 1]]
            ms ^= low
        cand[d] = allowed
    return maps


def _in_exactly_one(masks: Iterable[int]) -> int:
    """The vertices that lie in exactly one of ``masks``."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once & ~twice


# ---------------------------------------------------------------------------
# chromatic number


def _propagate(blocked: list[int], k: int, free: int, nbr: list[int]) -> bool:
    """False when forcing colors leaves some vertex of ``free`` no color in 1..k.

    ``blocked[c]`` holds the vertices with a neighbor colored c. A vertex of
    ``free`` with every color but c blocked must take c, which blocks c for
    its neighbors; this repeats on a copy of ``blocked`` until nothing is
    forced. Two adjacent vertices forced to the same color, or a vertex with
    every color blocked, end it with False. The prefix ANDs over ``blocked``
    give the vertices with no color left, and a prefix AND with a suffix AND
    the ones whose only color left is c.
    """
    blocked = blocked[:]
    prefix = [0] * (k + 1)
    while True:
        acc = prefix[0] = -1
        for c in range(1, k + 1):
            acc &= blocked[c]
            prefix[c] = acc
        if acc & free:
            return False
        forced_any = False
        suffix = -1
        for c in range(k, 0, -1):
            forced = prefix[c - 1] & suffix & free
            if forced:
                forced_any = True
                free ^= forced
                reach, rest = 0, forced
                while rest:
                    low = rest & -rest
                    reach |= nbr[low.bit_length() - 1]
                    rest ^= low
                if reach & forced:
                    return False
                blocked[c] |= reach
            suffix &= blocked[c]
        if not forced_any:
            return True


def _proper_exact_k(nbr: list[int], k: int, budget: _Budget) -> list[int] | None:
    """Any proper coloring with colors 1..k, or None. Canonical color order.

    Vertices are positions in the branch order, and ``nbr[p]`` is the
    bitmask of p's neighbors. Branches on the uncolored vertex with the most
    distinct neighbor colors (DSATUR), ties broken by the lowest position,
    and tries its colors in ascending order. ``blocked[c]`` holds the
    vertices with a neighbor colored c, and ``levels[j]`` the uncolored
    vertices with j distinct neighbor colors.

    A vertex at level k - 1 has one color left, so DSATUR places it next, as
    its only child. After a free placement (one at a level below k - 1)
    that leaves some vertex at level k - 1, :func:`_propagate` forces those
    colors ahead and cuts the subtree when some vertex is left with none.
    Every completion must give each vertex a color its neighbors lack, so
    the cut drops only subtrees with no coloring. A forced placement
    leaves the forced colors of its free ancestor unchanged, so nothing
    new is found by propagating after it.
    """
    n = len(nbr)
    color_of = [0] * n
    blocked = [0] * (k + 1)
    last = k - 1

    def extend(uncolored: int, levels: list[int], top: int, max_used: int) -> bool:
        if not uncolored:
            return True
        pick = levels[top] & -levels[top]
        p = pick.bit_length() - 1
        rest = uncolored ^ pick
        nbrs = nbr[p] & rest
        free = top < last
        for c in range(1, min(max_used + 1, k) + 1):
            old = blocked[c]
            if old & pick:
                continue
            budget.spend()
            gained = nbrs & ~old  # neighbors that see c for the first time
            after = levels[:]
            after[top] ^= pick
            for j in range(top, -1, -1):
                moved = after[j] & gained
                if moved:
                    after[j] ^= moved
                    after[j + 1] |= moved
                    gained ^= moved
                    if not gained:
                        break
            high = top + 1 if after[top + 1] else top  # a colorable pick has top < k
            while high and not after[high]:
                high -= 1
            blocked[c] = old | nbr[p]
            color_of[p] = c
            if (not free or not after[last] or _propagate(blocked, k, rest, nbr)) and extend(
                rest, after, high, max_used if c <= max_used else c
            ):
                return True
            blocked[c] = old
        return False

    levels = [0] * (k + 1)
    levels[0] = (1 << n) - 1
    return color_of if extend(levels[0], levels, 0, 0) else None


def _dsatur_greedy(nbr: list[int]) -> list[int]:
    """A proper coloring by :func:`_proper_exact_k`'s rule with no color cap.

    Colors the uncolored vertex with the most distinct neighbor colors, ties
    broken by the lowest position, with the least color none of its
    neighbors has (Brélaz 1979). This is the first descent of the round for
    as many colors as it uses, so that round returns this coloring. Within
    a component every vertex after the first has a colored neighbor when it
    is picked, so a bipartite graph gets at most 2 colors.
    """
    n = len(nbr)
    color_of = [0] * n
    blocked: list[int] = []  # blocked[c - 1]: vertices with a neighbor colored c
    uncolored = (1 << n) - 1
    levels = [uncolored]  # levels[j]: uncolored vertices with j distinct neighbor colors
    top = 0
    for _ in range(n):
        while not levels[top]:
            top -= 1
        pick = levels[top] & -levels[top]
        levels[top] ^= pick
        uncolored ^= pick
        p = pick.bit_length() - 1
        c = 0
        while c < len(blocked) and blocked[c] & pick:
            c += 1
        if c == len(blocked):
            blocked.append(0)
        gained = nbr[p] & uncolored & ~blocked[c]  # uncolored neighbors that see c for the first time
        blocked[c] |= nbr[p]
        color_of[p] = c + 1
        j = top
        while gained:
            moved = levels[j] & gained
            if moved:
                levels[j] ^= moved
                if j + 1 == len(levels):
                    levels.append(0)
                levels[j + 1] |= moved
                gained ^= moved
            j -= 1
        top = len(levels) - 1
    return color_of


def _chromatic_search(
    order: list[int], nbr: list[int], nbr_mask: Sequence[int], budget: _Budget
) -> tuple[int, list[int], int, int]:
    """Exact chromatic number: (value, colors, lower bound, upper bound).

    Works on the vertices' positions in branch order ``order``: one neighbor
    bitmask per position (``nbr``) serves the greedy bounds, the branch-order
    clique and every round. The lower bound is the largest of several greedy
    cliques: one in branch order, and one grown from each vertex by adding
    the lowest-index common neighbor each time, on the neighbor bitmasks by
    index (``nbr_mask``). Any clique needs as many colors as it has
    vertices, so every k below the bound is UNSAT, and skipping those
    rounds leaves the first feasible k and its coloring unchanged.

    The upper bound is a greedy coloring in branch order. When it exceeds
    the lower bound, so that a round would run, :func:`_dsatur_greedy`
    colors the graph too. With d colors it is the first descent of round d,
    so when d is smaller it becomes the upper bound and its coloring the
    answer unless a round below d finds one: the round d it skips would
    have returned it. A tie keeps the branch-order coloring, so the answer
    is the one the branch-order bound alone gives. And d >= 3 certifies an odd cycle, since DSATUR
    2-colors every bipartite graph, so the lower bound is at least 3. Both
    bounds spend no node, and neither changes the value or the coloring.
    """
    n = len(order)
    greedy = [0] * n
    classes: list[int] = []  # greedy[p] = c + 1 for p in classes[c]
    for p, nbrs in enumerate(nbr):
        for c, members in enumerate(classes):
            if not members & nbrs:
                classes[c] = members | 1 << p
                greedy[p] = c + 1
                break
        else:
            classes.append(1 << p)
            greedy[p] = len(classes)
    ub = len(classes)

    # greedy cliques: one in branch order, and one grown from each vertex by
    # adding the lowest-index common neighbor; the largest is the lower bound
    clique = lb = 0
    for p, nbrs in enumerate(nbr):
        if not clique & ~nbrs:
            clique |= 1 << p
            lb += 1
    for cand in nbr_mask:
        size = 1
        while cand:
            cand &= nbr_mask[(cand & -cand).bit_length() - 1]
            size += 1
        if size > lb:
            lb = size

    if ub > lb:
        dsatur = _dsatur_greedy(nbr)
        d = max(dsatur)
        if d < ub:
            greedy, ub = dsatur, d
        if d >= 3:  # DSATUR 2-colors every bipartite graph, so g has an odd cycle
            lb = max(lb, 3)

    value, colors = ub, greedy
    for k in range(lb, ub):
        found = _proper_exact_k(nbr, k, budget)
        if found is not None:
            value, colors = k, found
            break
    by_vertex = [0] * n
    for p, v in enumerate(order):
        by_vertex[v] = colors[p]
    return value, by_vertex, lb, ub


def chromatic_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact chromatic number with a witness proper coloring.

    ``lower_bound_used`` is the largest greedy clique, raised to 3 when the
    DSATUR greedy certifies an odd cycle; ``upper_bound_used`` is the
    smaller of the two greedy colorings' counts (see :func:`_chromatic_search`).
    """
    budget = _Budget(opts)
    value, colors, lb, ub = _chromatic_search(*_tables(g), budget)
    witness = Coloring(_first_appearance(colors))
    if not is_proper(g, witness):
        raise AssertionError("internal error: chromatic witness is not proper")
    return SolveResult(value, witness, budget.nodes, budget.elapsed(), lb, ub)


# ---------------------------------------------------------------------------
# total domination


def is_total_dominating_set(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex of g (members of s included) has a neighbor in s."""
    bits = 0
    for v in set(s):
        if not 0 <= v < g.vertex_count:
            raise ValueError(f"vertex {v} out of range 0..{g.vertex_count - 1}")
        bits |= 1 << v
    return all(m & bits for m in g.masks)


def _union(verts: int, nbr_mask: Sequence[int]) -> int:
    """The union of N(v) over the vertices v of ``verts``."""
    out = 0
    while verts:
        low = verts & -verts
        out |= nbr_mask[low.bit_length() - 1]
        verts ^= low
    return out


def _covering_parts(nbr_mask: Sequence[int]) -> list[tuple[int, int]]:
    """The independent parts of total domination, as ``(part, candidates)`` bitmasks.

    Two vertices interact in the covering problem only when they share a
    neighbor, so the parts are the classes of "w and w' lie in a common
    N(u)": each grows from its lowest vertex by the union of N(u) over its
    candidates u until it is stable. A part's candidates, the union of N(w)
    over its members w, are the only vertices that dominate any of them,
    and they dominate nothing outside it: all of N(u) lies in one part. So
    the candidate sets of different parts are disjoint, and a total
    dominating set is the union of one cover per part. A connected graph
    has two parts, its color classes, exactly when it is bipartite, and one
    part otherwise. Parts come in the order of their lowest vertex.
    """
    rest = (1 << len(nbr_mask)) - 1
    parts = []
    while rest:
        part = grown = rest & -rest
        cand = 0
        while grown:
            new_cand = _union(grown, nbr_mask) & ~cand
            cand |= new_cand
            grown = _union(new_cand, nbr_mask) & ~part
            part |= grown
        parts.append((part, cand))
        rest &= ~part
    return parts


def _cover_search(
    need: int, avail: int, nbr_mask: Sequence[int], budget: _Budget
) -> tuple[int, tuple[int, ...], int]:
    """The fewest vertices of ``avail`` whose neighborhoods cover ``need``, by increasing size.

    Returns the size, the set (sorted) and the size the loop started at.
    The root bound below picks vertices as it counts them; when those picks
    already cover ``need``, they are a cover of the least possible size, so
    they are returned and no node is spent. Otherwise, for each target size
    from the root bound up, the search returns the first set it finds. It
    branches fail-first on the
    uncovered vertex w of ``need`` with the fewest non-excluded neighbors,
    ties to the lowest index: one of them must be picked. It tries them by
    descending gain, the number of uncovered vertices each covers, ties by
    ascending index. A neighbor refuted for one branch is excluded from its
    later siblings, so each set is reached at most once. w's candidates are
    the first region of the open packing in :func:`_can_cover`, which
    returns them when it does not cut, so choosing w costs no extra pass.

    Packing bound: each remaining pick is a distinct vertex u of ``avail``
    that is not excluded, and it covers nothing outside N(u). So a branch is
    cut when :func:`_can_cover` shows that ``picks_left`` such picks cannot
    cover the uncovered vertices: too many of them for the largest gain,
    more of them with disjoint non-excluded neighborhoods than picks left
    (each needs a pick of its own), or more of them than the best gains of
    such picks can reach. The size loop starts at the root case, with all
    of ``avail`` open: the fewest picks that pass the same test, so never
    below a greedy open packing of ``need`` or ceil(|need| / largest gain).
    It counts them by picking, in one pass, the first vertex of best gain in
    each region of that packing, then the other vertices by descending gain,
    ties by index, until the gains reach |need|. Both bounds cut only
    subtrees that hold no cover of the target size, and both hold under any
    branch vertex and candidate order. Every vertex of ``need`` must have a
    neighbor in ``avail``. The set-up reads only the vertices of ``avail``.
    """
    count = need.bit_count()
    gain = {}  # by ascending index
    rest = avail
    while rest:
        low = rest & -rest
        u = low.bit_length() - 1
        gain[u] = (nbr_mask[u] & need).bit_count()
        rest ^= low
    max_deg = max(gain.values())
    # the root case of the packing bound below, the least p that
    # _can_cover(need, p, avail, ...) passes, in one pass: a pick for each
    # region of its open packing over every N(w) & avail, which gains the
    # region's best gain, then picks by descending gain from the other
    # vertices until the gains reach |need|. The gains of all of avail
    # reach it, and no pick gains more than max_deg, so there are at least
    # ceil(|need| / max_deg) picks
    regions = []
    rest = need
    while rest:
        low = rest & -rest
        regions.append(nbr_mask[low.bit_length() - 1] & avail)
        rest ^= low
    packed = taken = reached = 0
    for region in sorted(regions, key=int.bit_count):
        if not region & packed:
            packed |= region
            best = 0
            while region:
                low = region & -region
                if gain[low.bit_length() - 1] > best:
                    best, best_bit = gain[low.bit_length() - 1], low
                region ^= low
            reached += best
            taken |= best_bit
    for u in sorted(gain, key=gain.__getitem__, reverse=True):  # stable: ties by index
        if reached >= count:
            break
        if not taken >> u & 1:
            reached += gain[u]
            taken |= 1 << u
    lower = taken.bit_count()
    if not need & ~_union(taken, nbr_mask):  # the root picks attain the bound
        return lower, tuple(u for u in gain if taken >> u & 1), lower
    chosen: list[int] = []
    witness: tuple[int, ...] = ()

    def extend(picks_left: int, covered: int, excluded: int) -> bool:
        nonlocal witness
        uncovered = need & ~covered
        if not uncovered:
            witness = tuple(sorted(chosen))
            return True
        # each pick is a distinct non-excluded u and covers only N(u)
        cand = _can_cover(uncovered, picks_left, avail & ~excluded, nbr_mask, max_deg)
        by_gain = []
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            by_gain.append((-(nbr_mask[v] & uncovered).bit_count(), v))
            cand ^= low
        for _, v in sorted(by_gain):
            budget.spend()
            chosen.append(v)
            if extend(picks_left - 1, covered | nbr_mask[v], excluded):
                return True
            chosen.pop()
            excluded |= 1 << v
        return False

    for size in range(lower, avail.bit_count() + 1):
        if extend(size, 0, 0):
            return size, witness, lower
    raise AssertionError("unreachable: all of avail covers need")


def _total_dom_search(
    nbr_mask: Sequence[int], budget: _Budget
) -> tuple[int, tuple[int, ...], int, int]:
    """Exact total domination number: one :func:`_cover_search` per covering part.

    A total dominating set is the union of one cover per part of
    :func:`_covering_parts`, each part covered by its own candidates, so
    gamma_t is the sum of the parts' least covers. Returns that sum, the
    sorted union of the parts' covers, the sum of the sizes their
    loops started at (the least picks that pass each part's covering test)
    and n. A set of size gamma_t takes a least cover in each part. Each
    part's search is as deep as its cover, so a bipartite graph's searches
    are half as deep, and a part whose root picks already cover it spends
    no node, even when the other part must search. A graph with one part,
    as every connected graph that is not bipartite, runs the whole-graph
    search unchanged.
    """
    value = lower = 0
    picks: list[int] = []
    for need, avail in _covering_parts(nbr_mask):
        size, cover, start = _cover_search(need, avail, nbr_mask, budget)
        value += size
        picks += cover
        lower += start
    return value, tuple(sorted(picks)), lower, len(nbr_mask)


def total_domination_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact total domination number with a witness vertex set.

    ``lower_bound_used`` is the sum, over the covering parts of
    :func:`_covering_parts`, of the size each part's search started at: the
    least number of picks that pass that part's covering test.
    """
    budget = _Budget(opts)
    if g.vertex_count == 0:
        return SolveResult(0, (), 0, budget.elapsed(), 0, 0)
    if g.has_isolated_vertex():
        raise ValueError("total domination undefined: graph has an isolated vertex")
    value, witness, lb, ub = _total_dom_search(g.masks, budget)
    if not is_total_dominating_set(g, witness):
        raise AssertionError("internal error: domination witness failed verification")
    return SolveResult(value, witness, budget.nodes, budget.elapsed(), lb, ub)


# ---------------------------------------------------------------------------
# TD-chromatic number


_SYMMETRY_START = 4  # per vertex: the nodes a round spends before it finds automorphisms


class _Symmetry:
    """The automorphisms one solve's TD rounds cut with, found at most once.

    Built with ``maps``, every round cuts with them from its first node.
    Built without, the first round to spend ``_SYMMETRY_START`` nodes per
    vertex calls :func:`_automorphisms` and keeps what it returns here, for
    its own later nodes and for every later round. The finder's step cap
    makes it cost no more than those nodes did (ski rental): a solve whose
    rounds stay small never pays for it, and one whose round runs on pays
    at most about what that round had already spent.
    """

    __slots__ = ("maps",)

    def __init__(self, maps: list[list[int]] | None = None) -> None:
        self.maps = maps


def _td_exact_k(
    k: int,
    gamma: int,
    order: list[int],
    nbr_mask: Sequence[int],
    budget: _Budget,
    symmetry: _Symmetry,
) -> list[int] | None:
    """Search for a total dominator coloring with at most k classes.

    Branches vertex by vertex in the fixed order with a canonical color order
    (at most one color beyond the maximum used so far), trying the new color
    first and then the used colors by descending index. A new color's class
    {v} lies inside N(w) for every w in N(v); small classes like it are what
    a TD-coloring needs. Besides each vertex's color, the state is two
    bitmasks per color: ``reach[c]``, the union of the class members'
    neighborhoods, and ``dom[c]``, the common neighbors of its members, that
    is the vertices w whose N(w) contains the whole class, so the class can
    still be w's witness. A new color's ``dom`` is N(v); a reused color's
    shrinks to ``dom[c] & N(v)``.

    A used color c is admissible on v when v lies outside ``reach[c]`` and,
    once ``idle`` colors (used colors whose ``dom`` is empty) reach the cap
    k - gamma, c is idle already or ``dom[c] & N(v)`` is not empty. One
    member of each class that dominates someone lies in N(w) for every w the
    class dominates, so together they form a total dominating set: at least
    ``gamma`` (gamma_t) classes dominate someone, and at most k - gamma
    dominate nobody. A class whose ``dom`` is empty keeps it empty, since
    classes only grow, so a reuse that empties ``dom[c]`` at the cap has no
    completion. The branch loop tests admissibility before it spends a node,
    so ``idle`` never passes the cap.

    A vertex is *needy* when it lies in no used color's ``dom``. A new color
    removes N(v) from the needy set; a reused color adds the vertices that
    just left its ``dom`` and lie in no other used one: those of ``single``,
    the vertices exactly one used color dominates (:func:`_in_exactly_one`).
    Classes only grow, so a class can come to lie inside N(w) only as a new
    color on an uncolored vertex of N(w). Once all of N(w) is colored (w in
    ``closed[depth]``, built once per round from the position of each
    vertex's last neighbor in the order), no class can come to dominate w,
    so a reuse of c on v is also inadmissible in two cases:

    - *forced new color*: some needy vertex lies in ``closed[depth]``. It
      lies in N(v), as the cut below removed any other at the parent, and
      only v's class can still dominate it, so v must open a new class;
    - *stranded vertex*: c alone dominates some w outside N(v) in
      ``closed[depth]``, so the reuse would drop w from the only class that
      can dominate it. These are ``dom[c] & single & closed[depth] &
      ~N(v)``; ``single`` is computed once per node, and only when a reuse
      gets past the cheaper tests.

    Each such child would leave a needy vertex with no uncolored neighbor,
    which the first cut below kills at once, so rejecting it before a node
    is spent drops only children with no completion.

    Two cuts run after each placement, the second only when the first
    passes. The first is :func:`_can_cover`. One of the k - max_used colors
    not used yet must dominate each needy vertex. Each of those colors ends
    up with a class of uncolored vertices; pick one member u of each,
    distinct because classes are disjoint. The class lies inside N(u), so it
    dominates only needy vertices in N(u), and a class that dominates a
    needy w lies inside N(w) & uncolored. So :func:`_can_cover` applies with
    the k - max_used unused colors as picks and the uncolored vertices
    (``uncolored[depth]``) as the available ones. Its empty-region case, a
    needy vertex with no uncolored neighbor, no longer arises: the
    admissibility test rejects every child that would make one.

    The second, ``can_place``, runs once at most one color is unused and
    some vertex is uncolored. Each uncolored vertex still needs a class it
    is admissible on, and it cannot join one that would leave a vertex
    undominated for good: it reads the same ``closed`` table for those
    vertices.

    The admissibility test and the cuts drop only subtrees with no coloring,
    and the search order is fixed, so the first coloring found does not
    depend on them. No state carries from one sibling to the next and they
    read only the current node, so without the symmetry cut a round with no
    coloring visits the same nodes in any color order.

    *Symmetry cut.* An automorphism s of G maps each TD-coloring P with at
    most k classes to another, s(P), whose classes are the images of P's
    classes. The search meets the colorings it could find in a fixed
    order: compare them position by position in the branch order,
    numbering each one's classes in order of appearance, and at the first
    position that differs the one whose class there the search tries
    earlier comes first, a new class before the used ones by descending
    index, so a higher number. Hence the first coloring a round finds comes
    no later than any image of it. Beside the admissibility tests, before a
    node is spent, a child is rejected when some map of ``symmetry``
    already shows, from the colored positions alone, that the image of
    every completion comes earlier than the completion: with positions
    compared only while both a position's vertex and the vertex it reads
    from are colored. A completion that is a coloring would then have an
    image the round meets first, so the first coloring found is never under
    a rejected child: the cut keeps every coloring a round finds and only
    lowers node counts, but a round with no coloring now visits nodes that
    depend on the color order. :func:`_automorphisms` finds the maps, at
    most once per solve; see :class:`_Symmetry` for when.

    A round visits a subtree of an exactly-k search. The slack, uncolored
    vertices minus unused colors, starts at n - k >= 0 (k = n always
    succeeds), and only a reused color lowers it. At slack 0 every needy
    vertex the cuts let through has an uncolored neighbor, so the all-new
    path, tried first, succeeds before any reuse and the slack never goes
    negative: every coloring found has exactly k colors.
    """
    n = len(order)
    max_deg = max(m.bit_count() for m in nbr_mask)
    # uncolored[d]: the vertices after depth d in the order; closed[d]: the
    # vertices whose whole neighborhood is colored at depth d, each entered
    # at the position of its last neighbor
    uncolored = [0] * n
    for d in range(n - 2, -1, -1):
        uncolored[d] = uncolored[d + 1] | 1 << order[d + 1]
    last = [0] * n
    for d, v in enumerate(order):
        ws = nbr_mask[v]
        while ws:
            low = ws & -ws
            last[low.bit_length() - 1] = d
            ws ^= low
    closed = [0] * n
    for w, d in enumerate(last):
        closed[d] |= 1 << w
    for d in range(1, n):
        closed[d] |= closed[d - 1]
    colors = [0] * n  # valid for the vertices colored so far
    dom = [0] * (k + 1)  # indexed by 1-based color
    reach = [0] * (k + 1)
    cap = k - gamma  # at most this many classes dominate nobody
    result: list[int] | None = None
    # live[d]: the lex-leader states at a node of depth d, each (wake, steps,
    # i, relabel), by ascending wake depth
    live: list[list] = [[]] * (n + 1)
    start = budget.nodes + _SYMMETRY_START * n

    def follow(states: list, depth: int, drop: bool = False) -> list | None:
        """The states after the child at ``depth`` is colored; None when a map sends it earlier.

        A state's map s gives the image coloring: each vertex v takes the
        color of s(v), and the colors are renumbered in order of appearance
        in the branch order (``relabel``, from color to number, so far).
        The state compares the two colorings position by position from
        position ``i`` and stops at the first position whose vertex or image
        is still uncolored, waking at the depth that colors both. At the
        first position where they differ, a higher image number is a color
        the search tries earlier, so the child is rejected (with ``drop``,
        only the map is), and a lower one ends the map's say in this
        subtree. A map whose image coloring is the coloring itself is
        dropped too.
        """
        woken = 0
        while woken < len(states) and states[woken][0] == depth:
            woken += 1
        after = states[woken:]
        for _, steps, i, relabel in states[:woken]:
            while True:
                v, u, wake = steps[i]
                if wake > depth:
                    insort(after, (wake, steps, i, relabel), key=itemgetter(0))
                    break
                mine, theirs = colors[v], relabel.get(colors[u], len(relabel) + 1)
                if mine != theirs:
                    if theirs > mine and not drop:
                        return None
                    break
                if theirs > len(relabel):
                    relabel = {**relabel, colors[u]: theirs}
                i += 1
        return after

    def watch(depth: int) -> None:
        """Start a state for each map at the root and follow them down to ``depth``."""
        at = [0] * n
        for p, v in enumerate(order):
            at[v] = p
        states = []
        for image in symmetry.maps:
            # steps[i]: position i's vertex, its image and the depth that
            # colors both; a last step at depth n never wakes
            steps = [(v, image[v], max(p, at[image[v]])) for p, v in enumerate(order)]
            steps.append((0, 0, n))
            states.append((steps[0][2], steps, 0, {}))
        live[0] = sorted(states, key=itemgetter(0))
        for d in range(depth):
            live[d + 1] = follow(live[d], d, drop=True)

    if symmetry.maps:
        watch(0)

    def can_place(depth: int, used: int, needy: int, idle: int) -> bool:
        """False when the uncolored vertices cannot all find a class.

        For a node with at most one color unused. A vertex w is *fatal* when
        exactly one used color c dominates it and, if a color is unused, w
        lies in ``closed[depth]``: no used color can come to dominate w, and
        no new class can come to lie inside N(w), so c must keep w. An
        uncolored vertex u can join c only when c is admissible on u and
        every fatal vertex of c lies in N(u). Admissibility only gets
        stricter further down: ``reach[c]`` grows, and once ``idle`` is at
        the cap it stays there, so a non-empty ``dom[c]`` stays non-empty and
        only shrinks.
        With no color unused, a vertex that can join no used color has no
        class. With one unused, all such vertices share the new class: they
        must be pairwise non-adjacent, and each needy vertex, which only the
        new class can dominate, must be adjacent to all of them.
        """
        rest = uncolored[depth]
        fatal = _in_exactly_one(dom[1 : used + 1])
        if used < k:
            fatal &= closed[depth]
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
            ws = dom[c] & fatal
            while ws and free:
                low = ws & -ws
                free &= nbr_mask[low.bit_length() - 1]
                ws ^= low
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
        if symmetry.maps is None and budget.nodes >= start:
            symmetry.maps = _automorphisms(order, nbr_mask)
            watch(depth)
        v = order[depth]
        nbrs = nbr_mask[v]
        # a needy vertex with no uncolored neighbor left needs v's class
        # alone: only a new color is admissible
        lowest = max_used + 1 if needy & closed[depth] else 1
        single = None  # the vertices exactly one used color dominates
        for c in range(min(max_used + 1, k), lowest - 1, -1):
            old_dom, old_reach = dom[c], reach[c]
            # admissible: v outside c's reach, and at the idle cap no reuse
            # that leaves c's class dominating nobody
            if old_reach >> v & 1 or (idle == cap and old_dom and not old_dom & nbrs):
                continue
            if c <= max_used:
                if single is None:
                    single = _in_exactly_one(dom[1 : max_used + 1])
                    stranded = single & closed[depth] & ~nbrs
                # nor one that drops a vertex c alone dominates and that no
                # new class can come to dominate
                if old_dom & stranded:
                    continue
            colors[v] = c
            # nor one that some automorphism maps to a coloring tried earlier
            states = live[depth]
            if states and states[0][0] == depth:
                states = follow(states, depth)
                if states is None:
                    continue
            live[depth + 1] = states
            budget.spend()
            idle_after = idle
            if c > max_used:
                used_after = c
                dom[c] = nbrs
                needy_after = needy & ~nbrs
            else:
                used_after = max_used
                dom[c] = old_dom & nbrs
                needy_after = needy | old_dom & single & ~nbrs
                if old_dom and not dom[c]:
                    idle_after += 1
            reach[c] |= nbrs
            unused, rest = k - used_after, uncolored[depth]
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


def _merge_classes(colors: list[int], nbr_mask: Sequence[int], budget: _Budget) -> list[int]:
    """Merge the classes of a TD-coloring while it stays one; colors 1..m out.

    Each class keeps three bitmasks: the class, ``reach`` (the union of its
    members' neighborhoods) and ``dom`` (the common neighbors of its
    members, the vertices it dominates), and ``one`` holds the vertices
    that exactly one class dominates. Classes i and j may merge when no
    member of i is adjacent to one of j, and no vertex of ``one`` is
    dominated by only one of them: the merged class dominates
    ``dom[i] & dom[j]``, so it keeps every vertex dominated. The pairs
    i < j are swept once in class order, a merge folding j into i. Each
    merge spends one node; rejected pairs spend none. One sweep suffices,
    since a rejected pair stays rejected: classes and ``reach`` only grow,
    and a class that alone dominates a vertex w can merge with no class
    that misses w, so it keeps w while the other class's ``dom`` only
    shrinks. Returns the merged coloring, its classes numbered in order.
    """
    n = len(colors)
    index = {c: i for i, c in enumerate(sorted(set(colors)))}
    classes, reach, dom = [0] * len(index), [0] * len(index), [-1] * len(index)
    for v, c in enumerate(colors):
        i = index[c]
        classes[i] |= 1 << v
        reach[i] |= nbr_mask[v]
        dom[i] &= nbr_mask[v]
    one = _in_exactly_one(dom)

    i = 0
    while i < len(classes):
        j = i + 1
        while j < len(classes):
            if classes[i] & reach[j] or (dom[i] ^ dom[j]) & one:
                j += 1
                continue
            budget.spend()
            classes[i] |= classes.pop(j)
            reach[i] |= reach.pop(j)
            dom[i] &= dom.pop(j)
            one = _in_exactly_one(dom)
        i += 1

    merged = [0] * n
    for c, cls in enumerate(classes, 1):
        while cls:
            low = cls & -cls
            merged[low.bit_length() - 1] = c
            cls ^= low
    return merged


def _require_td_defined(g: Graph) -> None:
    """Raise ValueError unless g has at least 2 vertices and none isolated."""
    if g.vertex_count < 2:
        raise ValueError("TD-coloring needs at least 2 vertices")
    if g.has_isolated_vertex():
        raise ValueError("TD-coloring undefined: graph has an isolated vertex")


def _clique_cover(verts: int, nbr_mask: Sequence[int]) -> int:
    """The number of cliques in a greedy cover of ``verts``, at least its alpha.

    Each clique starts at the lowest vertex left and adds the lowest common
    neighbor left. An independent set has at most one vertex in each clique.
    """
    count = 0
    while verts:
        cand = verts
        while cand:
            low = cand & -cand
            verts ^= low
            cand &= nbr_mask[low.bit_length() - 1]
        count += 1
    return count


def _triple_common(verts: int, nbr_mask: Sequence[int]) -> int:
    """The most common neighbors of three pairwise non-adjacent vertices of ``verts``."""
    best = 0
    us = verts
    while us:
        low = us & -us
        u = low.bit_length() - 1
        us ^= low
        vs = us & ~nbr_mask[u]
        while vs:
            low = vs & -vs
            v = low.bit_length() - 1
            vs ^= low
            common, xs = nbr_mask[u] & nbr_mask[v], vs & ~nbr_mask[v]
            while xs:
                low = xs & -xs
                count = (common & nbr_mask[low.bit_length() - 1]).bit_count()
                if count > best:
                    best = count
                xs ^= low
    return best


def _mix_covers(local: int, members: int, n: int, p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Whether ``local`` classes of profiles p and q hold ``members`` and dominate ``n``.

    x of the classes take p and the rest q, x real in [0, local]. Each need
    reads a * x >= b; a positive a gives a least x and a negative one a
    most, and the test compares every least with every most, in integers.
    """
    least, most = [(0, 1)], [(local, 1)]
    for at_p, at_q, need in ((p[0], q[0], members), (p[1], q[1], n)):
        a, b = at_p - at_q, need - local * at_q
        if a > 0:
            least.append((b, a))
        elif a < 0:
            most.append((-b, -a))
        elif b > 0:
            return False
    return all(lo * hd <= hi * ld for lo, ld in least for hi, hd in most)


def _counting_bound(lower: int, gamma: int, nbr_mask: Sequence[int]) -> int:
    """The least k >= ``lower`` that class sizes and domination counts allow.

    In a TD-coloring with k classes each vertex has a class inside its
    neighborhood, so each class is *idle* (inside no N(w)) or *local*
    (inside some N(w), and dominating exactly its members' common
    neighbors). At most k - gamma classes are idle (gamma = gamma_t: one
    member of each local class gives a total dominating set). An idle class
    is an independent set, so it holds at most alpha_hat members, the greedy
    clique cover count of V (:func:`_clique_cover`). Every local class fits
    one of three (members, dominated) profiles:

    - one member v: (1, Delta), as it dominates N(v);
    - two members: (2, c2), c2 the most common neighbors of two
      non-adjacent vertices that share one;
    - three or more inside N(w): (a3, c3). They are pairwise non-adjacent,
      so at most the clique cover count of N(w), and they dominate at most
      the common neighbors of any three of them. For N(w) of degree at most
      16, c3 scans its triples of pairwise non-adjacent vertices; a larger
      N(w) takes c2, a bound for any two of them, so triples stay cheap.

    Some classes are known outright. A leaf's class inside its neighborhood
    N(leaf) = {s} can only be {s}, so each support vertex s (a neighbor of a
    vertex of degree 1) is a class of its own: s_f such classes, one member
    each, which dominate the union U of their N(s). The other classes must
    hold the other n - s_f vertices and dominate the n - |U| outside U.

    So k fails when, for every count I of idle classes from 0 to
    k - max(gamma, s_f), the k - s_f - I other local classes cannot hold
    the n - s_f - I * alpha_hat members the idle ones leave and dominate
    n - |U| times, even mixing the profiles fractionally
    (:func:`_mix_covers`); with two needs, a mix of two profiles does
    whatever a mix of three does. The classes of a TD-coloring with k
    classes pass at k, so the bound is at most td; k = n passes with the
    other n - s_f vertices as singletons, which dominate at least the
    n - |U| <= n - s_f vertices left, since distinct support vertices have
    distinct leaves in U. So the loop ends. It spends no node, and its cost
    is O(sum of deg^2) plus the bounded triple scan.
    """
    n = len(nbr_mask)
    c2 = a3 = c3 = 0
    for u, nu in enumerate(nbr_mask):
        two, ws = 0, nu
        while ws:
            low = ws & -ws
            two |= nbr_mask[low.bit_length() - 1]
            ws ^= low
        vs = two & ~nu & -(2 << u)  # the non-neighbors v > u that share a neighbor
        while vs:
            low = vs & -vs
            common = (nu & nbr_mask[low.bit_length() - 1]).bit_count()
            if common > c2:
                c2 = common
            vs ^= low
    for nw in nbr_mask:
        if nw.bit_count() < 3:
            continue
        cover = _clique_cover(nw, nbr_mask)
        if cover < 3:
            continue
        best = c2 if nw.bit_count() > 16 else _triple_common(nw, nbr_mask)
        if best:
            a3, c3 = max(a3, cover), max(c3, best)
    max_deg = max(m.bit_count() for m in nbr_mask)
    profiles = [(1, max_deg)] + [(2, c2)] * (c2 > 0) + [(a3, c3)] * (c3 > 0)
    pairs = [(p, q) for i, p in enumerate(profiles) for q in profiles[i:]]
    alpha_hat = _clique_cover((1 << n) - 1, nbr_mask)
    # the support vertices s, each a class {s} that dominates N(s)
    support = 0
    for m in nbr_mask:
        if m.bit_count() == 1:
            support |= m
    forced = support.bit_count()
    left = n - _union(support, nbr_mask).bit_count()
    for k in range(lower, n + 1):
        for idle in range(k - max(gamma, forced) + 1):
            members = max(0, n - forced - idle * alpha_hat)
            if any(_mix_covers(k - forced - idle, members, left, p, q) for p, q in pairs):
                return k
    raise AssertionError("unreachable: n singleton classes pass the count")


def _bounding_phase(
    order: list[int], nbr: list[int], nbr_mask: Sequence[int], budget: _Budget
) -> tuple[int, int, int, list[int]]:
    """The counting bound, gamma_t + chi, gamma_t, and a TD-coloring with gamma_t + chi colors."""
    chi, proper, _, _ = _chromatic_search(order, nbr, nbr_mask, budget)
    gamma, tds, _, _ = _total_dom_search(nbr_mask, budget)
    constructed = [c + gamma for c in proper]
    for i, v in enumerate(tds):
        constructed[v] = i + 1
    lower = _counting_bound(max(chi, gamma), gamma, nbr_mask)
    return lower, gamma + chi, gamma, constructed


def td_chromatic_bounds(g: Graph, opts: SolveOptions | None = None) -> tuple[int, int]:
    """``(lower, gamma_t + chi)``, where :func:`td_chromatic_number` starts.

    ``lower`` is the counting bound of :func:`_counting_bound`, at least
    max(chi, gamma_t): the least k whose k classes can, by their sizes and
    the vertices each can dominate, hold every vertex and dominate each one.
    """
    _require_td_defined(g)
    lower, upper, _, _ = _bounding_phase(*_tables(g), _Budget(opts))
    return lower, upper


def td_chromatic_number(g: Graph, opts: SolveOptions | None = None) -> SolveResult:
    """Exact TD-chromatic number with a verified witness coloring.

    The bounds are the counting bound (:func:`_counting_bound`), at least
    max(chromatic number, total domination number), and the sum of those
    two. Every class of a TD-coloring either dominates nobody (at most
    k - gamma_t classes can) or lies inside some N(w), so it has few members
    and dominates only its members' common neighbors. A k whose classes
    cannot hold all n vertices and dominate each one has no coloring, so
    the bound drops only rounds that find none. It spends no node.
    :func:`_bounding_phase` builds a coloring with the sum: each member
    of a minimum total dominating set gets a private color, and every other
    vertex its chromatic color shifted past them. Every vertex has a
    neighbor in the set, whose singleton class dominates it, and the rest
    is proper. :func:`_merge_classes` shrinks that coloring into the
    incumbent. Then rounds run downward from it: each searches for at most
    one color fewer than the incumbent, and a coloring it finds becomes the
    new incumbent. A round that finds none ends the solve: with no coloring
    of at most k - 1 colors there is none of fewer, so the incumbent's k is
    optimal. No round runs once the incumbent meets the lower bound. Every
    phase works on the tables that :func:`_tables` builds once.
    """
    _require_td_defined(g)
    budget = _Budget(opts)
    order, nbr, nbr_mask = _tables(g)
    lower, upper, gamma, constructed = _bounding_phase(order, nbr, nbr_mask, budget)
    best = _merge_classes(constructed, nbr_mask, budget)
    k = max(best)
    symmetry = _Symmetry()
    while k > lower:
        found = _td_exact_k(k - 1, gamma, order, nbr_mask, budget, symmetry)
        if found is None:
            break
        best, k = found, max(found)

    witness = Coloring(_first_appearance(best))
    if not is_td_coloring(g, witness) or witness.num_colors != k:
        raise AssertionError("internal error: TD witness failed verification")
    return SolveResult(k, witness, budget.nodes, budget.elapsed(), lower, upper)


def td_chromatic_oracle(g: Graph, cap: int = 10, opts: SolveOptions | None = None) -> SolveResult:
    """Brute-force TD-chromatic number by set-partition enumeration.

    Enumerates restricted-growth strings over the vertices in index order,
    filtered to proper partitions, and returns the minimum class count. At
    every node, each vertex w with all of N(w) placed is re-checked, and the
    partial partition is cut when no block lies inside N(w): every vertex
    still to come lies outside N(w), so a block inside N(w) leaves it as
    soon as it grows, and a new block never lies inside it. Once every
    vertex is placed, this is the full TD test on the class bitmasks. The
    cut drops only subtrees with no TD partition and keeps the enumeration
    order, so the value and witness are those of the full enumeration. Each
    new best partition is re-checked with the coloring checker before it is
    kept, so the witness passes the public checker.
    Deliberately shares no search machinery with the rounds of
    :func:`td_chromatic_number`; intended as an independent correctness
    oracle for graphs of at most ``cap`` vertices. Each partial partition
    that passes both cuts spends one node of the budget in ``opts``;
    ``nodes_explored`` counts the complete partitions.
    """
    _require_td_defined(g)
    n = g.vertex_count
    if n > cap:
        raise ValueError(f"graph has {n} vertices; oracle cap is {cap}")

    budget = _Budget(opts)
    nbr_mask = g.masks
    # closed[v]: ~N(w) of each vertex w whose N(w) lies in 0..v-1; a block b
    # lies inside N(w) iff b & ~N(w) == 0
    closed = [[~m for m in nbr_mask if m.bit_length() <= v] for v in range(n + 1)]
    assign = [0] * n
    blocks: list[int] = []
    best_k = n + 1
    best: Coloring | None = None
    examined = 0

    def recurse(v: int) -> None:
        nonlocal best_k, best, examined
        if len(blocks) >= best_k:
            return  # already no better than the best complete partition
        for out in closed[v]:
            for b in blocks:
                if not b & out:
                    break
            else:
                return  # vertices v.. lie outside N(w), so no block can come inside it
        budget.spend()
        if v == n:
            examined += 1
            coloring = Coloring(tuple(c + 1 for c in assign))
            if not is_td_coloring(g, coloring):
                raise AssertionError("internal error: oracle leaf test disagrees with checker")
            best_k = len(blocks)
            best = coloring
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
    # a restricted-growth string numbers its classes in order of first appearance
    return SolveResult(best_k, best, examined, budget.elapsed(), 1, n)
