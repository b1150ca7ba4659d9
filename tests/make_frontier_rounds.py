"""Write the generated tables under tests/data.

    PYTHONPATH=src python tests/make_frontier_rounds.py

``frontier_rounds.json``: for every instance of ``util_graphs.FRONTIER``,
each round that ``td_chromatic_number`` runs below the merged incumbent as
``[k, nodes, coloring]``, the coloring being ``null`` when the round finds
none. ``test_td_frontier_rounds_match_reference_k_loop`` checks it exactly.

``random_rounds.json``: for each seed of ``util_graphs.RANDOM_ROUNDS_SEEDS``,
the graph ``sparse_connected_graph`` draws from it and its rounds, as
``{"n", "edges", "rounds"}``. ``test_td_random_rounds_match_table`` checks
it exactly.

``totaldom_phase.json``: for every instance of ``util_graphs.TOTALDOM_PHASE``,
``total_domination_number`` as ``[value, lower bound, nodes, witness]``.
``test_total_domination_phase_matches_table`` checks it exactly.

Regenerate them only when a change to the rounds or to the
total-domination search is intended. Each row whose node count changed is
printed as ``table instance: old -> new nodes``, a row of rounds counting
the nodes of all its rounds, and each row whose witness changed as ``table
instance: witness moved``, a row of rounds comparing the coloring of its
last round that found one.
"""

from __future__ import annotations

import json
import random
from operator import itemgetter
from pathlib import Path

from tdcolor import families
from tdcolor.expr import parse_expr
from tdcolor.solvers import total_domination_number

from util_graphs import (
    FRONTIER,
    FRONTIER_ROUNDS_PATH,
    RANDOM_ROUNDS_PATH,
    RANDOM_ROUNDS_SEEDS,
    TOTALDOM_PHASE,
    TOTALDOM_PHASE_PATH,
    recorded_solve,
    sparse_connected_graph,
)


def write_table(path: Path, table: dict[str, list], nodes, witness) -> None:
    """Write ``table`` to ``path``; print each row whose ``nodes(row)`` or ``witness(row)`` changed."""
    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for text, row in table.items():
        if text in old and nodes(old[text]) != nodes(row):
            print(f"{path.name} {text}: {nodes(old[text]):,} -> {nodes(row):,} nodes")
        if text in old and witness(old[text]) != witness(row):
            print(f"{path.name} {text}: witness moved")
    lines = [f"  {json.dumps(text)}: {json.dumps(row)}" for text, row in table.items()]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def round_nodes(rounds: list) -> int:
    return sum(nodes for _, nodes, _ in rounds)


def last_coloring(rounds: list) -> list | None:
    """The coloring of the last round that found one: the solve's witness, when a round found one."""
    return next((coloring for _, _, coloring in reversed(rounds) if coloring), None)


def main() -> None:
    rounds = {}
    for text in FRONTIER:
        _, _, solve_rounds = recorded_solve(families.realize(parse_expr(text)))
        rounds[text] = [list(r) for r in solve_rounds]
    write_table(FRONTIER_ROUNDS_PATH, rounds, round_nodes, last_coloring)

    pinned = {}
    for seed in RANDOM_ROUNDS_SEEDS:
        g = sparse_connected_graph(random.Random(seed))
        _, _, solve_rounds = recorded_solve(g)
        pinned[str(seed)] = {
            "n": g.vertex_count,
            "edges": [list(e) for e in g.edges()],
            "rounds": [list(r) for r in solve_rounds],
        }
    write_table(
        RANDOM_ROUNDS_PATH,
        pinned,
        lambda entry: round_nodes(entry["rounds"]),
        lambda entry: last_coloring(entry["rounds"]),
    )

    phase = {}
    for text in TOTALDOM_PHASE:
        res = total_domination_number(families.realize(parse_expr(text)))
        phase[text] = [res.value, res.lower_bound_used, res.nodes_explored, list(res.witness)]
    write_table(TOTALDOM_PHASE_PATH, phase, itemgetter(2), itemgetter(3))


if __name__ == "__main__":
    main()
