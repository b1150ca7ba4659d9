"""Write tests/data/frontier_rounds.json: each frontier instance's TD rounds.

    PYTHONPATH=src python tests/make_frontier_rounds.py

For every instance of ``util_graphs.FRONTIER``, records each round that
``td_chromatic_number`` runs below the merged incumbent as ``[k, nodes,
coloring]``, the coloring being ``null`` when the round finds none.
``test_td_frontier_rounds_match_reference_k_loop`` checks the table exactly,
so regenerate it only when a change to the rounds is intended.
"""

from __future__ import annotations

import json

from tdcolor import families
from tdcolor.expr import parse_expr

from util_graphs import FRONTIER, FRONTIER_ROUNDS_PATH, recorded_solve


def main() -> None:
    table = {}
    for text in FRONTIER:
        _, _, rounds = recorded_solve(families.realize(parse_expr(text)))
        table[text] = [list(r) for r in rounds]
    lines = [f"  {json.dumps(text)}: {json.dumps(rounds)}" for text, rounds in table.items()]
    FRONTIER_ROUNDS_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    main()
