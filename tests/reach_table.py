"""Print where a TD solve's nodes and seconds go, phase by phase.

    PYTHONPATH=src python tests/reach_table.py "G(8,8)" "G(6,10)" [--json]

For each instance, ``td_chromatic_number`` runs once with no budget, and
the table gives n, td and gamma_t, then the nodes and seconds of the
chromatic search, the total-domination search, the merge and each round
below the merged incumbent as ``kS`` (it found a coloring) or ``kU`` (it
found none), and the whole solve's. The total-domination cell also gives
each covering part's least cover and the nodes its search spent, as
``value in nodes``, one term per part. The phases are recorded by
``util_graphs.record_phases``, so the seconds include its wrappers' small
cost. ``--json`` prints one JSON object per instance instead of the
table's rows. pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys

from tdcolor import families
from tdcolor.expr import parse_expr

from util_graphs import record_phases


def profile(text: str) -> dict:
    """The solve of ``text`` with each phase's [nodes, seconds] and each round's [k, S/U, nodes, seconds].

    ``gamma_t_parts`` holds each covering part's [value, nodes].
    """
    g = families.realize(parse_expr(text))
    res, seconds, calls = record_phases(g)
    row: dict = {"instance": text, "n": g.vertex_count, "rounds": [], "gamma_t_parts": []}
    for call in calls:
        cost = [call.nodes, round(call.seconds, 3)]
        if call.phase == "round":
            row["rounds"].append([call.args["k"], "U" if call.out is None else "S", *cost])
        elif call.phase == "part":
            row["gamma_t_parts"].append([call.out[0], call.nodes])
        else:
            row[call.phase] = cost
            if call.phase == "gamma_t":
                row["gamma_t_value"] = call.out[0]
    row["total"] = [res.nodes_explored, round(seconds, 3)]
    row["td"] = res.value
    return row


def cells(cost: list) -> str:
    return f"{cost[0]:,} ({cost[1]} s)"


def main(argv: list[str]) -> None:
    as_json = "--json" in argv
    texts = [a for a in argv if a != "--json"]
    if not as_json:
        print("| instance | n | td | γ_t | χ | γ_t search | merge | rounds: k nodes (s) | total |")
        print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for text in texts:
        row = profile(text)
        if as_json:
            print(json.dumps(row), flush=True)
            continue
        rounds = ", ".join(f"{k}{kind} {nodes:,} ({s} s)" for k, kind, nodes, s in row["rounds"])
        parts = " + ".join(f"{value} in {nodes:,}" for value, nodes in row["gamma_t_parts"])
        print(
            f"| `{text}` | {row['n']} | {row['td']} | {row['gamma_t_value']} | {cells(row['chi'])} "
            f"| {cells(row['gamma_t'])}: {parts} | {cells(row['merge'])} | {rounds or '–'} "
            f"| {cells(row['total'])} |",
            flush=True,
        )


if __name__ == "__main__":
    main(sys.argv[1:])
