"""Print where a TD solve's nodes and seconds go, phase by phase.

    PYTHONPATH=src python tests/reach_table.py "G(8,8)" "G(6,10)" [--json]

For each instance, ``td_chromatic_number`` runs once with no budget, and
the table gives n, td and gamma_t, then the nodes and seconds of the
chromatic search, the total-domination search, the merge and each round
below the merged incumbent as ``kS`` (it found a coloring) or ``kU`` (it
found none), and the whole solve's. The total-domination cell also gives
each covering part's least cover and the nodes its search spent, as
``value in nodes``, one term per part. The phases are timed by wrapping the
``solvers`` functions that run them, so the seconds include the wrappers'
small cost. ``--json`` prints one JSON object per instance instead of the
table's rows. pytest does not collect this file.
"""

from __future__ import annotations

import json
import sys
import time
from unittest import mock

from tdcolor import families, solvers
from tdcolor.expr import parse_expr

PHASES = {"chi": "_chromatic_search", "gamma_t": "_total_dom_search", "merge": "_merge_classes"}


def profile(text: str) -> dict:
    """The solve of ``text`` with each phase's [nodes, seconds] and each round's [k, S/U, nodes, seconds].

    ``gamma_t_parts`` holds each covering part's [value, nodes].
    """
    g = families.realize(parse_expr(text))
    row: dict = {"instance": text, "n": g.vertex_count, "rounds": [], "gamma_t_parts": []}

    def timed(name: str, fn):
        def wrapper(*args):
            budget = args[-1] if name != "round" else args[4]
            before, started = budget.nodes, time.perf_counter()
            out = fn(*args)
            cost = [budget.nodes - before, round(time.perf_counter() - started, 3)]
            if name == "round":
                row["rounds"].append([args[0], "U" if out is None else "S", *cost])
            elif name == "part":
                row["gamma_t_parts"].append([out[0], cost[0]])
            else:
                row[name] = cost
                if name == "gamma_t":
                    row["gamma_t_value"] = out[0]
            return out

        return wrapper

    patches = [mock.patch.object(solvers, attr, timed(name, getattr(solvers, attr)))
               for name, attr in PHASES.items()]
    patches.append(mock.patch.object(solvers, "_td_exact_k", timed("round", solvers._td_exact_k)))
    patches.append(mock.patch.object(solvers, "_cover_search", timed("part", solvers._cover_search)))
    for patch in patches:
        patch.start()
    try:
        started = time.perf_counter()
        res = solvers.td_chromatic_number(g)
        row["total"] = [res.nodes_explored, round(time.perf_counter() - started, 3)]
    finally:
        for patch in patches:
            patch.stop()
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
