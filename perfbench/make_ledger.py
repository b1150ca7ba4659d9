#!/usr/bin/env python3
"""Regenerate perfbench/ledger.json, the answers the benchmark checks against.

    python3 perfbench/make_ledger.py

Run it only when the expected answers change, never to make a failing run
pass. Values come from exact solves without a node budget, so they cover the
frontier instances past today's budget too; the slowest, G(4,5), takes about
20 s. Planted chromatic numbers need no entry: the generator fixes them.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from tdcolor import expr, families, harness, solvers  # noqa: E402


def td_value(text: str) -> int:
    return solvers.td_chromatic_number(families.realize(expr.parse_expr(text))).value


def main() -> None:
    report = harness.run_suite(harness.default_suite())
    rows = {
        r.spec_text: [r.formula_value, r.solver_value, r.oracle_value, r.match]
        for r in report.records
    }
    tally = {
        "total": len(rows),
        **{m: sum(r[3] == m for r in rows.values()) for m in ("confirmed", "refuted", "unknown")},
    }
    frontier = {}
    for table in (run.FRONTIER, run.TINY_FRONTIER):
        for template, orders in table.values():
            for order in orders:
                name = template.format(order)
                frontier[name] = td_value(name)
                print(name, frontier[name], flush=True)
    totaldom = {
        text: solvers.total_domination_number(families.realize(expr.parse_expr(text))).value
        for text in run.TOTALDOM + run.TINY_TOTALDOM
    }
    ledger = {
        "verify": {"tally": tally, "exit": report.exit_code, "rows": rows},
        "frontier": {"values": frontier},
        "bounds": {"totaldom": totaldom},
    }
    path = run.HERE / "ledger.json"
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
