"""Command-line front end: build graphs, run solvers, evaluate formulas, verify.

Exit codes: 0 success / all confirmed, 1 usage or I/O error, 2 internal
solver/oracle inconsistency, 3 formula refuted, 4 budget exhausted or a
search too deep for Python's recursion limit (no answer is implied either
way).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import families, harness, solvers
from .expr import parse_expr
from .graph import Graph
from .solvers import BudgetExhaustedError, SolveOptions


def _opts_from_args(args: argparse.Namespace) -> SolveOptions | None:
    budget = getattr(args, "budget", None)
    return SolveOptions(node_budget=budget) if budget is not None else None


def _load_graph(args: argparse.Namespace) -> Graph:
    if getattr(args, "dimacs", None):
        with open(args.dimacs, encoding="utf-8") as fh:
            return Graph.from_dimacs(fh.read())
    if args.expr is None:
        raise ValueError("an expression or --dimacs FILE is required")
    return families.realize(parse_expr(args.expr))


def _cmd_build(args: argparse.Namespace) -> int:
    g = families.realize(parse_expr(args.expr))
    if args.out == "dimacs":
        sys.stdout.write(g.to_dimacs())
    else:
        print(json.dumps({"vertex_count": g.vertex_count, "edges": g.edges()}))
    return 0


# --what choice -> solver name, looked up on `solvers` at call time so that
# patches and tracers see the call. Each solver re-checks its witness with
# the public checker before it returns.
_SOLVERS = {
    "tdchromatic": "td_chromatic_number",
    "chromatic": "chromatic_number",
    "totaldom": "total_domination_number",
}


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    res = getattr(solvers, _SOLVERS[args.what])(g, _opts_from_args(args))
    witness = list(getattr(res.witness, "colors", res.witness))
    if args.json:
        print(
            json.dumps(
                {
                    "what": args.what,
                    "value": res.value,
                    "witness": witness,
                    "nodes_explored": res.nodes_explored,
                    "elapsed": res.elapsed,
                    "lower_bound_used": res.lower_bound_used,
                    "upper_bound_used": res.upper_bound_used,
                }
            )
        )
    else:
        print(f"value {res.value}")
        print(f"witness {witness}")
        print(
            f"nodes {res.nodes_explored} elapsed {res.elapsed:.3f}s "
            f"bounds [{res.lower_bound_used}, {res.upper_bound_used}]"
        )
    return 0


def _cmd_formula(args: argparse.Namespace) -> int:
    spec = parse_expr(args.expr)
    result = harness.formula_for_spec(spec, harness._factor_solver(_opts_from_args(args)))
    if result is None:
        print("no formula applies")
        return 0
    print(f"value {result.value}")
    print(f"tag {result.theorem_tag}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = families.realize(parse_expr(args.expr))
    lo, hi = solvers.td_chromatic_bounds(g, _opts_from_args(args))
    print(f"bounds [{lo}, {hi}]")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite:
        config = harness.SuiteConfig.from_json_file(args.suite)
    else:
        config = harness.default_suite()
    updates: dict[str, str] = {}
    if args.cache:
        updates["cache_dir"] = args.cache
    if args.report:
        updates["report_path"] = args.report
        if config.jsonl_path is None:
            updates["jsonl_path"] = args.report + ".jsonl"
    config = dataclasses.replace(config, **updates)
    report = harness.run_suite(config)
    if report.skipped_cache_lines:
        print(
            f"warning: skipped {report.skipped_cache_lines} malformed cache line(s)",
            file=sys.stderr,
        )
    if report.rejected_cache_records:
        print(
            f"warning: re-solved {report.rejected_cache_records} cache record(s) "
            "that failed a re-check",
            file=sys.stderr,
        )
    sys.stdout.write(report.table)
    return report.exit_code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdcolor",
        description="Exact total dominator coloring toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="emit the realized graph")
    p_build.add_argument("expr")
    p_build.add_argument("--out", choices=("dimacs", "json"), default="dimacs")
    p_build.set_defaults(func=_cmd_build)

    p_solve = sub.add_parser("solve", help="run an exact solver")
    p_solve.add_argument("expr", nargs="?")
    p_solve.add_argument("--dimacs", metavar="FILE")
    p_solve.add_argument(
        "--what",
        choices=tuple(_SOLVERS),
        default="tdchromatic",
    )
    p_solve.add_argument("--budget", type=int, metavar="N", help="node budget")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_formula = sub.add_parser("formula", help="evaluate the matching closed form")
    p_formula.add_argument("expr")
    p_formula.add_argument("--budget", type=int, metavar="N", help="node budget per join factor")
    p_formula.set_defaults(func=_cmd_formula)

    p_bounds = sub.add_parser("bounds", help="the counting lower bound and gamma_t + chi")
    p_bounds.add_argument("expr")
    p_bounds.add_argument("--budget", type=int, metavar="N", help="node budget")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--suite", metavar="FILE", help="JSON suite config")
    p_verify.add_argument("--cache", metavar="DIR")
    p_verify.add_argument("--report", metavar="PATH")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; remap
        return 0 if exc.code == 0 else harness.EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_BUDGET
    except RecursionError:
        # the searches recurse once per vertex or pick; an explicit stack would lift this
        print("error: search too deep for the recursion limit; no answer", file=sys.stderr)
        return harness.EXIT_BUDGET
    except harness.OracleMismatchError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return harness.EXIT_INTERNAL_MISMATCH
    except (ValueError, OSError) as exc:  # ExprSyntaxError and DimacsError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
