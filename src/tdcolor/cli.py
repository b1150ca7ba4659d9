"""Command-line front end: build graphs, run solvers, evaluate formulas, verify.

Exit codes: 0 success / all confirmed, 1 usage or I/O error, 2 internal
solver/oracle inconsistency, 3 formula refuted, 4 budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import families, formulas, harness, solvers
from .coloring import Coloring, is_proper, is_td_coloring
from .expr import ExprSyntaxError, parse_expr
from .graph import DimacsError, Graph
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


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    opts = _opts_from_args(args)
    if args.what == "tdchromatic":
        res = solvers.td_chromatic_number(g, opts)
        witness = list(res.witness.colors)
        if not is_td_coloring(g, Coloring(tuple(witness))):
            raise RuntimeError("witness failed re-verification")
    elif args.what == "chromatic":
        res = solvers.chromatic_number(g, opts)
        witness = list(res.witness.colors)
        if not is_proper(g, Coloring(tuple(witness))):
            raise RuntimeError("witness failed re-verification")
    else:
        res = solvers.total_domination_number(g, opts)
        witness = list(res.witness)
        if not solvers.is_total_dominating_set(g, witness):
            raise RuntimeError("witness failed re-verification")
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
    result = harness.formula_for_spec(spec)
    if result is None:
        print("no formula applies")
        return 0
    print(f"value {result.value}")
    print(f"tag {result.theorem_tag}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = families.realize(parse_expr(args.expr))
    result = formulas.td_chromatic_bounds(g)
    print(f"bounds [{result.lo}, {result.hi}]")
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
    if updates:
        config = harness.SuiteConfig.from_dict(
            {
                "instances": list(config.instances),
                "node_budget": config.node_budget,
                "time_budget": config.time_budget,
                "oracle_cap": config.oracle_cap,
                "cache_dir": config.cache_dir,
                "report_path": config.report_path,
                "jsonl_path": config.jsonl_path,
                "csv_path": config.csv_path,
                **updates,
            }
        )
    report = harness.run_suite(config)
    if report.skipped_cache_lines:
        print(
            f"warning: skipped {report.skipped_cache_lines} malformed cache line(s)",
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
        choices=("tdchromatic", "chromatic", "totaldom"),
        default="tdchromatic",
    )
    p_solve.add_argument("--budget", type=int, metavar="N", help="node budget")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)

    p_formula = sub.add_parser("formula", help="evaluate the matching closed form")
    p_formula.add_argument("expr")
    p_formula.set_defaults(func=_cmd_formula)

    p_bounds = sub.add_parser("bounds", help="domination/chromatic interval")
    p_bounds.add_argument("expr")
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
    except ExprSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_BUDGET
    except harness.OracleMismatchError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return harness.EXIT_INTERNAL_MISMATCH
    except (DimacsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return harness.EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
