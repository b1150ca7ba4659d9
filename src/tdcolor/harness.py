"""Verification harness: formula vs. exact solver vs. brute-force oracle.

Each family instance yields one :class:`VerificationRecord`. A disagreement
between the solver and the oracle is an internal inconsistency and raises;
a disagreement between a formula and the solver is an honest, reportable
outcome (``match = "refuted"``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import dataclass
from typing import Callable

from . import families, formulas, solvers
from .coloring import Coloring
from .expr import parse_expr, pretty
from .families import FamilySpec
from .formulas import FormulaResult
from .graph import Graph
from .solvers import SOLVER_VERSION, BudgetExhaustedError, SolveOptions

__all__ = [
    "SCHEMA_VERSION",
    "OracleMismatchError",
    "VerificationRecord",
    "SuiteConfig",
    "SuiteReport",
    "default_suite",
    "formula_for_spec",
    "verify_instance",
    "run_suite",
    "render_table",
    "render_csv",
]

SCHEMA_VERSION = 1

# exit statuses shared with the CLI
EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTERNAL_MISMATCH = 2
EXIT_REFUTED = 3
EXIT_BUDGET = 4


class OracleMismatchError(RuntimeError):
    """Exact solver and brute-force oracle disagree: internal inconsistency."""


@dataclass(frozen=True)
class VerificationRecord:
    """One verified instance: formula value vs. solver value vs. oracle value."""

    spec_text: str
    vertex_count: int
    formula_value: int | None
    theorem_tag: str | None
    solver_value: int | None
    oracle_value: int | None
    match: str  # "confirmed" | "refuted" | "unknown"
    elapsed: float
    witness: tuple[int, ...] | None

    def to_dict(self) -> dict:
        # json writes the witness tuple as a list
        return {"schema_version": SCHEMA_VERSION, **vars(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "VerificationRecord":
        data = {**data}
        if data.pop("schema_version") != SCHEMA_VERSION:
            raise ValueError("unsupported record schema version")
        witness = data.pop("witness")
        return cls(
            witness=tuple(witness) if witness is not None else None, **data
        )

    @classmethod
    def from_json(cls, line: str) -> "VerificationRecord":
        return cls.from_dict(json.loads(line))


def _match_flag(formula_value: int | None, solver_value: int | None) -> str:
    if formula_value is None or solver_value is None:
        return "unknown"
    return "confirmed" if formula_value == solver_value else "refuted"


def _budget_cut(rec: VerificationRecord) -> bool:
    """True when the budget cut off the solver or a formula's own solves.

    A formula that applies always has a value, so a tag without a value marks
    a join formula whose factor solves ran out of budget.
    """
    return rec.solver_value is None or (
        rec.theorem_tag is not None and rec.formula_value is None
    )


ComponentSolver = Callable[[FamilySpec], int | None]


def _default_component_solver(opts: SolveOptions | None) -> ComponentSolver:
    def solve(spec: FamilySpec) -> int | None:
        g = families.realize(spec)
        if g.vertex_count < 2 or g.has_isolated_vertex() or not g.is_connected():
            return None
        return solvers.td_chromatic_number(g, opts).value

    return solve


def _join_formula(
    spec: families.Join, component_solver: ComponentSolver | None
) -> FormulaResult | None:
    solve = component_solver or _default_component_solver(None)
    a = solve(spec.left)
    b = solve(spec.right)
    if a is None or b is None or a < 2 or b < 2:
        return None
    return formulas.formula_join(a, b)


# spec class -> rule; a family without a closed form has no entry
_FORMULAS: dict[type, Callable[..., FormulaResult | None]] = {
    families.Path: lambda s, _: formulas.formula_path(s.n) if s.n >= 2 else None,
    families.Cycle: lambda s, _: formulas.formula_cycle(s.n),
    families.Friendship: lambda s, _: (
        formulas.formula_friendship(s.q, s.n) if s.q in (3, 4, 5) and s.n >= 2 else None
    ),
    families.Ladder: lambda s, _: formulas.formula_ladder(s.n) if s.n >= 2 else None,
    families.Grid: lambda s, _: (
        formulas.formula_grid(s.m, s.n) if s.m >= 2 and s.n >= 2 else None
    ),
    families.TriChain: lambda s, _: formulas.formula_chain_cactus("triangular", s.n),
    families.OrthoChain: lambda s, _: formulas.formula_chain_cactus("ortho", s.n),
    families.Corona: lambda s, _: _corona_formula(s),
    families.Join: _join_formula,
}


def formula_for_spec(
    spec: FamilySpec,
    component_solver: ComponentSolver | None = None,
) -> FormulaResult | None:
    """Closed-form value for an instance, or None when no formula applies.

    Join instances need the factors' TD-chromatic numbers;
    ``component_solver`` supplies them (defaults to solving exactly without
    budgets). The dispatcher never guesses: parameters outside a formula's
    domain yield None.
    """
    rule = _FORMULAS.get(type(spec))
    return rule(spec, component_solver) if rule is not None else None


# the two corona instances claimed to meet the |V(G)| + |V(H)| bound exactly
_SHARP_CORONAS = {
    families.Corona(families.Cycle(4), families.Complete(2)): 6,
    families.Corona(families.Complete(2), families.Complete(3)): 5,
}


def _corona_formula(spec: families.Corona) -> FormulaResult | None:
    sharp = _SHARP_CORONAS.get(spec)
    if sharp is not None:
        return FormulaResult("exact", "corona-sharpness", value=sharp)
    left, right = spec.left, spec.right
    if right == families.Complete(1):
        if isinstance(left, families.Path) and left.n >= 2:
            return formulas.formula_corona("path-pendant", n=left.n)
        if isinstance(left, families.Cycle):
            return formulas.formula_corona("cycle-pendant", n=left.n)
        lg = families.realize(left)
        if lg.vertex_count >= 1 and lg.is_connected():
            return formulas.formula_corona("pendant", graph=lg)
        return None
    if (
        isinstance(left, families.Path)
        and left.n >= 2
        and isinstance(right, families.Empty)
        and right.n >= 1
    ):
        return formulas.formula_corona("path-empty", n=left.n, m=right.n)
    return None


def verify_instance(
    spec: FamilySpec | str,
    opts: SolveOptions | None = None,
    oracle_cap: int = 10,
    component_solver: ComponentSolver | None = None,
) -> VerificationRecord:
    """Realize one instance, evaluate formula/solver/oracle, build the record.

    Budget exhaustion leaves the affected value absent (``match="unknown"``);
    a join formula cut off that way keeps its tag with no value.
    Solver/oracle disagreement raises :class:`OracleMismatchError`.
    """
    if isinstance(spec, str):
        spec = parse_expr(spec)
    return _verify(
        spec,
        pretty(spec),
        families.realize(spec),
        opts,
        oracle_cap,
        component_solver or _default_component_solver(opts),
    )


def _verify(
    spec: FamilySpec,
    spec_text: str,
    g: Graph,
    opts: SolveOptions | None,
    oracle_cap: int,
    component_solver: ComponentSolver,
) -> VerificationRecord:
    """:func:`verify_instance` on an instance already parsed and realized."""
    started = time.perf_counter()
    formula: FormulaResult | None
    try:
        formula = formula_for_spec(spec, component_solver)
        theorem_tag = formula.theorem_tag if formula is not None else None
    except BudgetExhaustedError:
        # only a join formula runs the solver (on its factors)
        formula, theorem_tag = None, "join"

    solver_value: int | None = None
    witness: tuple[int, ...] | None = None
    try:
        res = solvers.td_chromatic_number(g, opts)
        solver_value = res.value
        assert isinstance(res.witness, Coloring)
        witness = res.witness.colors
    except BudgetExhaustedError:
        pass

    oracle_value: int | None = None
    if g.vertex_count <= oracle_cap:
        oracle_value = solvers.td_chromatic_oracle(g, cap=oracle_cap).value
        if solver_value is not None and oracle_value != solver_value:
            raise OracleMismatchError(
                f"{spec_text}: solver found {solver_value}, oracle found {oracle_value}"
            )

    formula_value = formula.value if formula is not None else None
    return VerificationRecord(
        spec_text=spec_text,
        vertex_count=g.vertex_count,
        formula_value=formula_value,
        theorem_tag=theorem_tag,
        solver_value=solver_value,
        oracle_value=oracle_value,
        match=_match_flag(formula_value, solver_value),
        elapsed=time.perf_counter() - started,
        witness=witness,
    )


def _default_instances() -> tuple[str, ...]:
    items: list[str] = []
    items += [f"P({n})" for n in range(2, 13)]
    items += [f"C({n})" for n in range(3, 13)]
    items += [f"corona(P({n}),K(1))" for n in range(2, 7)]
    items += [f"corona(C({n}),K(1))" for n in range(3, 6)]
    items += [f"corona(P({n}),E({m}))" for n in range(2, 5) for m in range(1, 4)]
    items += ["corona(F(2),K(1))", "corona(K(4),K(1))"]
    items += ["corona(C(4),K(2))", "corona(K(2),K(3))"]
    atoms = ["P(2)", "P(3)", "P(4)", "C(5)", "K(3)"]
    items += [f"join({a},{b})" for i, a in enumerate(atoms) for b in atoms[i:]]
    items += [f"F({n})" for n in range(2, 5)]
    items += ["D(4,2)", "D(4,3)", "D(5,2)"]
    items += [f"L({n})" for n in range(2, 7)]
    items += [f"T({n})" for n in range(1, 6)]
    items += [f"O({n})" for n in range(1, 4)]
    items += ["G(3,3)", "G(3,4)", "G(4,4)"]
    return tuple(items)


@dataclass(frozen=True)
class SuiteConfig:
    """Instance list, budgets, oracle cap and output paths for a suite run."""

    instances: tuple[str, ...]
    node_budget: int | None = 10**8
    time_budget: float | None = None
    oracle_cap: int = 10
    cache_dir: str | None = None
    report_path: str | None = None
    jsonl_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if not self.instances:
            raise ValueError("suite needs at least one instance")
        if self.oracle_cap < 2:
            raise ValueError("oracle cap must be >= 2")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError("time_budget must be positive")

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        known = {
            "instances",
            "node_budget",
            "time_budget",
            "oracle_cap",
            "cache_dir",
            "report_path",
            "jsonl_path",
            "csv_path",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown suite config keys: {sorted(unknown)}")
        if "instances" in data:
            data = dict(data, instances=tuple(data["instances"]))
        else:
            data = dict(data, instances=_default_instances())
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "SuiteConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def default_suite(**overrides) -> SuiteConfig:
    """The built-in instance sweep covering every supported formula."""
    return SuiteConfig(instances=_default_instances(), **overrides)


@dataclass(frozen=True)
class SuiteReport:
    records: tuple[VerificationRecord, ...]
    table: str
    exit_code: int
    skipped_cache_lines: int = 0


def _exit_code(records: tuple[VerificationRecord, ...]) -> int:
    if any(r.match == "refuted" for r in records):
        return EXIT_REFUTED
    if any(_budget_cut(r) for r in records):
        return EXIT_BUDGET
    return EXIT_OK


def _cache_file(cache_dir: str) -> pathlib.Path:
    return pathlib.Path(cache_dir) / "records.jsonl"


def _load_cache(
    cache_dir: str,
) -> tuple[dict[str, VerificationRecord], list[str], int]:
    """Cached records by key, the valid lines, and how many lines were skipped."""
    path = _cache_file(cache_dir)
    cache: dict[str, VerificationRecord] = {}
    valid: list[str] = []
    skipped = 0
    if path.exists():
        for raw in path.read_bytes().splitlines():
            if not raw:
                continue
            try:
                line = raw.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                entry = json.loads(line)
                cache[entry["key"]] = VerificationRecord.from_dict(entry["record"])
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1  # e.g. a line cut short; its instance is recomputed
                continue
            valid.append(line)
    return cache, valid, skipped


def _write_cache(cache_dir: str, lines: list[str]) -> None:
    """Replace the cache file atomically with ``lines``."""
    path = _cache_file(cache_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    os.replace(tmp, path)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every instance (cache-aware), write outputs, compute exit status.

    Records are keyed by canonical expression text, labeled-graph key, solver
    version and oracle cap; warm cache hits replay the stored record verbatim,
    so a rerun reproduces the cold-run report byte for byte. A record cut off
    by the budget (no solver value, or a join formula without its value) is
    neither stored nor replayed, so a later run with a larger budget solves
    the instance again. Malformed cache lines are skipped, counted and
    dropped: the cache file is rewritten atomically from its valid lines
    plus the fresh records. A join factor's solve runs once per suite, also
    when it runs out of budget.
    """
    opts: SolveOptions | None = None
    if config.node_budget is not None or config.time_budget is not None:
        opts = SolveOptions(
            node_budget=config.node_budget, time_budget=config.time_budget
        )

    cache, valid, skipped = (
        _load_cache(config.cache_dir) if config.cache_dir else ({}, [], 0)
    )
    memo: dict[FamilySpec, int | None | BudgetExhaustedError] = {}
    base_solver = _default_component_solver(opts)

    def component_solver(spec: FamilySpec) -> int | None:
        if spec not in memo:
            try:
                memo[spec] = base_solver(spec)
            except BudgetExhaustedError as exc:
                memo[spec] = exc  # a factor out of budget stays out of budget
        value = memo[spec]
        if isinstance(value, BudgetExhaustedError):
            raise value.with_traceback(None)
        return value

    records: dict[str, VerificationRecord] = {}
    fresh: list[str] = []
    for text in config.instances:
        spec = parse_expr(text)
        spec_text = pretty(spec)
        if spec_text in records:
            continue
        g = families.realize(spec)
        key = f"{spec_text}|{g.canonical_key()}|{SOLVER_VERSION}|{config.oracle_cap}"
        hit = cache.get(key)
        if hit is not None and not _budget_cut(hit):
            records[spec_text] = hit
            continue
        rec = _verify(spec, spec_text, g, opts, config.oracle_cap, component_solver)
        records[spec_text] = rec
        if not _budget_cut(rec):
            fresh.append(json.dumps({"key": key, "record": rec.to_dict()}))

    if config.cache_dir and (skipped or fresh):
        # malformed lines are dropped, so later runs do not warn again
        _write_cache(config.cache_dir, valid + fresh)

    ordered = tuple(records[k] for k in sorted(records))
    table = render_table(ordered)
    report = SuiteReport(ordered, table, _exit_code(ordered), skipped)

    if config.report_path:
        pathlib.Path(config.report_path).write_text(table, encoding="utf-8")
    if config.jsonl_path:
        lines = "".join(rec.to_json() + "\n" for rec in ordered)
        pathlib.Path(config.jsonl_path).write_text(lines, encoding="utf-8")
    if config.csv_path:
        pathlib.Path(config.csv_path).write_text(render_csv(ordered), encoding="utf-8")
    return report


def _fmt(value: int | None) -> str:
    return "-" if value is None else str(value)


def render_table(records: tuple[VerificationRecord, ...]) -> str:
    """Human-readable table grouped by theorem tag; deterministic."""
    groups: dict[str, list[VerificationRecord]] = {}
    for rec in records:
        groups.setdefault(rec.theorem_tag or "(no formula)", []).append(rec)
    lines: list[str] = []
    header = f"{'instance':<24} {'n':>4} {'formula':>8} {'solver':>7} {'oracle':>7} {'match':<10} {'seconds':>9}"
    for tag in sorted(groups):
        lines.append(f"== {tag}")
        lines.append(header)
        for rec in sorted(groups[tag], key=lambda r: r.spec_text):
            lines.append(
                f"{rec.spec_text:<24} {rec.vertex_count:>4} {_fmt(rec.formula_value):>8} "
                f"{_fmt(rec.solver_value):>7} {_fmt(rec.oracle_value):>7} {rec.match:<10} "
                f"{rec.elapsed:>9.3f}"
            )
        lines.append("")
    confirmed = sum(r.match == "confirmed" for r in records)
    refuted = sum(r.match == "refuted" for r in records)
    unknown = sum(r.match == "unknown" for r in records)
    lines.append(
        f"total {len(records)}: confirmed {confirmed}, refuted {refuted}, unknown {unknown}"
    )
    lines.append(f"exit status {_exit_code(records)}")
    return "\n".join(lines) + "\n"


def render_csv(records: tuple[VerificationRecord, ...]) -> str:
    """CSV with the JSONL fields minus the witness."""
    out = [
        "spec_text,vertex_count,formula_value,theorem_tag,solver_value,oracle_value,match,elapsed"
    ]
    for rec in records:
        out.append(
            ",".join(
                [
                    rec.spec_text,
                    str(rec.vertex_count),
                    _fmt(rec.formula_value),
                    rec.theorem_tag or "-",
                    _fmt(rec.solver_value),
                    _fmt(rec.oracle_value),
                    rec.match,
                    repr(rec.elapsed),
                ]
            )
        )
    return "\n".join(out) + "\n"
