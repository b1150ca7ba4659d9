"""Verification harness: formula vs. exact solver vs. brute-force oracle.

Each family instance yields one :class:`VerificationRecord`, through one
path: :func:`run_suite` (:func:`verify_instance` is a one-instance suite
with no cache and no output files). The closed form comes from
:func:`tdcolor.formulas.formula_for_spec`; a join formula's factor values
come from the run's exact solves, one per labeled graph, under the run's
node budget. One builder, :func:`_record`, makes every record: the fresh
ones, and the record a cache hit is compared against before it replays. A
disagreement between the solver and the oracle is an internal
inconsistency and raises; a disagreement between a formula and the solver
is an honest, reportable outcome (``match = "refuted"``).
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import time
from dataclasses import dataclass

from . import families, solvers
from .coloring import Coloring, is_td_coloring
from .expr import parse_expr, pretty
from .families import FamilySpec
from .formulas import FactorValue, formula_for_spec
from .graph import Graph
from .solvers import SOLVER_VERSION, BudgetExhaustedError, SolveOptions, SolveResult

__all__ = [
    "SCHEMA_VERSION",
    "OracleMismatchError",
    "VerificationRecord",
    "SuiteConfig",
    "SuiteReport",
    "default_suite",
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


def _budget_cut(rec: VerificationRecord, oracle_cap: int) -> bool:
    """True when the budget cut off the solver, the oracle or a formula's own solves.

    A formula that applies always has a value, so a tag without a value marks
    a join formula whose factor solves ran out of budget. The oracle runs on
    every instance of at most ``oracle_cap`` vertices, so no oracle value
    there marks an oracle that ran out of budget.
    """
    return (
        rec.solver_value is None
        or (rec.theorem_tag is not None and rec.formula_value is None)
        or (rec.vertex_count <= oracle_cap and rec.oracle_value is None)
    )


# each labeled graph's fresh TD solve outcome in one run, by Graph.canonical_key()
Solves = dict[str, SolveResult | BudgetExhaustedError]


def _td_solve(g: Graph, opts: SolveOptions | None, solves: Solves) -> SolveResult:
    """g's TD solve, run at most once per labeled graph kept in ``solves``.

    A solve out of budget stays out of budget: its BudgetExhaustedError is
    kept and raised again on every later call.
    """
    key = g.canonical_key()
    if key not in solves:
        try:
            solves[key] = solvers.td_chromatic_number(g, opts)
        except BudgetExhaustedError as exc:
            solves[key] = exc
    outcome = solves[key]
    if isinstance(outcome, BudgetExhaustedError):
        raise outcome.with_traceback(None)
    return outcome


def _factor_solver(opts: SolveOptions | None, solves: Solves | None = None) -> FactorValue:
    """A join factor's TD-chromatic number, solved through ``solves`` (a new table by default).

    None marks a factor where TD-coloring is undefined: fewer than 2
    vertices, an isolated vertex, or a disconnected graph.
    """
    solves = {} if solves is None else solves

    def solve(spec: FamilySpec) -> int | None:
        g = families.realize(spec)
        if g.vertex_count < 2 or g.has_isolated_vertex() or not g.is_connected():
            return None
        return _td_solve(g, opts, solves).value

    return solve


# (theorem tag, value) of an instance's closed form
Form = tuple[str | None, int | None]


def _closed_form(spec: FamilySpec, factor_value: FactorValue) -> Form:
    """(theorem tag, value) of spec's closed form, (None, None) when none applies.

    A join formula whose factor solves run out of budget gives ("join", None).
    """
    try:
        formula = formula_for_spec(spec, factor_value)
    except BudgetExhaustedError:
        # only a join formula runs the solver (on its factors)
        return "join", None
    return (formula.theorem_tag, formula.value) if formula is not None else (None, None)


def _record(
    text: str, g: Graph, form: Form, witness: Coloring | None, oracle: int | None, elapsed: float
) -> VerificationRecord:
    """The one builder of records: fresh ones, and the image a cache hit must equal.

    The solver value is the witness's color count, absent with no witness.
    """
    tag, formula_value = form
    solver_value = None if witness is None else witness.num_colors
    if formula_value is None or solver_value is None:
        match = "unknown"
    else:
        match = "confirmed" if formula_value == solver_value else "refuted"
    return VerificationRecord(
        spec_text=text,
        vertex_count=g.vertex_count,
        formula_value=formula_value,
        theorem_tag=tag,
        solver_value=solver_value,
        oracle_value=oracle,
        match=match,
        elapsed=elapsed,
        witness=None if witness is None else witness.colors,
    )


def verify_instance(
    spec: FamilySpec | str,
    opts: SolveOptions | None = None,
    oracle_cap: int = 10,
) -> VerificationRecord:
    """One instance's record: a one-instance :func:`run_suite` with no cache and no output files.

    The record is the one ``tdcolor verify`` gives for the instance under
    the same node budget and oracle cap, apart from ``elapsed``. Budget
    exhaustion leaves the affected value absent: a cut solver makes the
    match "unknown", a join formula cut off that way keeps its tag with no
    value, and a cut oracle leaves no oracle value. Each search gets the
    whole budget. Solver/oracle disagreement raises
    :class:`OracleMismatchError`; an ``oracle_cap`` below 2 raises
    ``ValueError("oracle cap must be >= 2")``, as a suite file does.
    """
    text = spec if isinstance(spec, str) else pretty(spec)
    budget = None if opts is None else opts.node_budget
    config = SuiteConfig(instances=(text,), node_budget=budget, oracle_cap=oracle_cap)
    return run_suite(config).records[0]


def _verify(
    spec: FamilySpec,
    spec_text: str,
    g: Graph,
    opts: SolveOptions | None,
    oracle_cap: int,
    factor_value: FactorValue,
    solves: Solves,
) -> VerificationRecord:
    """Evaluate formula, solver and oracle on an instance already parsed and realized.

    The TD solve goes through ``solves``, the table ``factor_value`` reads.
    """
    started = time.perf_counter()
    form = _closed_form(spec, factor_value)
    witness: Coloring | None = None
    try:
        witness = _td_solve(g, opts, solves).witness
    except BudgetExhaustedError:
        pass

    oracle_value: int | None = None
    if g.vertex_count <= oracle_cap:
        try:
            oracle_value = solvers.td_chromatic_oracle(g, cap=oracle_cap, opts=opts).value
        except BudgetExhaustedError:
            pass
        if witness is not None and oracle_value not in (None, witness.num_colors):
            raise OracleMismatchError(
                f"{spec_text}: solver found {witness.num_colors}, oracle found {oracle_value}"
            )

    return _record(spec_text, g, form, witness, oracle_value, time.perf_counter() - started)


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


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# SuiteConfig field annotation -> (test of the JSON value, what the test wants)
_JSON_FIELD_TYPES = {
    "tuple[str, ...]": (
        lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v),
        "a list of strings",
    ),
    "int": (_is_int, "an integer"),
    "int | None": (lambda v: v is None or _is_int(v), "an integer or null"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


@dataclass(frozen=True)
class SuiteConfig:
    """Instance list, node budget, oracle cap and output paths for a suite run."""

    instances: tuple[str, ...]
    node_budget: int | None = 10**8
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
        self._solve_options()  # SolveOptions validates the node budget

    def _solve_options(self) -> SolveOptions:
        """The node budget every solve of the suite runs under."""
        return SolveOptions(node_budget=self.node_budget)

    @classmethod
    def from_dict(cls, data: object) -> "SuiteConfig":
        """Config from a parsed JSON suite file; ValueError on a bad key or type."""
        if not isinstance(data, dict):
            raise ValueError("suite config must be a JSON object")
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(fields)
        if unknown:
            raise ValueError(f"unknown suite config keys: {sorted(unknown)}")
        for key, value in data.items():
            accepts, expected = _JSON_FIELD_TYPES[fields[key]]
            if not accepts(value):
                raise ValueError(f"suite config key {key!r} must be {expected}, got {value!r}")
        instances = data.get("instances", _default_instances())
        return cls(**dict(data, instances=tuple(instances)))

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
    skipped_cache_lines: int = 0  # cache lines that did not parse
    rejected_cache_records: int = 0  # parsed hits that failed _replayable, budget-cut ones too


def _exit_code(records: tuple[VerificationRecord, ...], oracle_cap: int) -> int:
    if any(r.match == "refuted" for r in records):
        return EXIT_REFUTED
    if any(_budget_cut(r, oracle_cap) for r in records):
        return EXIT_BUDGET
    return EXIT_OK


def _cache_file(cache_dir: str) -> pathlib.Path:
    return pathlib.Path(cache_dir) / "records.jsonl"


def _load_cache(
    cache_dir: str,
) -> tuple[dict[str, tuple[VerificationRecord, str]], int]:
    """Each valid line's record and text by key, and how many lines were skipped."""
    path = _cache_file(cache_dir)
    cache: dict[str, tuple[VerificationRecord, str]] = {}
    skipped = 0
    if path.exists():
        for raw in path.read_bytes().splitlines():
            if not raw:
                continue
            try:
                line = raw.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                entry = json.loads(line)
                cache[entry["key"]] = VerificationRecord.from_dict(entry["record"]), line
            except (ValueError, KeyError, TypeError, AttributeError):
                skipped += 1  # e.g. a line cut short; its instance is recomputed
    return cache, skipped


def _replayable(
    hit: VerificationRecord,
    spec_text: str,
    spec: FamilySpec,
    g: Graph,
    factor_value: FactorValue,
    oracle_cap: int,
) -> bool:
    """True when ``hit`` is, as JSON, the record this run would write from its witness.

    A record cut off by the budget (:func:`_budget_cut`) is never replayed.
    Otherwise the witness must be a TD-coloring of g, and the record is
    rebuilt from it by :func:`_record`: this run's spec text, g's vertex
    count, the closed form recomputed for ``spec``, the witness's color
    count as the solver value and, within ``oracle_cap``, as the oracle
    value, and the match flag those give. So a hit with any field edited,
    retyped or blanked is not replayed, nor one whose join factors now run
    out of budget: its form is ("join", None), which only a budget-cut
    record carries. ``elapsed`` must be a finite non-negative float.
    """
    try:
        if _budget_cut(hit, oracle_cap):
            return False
        witness = Coloring(hit.witness)
        if not is_td_coloring(g, witness):
            return False
    except (ValueError, TypeError):  # a field of the wrong type, or not a coloring of g at all
        return False
    oracle_value = witness.num_colors if g.vertex_count <= oracle_cap else None
    form = _closed_form(spec, factor_value)
    rebuilt = _record(spec_text, g, form, witness, oracle_value, hit.elapsed)
    return (
        rebuilt.to_json() == hit.to_json()
        and isinstance(hit.elapsed, float)
        and 0 <= hit.elapsed < math.inf
    )


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
    by the budget (no solver value, no oracle value within the oracle cap,
    or a join formula without its value) is not stored, and fails
    :func:`_replayable` if found, so a later run with a larger budget solves
    the instance again. Malformed cache lines, and hits that fail
    :func:`_replayable`, are each counted apart, dropped and solved again: the
    cache file is rewritten atomically from its valid lines plus the fresh
    records, also when an instance raises part way through the suite. Each
    labeled graph is solved at most once per suite, as an instance or as a
    join factor, also when it runs out of budget; cache hits never enter that
    table of solves, so a join's form is checked against fresh solves only.
    """
    opts = config._solve_options()
    cache, skipped = _load_cache(config.cache_dir) if config.cache_dir else ({}, 0)
    rejected = 0
    solves: Solves = {}
    factor_value = _factor_solver(opts, solves)

    records: dict[str, VerificationRecord] = {}
    fresh: list[str] = []
    try:
        for text in config.instances:
            spec = parse_expr(text)
            spec_text = pretty(spec)
            if spec_text in records:
                continue
            g = families.realize(spec)
            key = f"{spec_text}|{g.canonical_key()}|{SOLVER_VERSION}|{config.oracle_cap}"
            hit, _ = cache.get(key, (None, ""))
            if hit is not None:
                if _replayable(hit, spec_text, spec, g, factor_value, config.oracle_cap):
                    records[spec_text] = hit
                    continue
                rejected += 1  # a damaged or budget-cut record; its instance is solved again
                del cache[key]
            rec = _verify(spec, spec_text, g, opts, config.oracle_cap, factor_value, solves)
            records[spec_text] = rec
            if not _budget_cut(rec, config.oracle_cap):
                fresh.append(json.dumps({"key": key, "record": rec.to_dict()}))
    finally:
        if config.cache_dir and (skipped or rejected or fresh):
            # malformed lines and rejected records are dropped, so later runs do not warn again
            _write_cache(config.cache_dir, [line for _, line in cache.values()] + fresh)

    ordered = tuple(records[k] for k in sorted(records))
    table = render_table(ordered, config.oracle_cap)
    report = SuiteReport(ordered, table, _exit_code(ordered, config.oracle_cap), skipped, rejected)

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


def render_table(records: tuple[VerificationRecord, ...], oracle_cap: int = 10) -> str:
    """Human-readable table grouped by theorem tag; deterministic.

    ``oracle_cap`` is the suite's, so that an instance whose oracle ran out of
    budget counts toward the exit status.
    """
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
    lines.append(f"exit status {_exit_code(records, oracle_cap)}")
    return "\n".join(lines) + "\n"


_CSV_COLUMNS = tuple(
    f.name for f in dataclasses.fields(VerificationRecord) if f.name != "witness"
)


def render_csv(records: tuple[VerificationRecord, ...]) -> str:
    """CSV with the JSONL fields minus the witness; an absent value is "-"."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        row = (getattr(rec, name) for name in _CSV_COLUMNS)
        writer.writerow("-" if v is None else v for v in row)
    return buf.getvalue()
