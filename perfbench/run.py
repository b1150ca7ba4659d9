#!/usr/bin/env python3
"""The tdcolor benchmark: one workload per run, checked against a pinned ledger.

    python3 perfbench/run.py --workload {verify,frontier,bounds} --seed N
        --seconds S --trace {0,1} [--tiny] [--ledger FILE] [--setup-only]

Run from the root of a source checkout; the program is imported from
``src/``. Report lines come first. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The exit status is 0 only when every answer was correct.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify", "frontier", "bounds")

# Passes per run at least, whatever --seconds says.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SETUPS = 5  # fresh set-up processes per untraced run at least, one after each pass
VERIFY_REPLAYS = 10  # a warm replay takes about 10 ms, so time several
SAFETY_BUDGET = 10**8  # the suite's default node budget; never reached here

# frontier: family key -> (expression, orders from easy to past the frontier)
FRONTIER_BUDGET = 100_000
FRONTIER = {
    "P": ("P({})", (12, 14, 16, 18, 20, 22)),
    "C": ("C({})", (12, 14, 16, 18, 20)),
    "L": ("L({})", (5, 6, 7, 8, 9)),
    "G4": ("G(4,{})", (3, 4, 5)),
    "O": ("O({})", (3, 4, 5, 6)),
    "T": ("T({})", (6, 8, 10, 12, 14)),
    "D5": ("D(5,{})", (2, 3, 4, 5)),
}
# bounds: sparse family members for total domination, and dense random
# graphs with a planted k-partition and k-clique, so chi = k by construction
TOTALDOM = ("P(32)", "C(32)", "G(5,6)", "O(10)", "D(5,7)", "L(14)")
PLANTED = {"count": 300, "n": 28, "k": 6, "p": 0.5}

TINY_VERIFY = ("P(4)",)
TINY_FRONTIER = {"P": ("P({})", (6,))}
TINY_FRONTIER_BUDGET = 2_000
TINY_TOTALDOM = ("P(8)",)
TINY_PLANTED = {"count": 1, "n": 10, "k": 3, "p": 0.5}

END_TO_END = {  # name -> unit; the JSON set of an untraced run
    "setup_s": "s",
    "wall_s": "s",
    "search_nodes": "count",
    "solved": "count",
    "peak_rss_mb": "MB",
}
PER_LAYER = {  # name -> unit; the JSON set of a traced run
    "solvers.td.calls": "count",
    "solvers.td.s": "s",
    "solvers.td.nodes": "count",
    "solvers.td.unknown": "count",
    "solvers.td.nodes_per_s": "1/s",
    "solvers.td.unsat_rounds": "count",
    "solvers.td.search_nodes": "count",
    **{f"solvers.frontier.{key}": "order" for key in FRONTIER},
    "solvers.oracle.calls": "count",
    "solvers.oracle.s": "s",
    "solvers.oracle.partitions": "count",
    "solvers.chromatic.calls": "count",
    "solvers.chromatic.s": "s",
    "solvers.chromatic.nodes": "count",
    "solvers.chromatic.unknown": "count",
    "solvers.totaldom.calls": "count",
    "solvers.totaldom.s": "s",
    "solvers.totaldom.nodes": "count",
    "solvers.totaldom.unknown": "count",
    "harness.run_suite.self_s": "s",
    "harness.verify_instance.self_s": "s",
    "harness.cache.bytes": "B",
    "harness.cache.hits": "count",
    "harness.cache.misses": "count",
    "formulas.dispatch.calls": "count",
    "formulas.dispatch.self_s": "s",
    "families.realize.calls": "count",
    "families.realize.s": "s",
    "families.vertices": "count",
    "expr.parse.calls": "count",
    "expr.parse.s": "s",
    "graph.canonical_key.s": "s",
    "graph.from_dimacs.calls": "count",
    "graph.from_dimacs.s": "s",
    "graph.from_dimacs.bytes": "B",
    "coloring.recheck.calls": "count",
    "coloring.recheck.s": "s",
    "cli.main.self_s": "s",
    "bench.trace_overhead": "ratio",
}
# per-layer values that must repeat exactly from one traced pass to the next
EXACT_LAYERS = {k for k, unit in PER_LAYER.items() if unit in ("count", "order")} | {
    "graph.from_dimacs.bytes"
}


@dataclass
class Instance:
    name: str
    kind: str  # "td" | "totaldom" | "chromatic"
    text: str  # DIMACS text, or an expression for "totaldom"
    expected: int | None = None  # planted chromatic number
    family: str | None = None
    order: int | None = None


@dataclass
class Outcome:
    name: str
    status: str  # "solved" | "unknown" (budget exhausted) | "error"
    seconds: float
    value: int | None = None
    nodes: int | None = None
    witness: object = None
    graph: object = None
    error: str | None = None


@dataclass
class Pass:
    wall_s: float
    times: dict[str, float]  # instance -> seconds
    outcomes: list[Outcome]
    nodes: dict[str, int | None]  # search -> nodes explored; must repeat exactly
    replay_s: float | None = None  # verify: mean of the warm replays
    cache: dict[str, int] = field(default_factory=dict)


class Bench:
    """One run: inputs, passes, checks and metrics for one workload."""

    def __init__(self, args) -> None:
        self.args = args
        self.tracer = None  # a spans.Tracer once the program is loaded
        self.ledger = json.loads(Path(args.ledger).read_text(encoding="utf-8"))
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.unknown = 0  # answers cut off by the node budget
        self.inputs = None
        self.relabeled: list[Instance] = []  # frontier on a non-zero seed
        self.by_name: dict[str, Instance] = {}
        self.first_nodes: dict[str, int | None] | None = None

    # -- set-up ------------------------------------------------------------

    def load_program(self) -> None:
        from tdcolor import cli, coloring, expr, families, harness, solvers
        from tdcolor.graph import Graph

        self.cli, self.coloring, self.expr, self.families = cli, coloring, expr, families
        self.harness, self.solvers, self.Graph = harness, solvers, Graph

    def make_inputs(self):
        w, tiny, seed = self.args.workload, self.args.tiny, self.args.seed
        if w == "verify":
            if not tiny:
                return []
            self.work.mkdir(parents=True, exist_ok=True)
            suite = self.work / "suite.json"
            suite.write_text(json.dumps({"instances": list(TINY_VERIFY)}), encoding="utf-8")
            return ["--suite", str(suite)]
        if w == "frontier":
            out, self.relabeled = [], []
            for key, (template, orders) in (TINY_FRONTIER if tiny else FRONTIER).items():
                for order in orders:
                    name = template.format(order)
                    g = self.families.realize(self.expr.parse_expr(name))
                    out.append(Instance(name, "td", g.to_dimacs(), family=key, order=order))
                    if seed:  # seed 0 keeps the constructors' labels only
                        perm = list(range(g.vertex_count))
                        random.Random(f"{seed}:{name}").shuffle(perm)
                        h = self.Graph.from_edges(
                            g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()]
                        )
                        self.relabeled.append(
                            Instance(name, "td", h.to_dimacs(), family=key, order=order)
                        )
            return out
        out = [Instance(e, "totaldom", e) for e in (TINY_TOTALDOM if tiny else TOTALDOM)]
        spec = TINY_PLANTED if tiny else PLANTED
        rng = random.Random(seed)
        for i in range(spec["count"]):
            g = planted_graph(self.Graph, rng, spec["n"], spec["k"], spec["p"])
            out.append(Instance(f"planted#{i}", "chromatic", g.to_dimacs(), expected=spec["k"]))
        return out

    # -- one pass ----------------------------------------------------------

    def run_pass(self, index: int) -> Pass:
        if self.args.workload == "verify":
            p = self.verify_pass(index)
        else:
            wall, outcomes = self.solve_all(self.inputs)
            for o in outcomes:
                self.check(o)
                o.graph = o.witness = None  # keep memory flat however many passes run
            p = Pass(wall, {o.name: o.seconds for o in outcomes}, outcomes,
                     {o.name: o.nodes for o in outcomes})
        if self.first_nodes is None:
            self.first_nodes = p.nodes
        for name in sorted(set(p.nodes) | set(self.first_nodes)):
            if p.nodes.get(name) != self.first_nodes.get(name):
                self.fail(f"{name}: pass {index} explored {p.nodes.get(name)} nodes, "
                          f"the first pass {self.first_nodes.get(name)}")
        return p

    def solve_all(self, instances: list[Instance]) -> tuple[float, list[Outcome]]:
        budget = TINY_FRONTIER_BUDGET if self.args.tiny else FRONTIER_BUDGET
        td_opts = self.solvers.SolveOptions(node_budget=budget)
        safe = self.solvers.SolveOptions(node_budget=SAFETY_BUDGET)
        outcomes = []
        started = time.perf_counter()
        for inst in instances:
            self.tracer.instance = inst.name
            t = time.perf_counter()
            try:
                if inst.kind == "td":
                    g = self.Graph.from_dimacs(inst.text)
                    res = self.solvers.td_chromatic_number(g, td_opts)
                elif inst.kind == "totaldom":
                    g = self.families.realize(self.expr.parse_expr(inst.text))
                    res = self.solvers.total_domination_number(g, safe)
                else:
                    g = self.Graph.from_dimacs(inst.text)
                    res = self.solvers.chromatic_number(g, safe)
                o = Outcome(inst.name, "solved", 0.0, res.value, res.nodes_explored,
                            res.witness, g)
            except self.solvers.BudgetExhaustedError as exc:
                o = Outcome(inst.name, "unknown", 0.0, nodes=exc.nodes_explored)
            except Exception as exc:  # a solve that raises is a failed answer
                o = Outcome(inst.name, "error", 0.0, error=repr(exc))
            o.seconds = time.perf_counter() - t
            outcomes.append(o)
        return time.perf_counter() - started, outcomes

    def verify_pass(self, index: int) -> Pass:
        d = self.work / f"pass{index}"
        report = d / "report.txt"
        argv = ["verify", "--cache", str(d / "cache"), "--report", str(report), *self.inputs]
        records = d / "cache" / "records.jsonl"

        nodes: list[int] = []
        solve = self.solvers.td_chromatic_number  # the tracer's wrapper in a traced pass

        def counted(*a, **kw):
            try:
                res = solve(*a, **kw)
            except self.solvers.BudgetExhaustedError as exc:
                nodes.append(exc.nodes_explored)
                raise
            nodes.append(res.nodes_explored)
            return res

        self.solvers.td_chromatic_number = counted  # harness looks it up on the module
        try:
            t = time.perf_counter()
            code_cold, out_cold = self.call_cli(argv)
            wall = time.perf_counter() - t
        finally:
            self.solvers.td_chromatic_number = solve
        table_cold = report.read_text(encoding="utf-8")
        rows = [json.loads(x) for x in Path(f"{report}.jsonl").read_text(encoding="utf-8").splitlines()]

        replays = []
        for _ in range(VERIFY_REPLAYS):
            t = time.perf_counter()
            code_warm, out_warm = self.call_cli(argv)
            replays.append(time.perf_counter() - t)
            table_warm = report.read_text(encoding="utf-8")
            if (code_warm, table_warm, out_warm) != (code_cold, table_cold, out_cold):
                self.fail("warm replay table differs from the cold table", len(rows))
        replay = statistics.fmean(replays)
        lines_all = len(records.read_text(encoding="utf-8").splitlines())
        cache = {
            "bytes": records.stat().st_size,
            "misses": lines_all,
            "hits": (1 + VERIFY_REPLAYS) * len(rows) - lines_all,
        }
        shutil.rmtree(d)

        self.check_verify(rows, code_cold, table_cold, out_cold)
        self.attempted += (1 + VERIFY_REPLAYS) * len(rows)
        self.unknown += (1 + VERIFY_REPLAYS) * sum(r["solver_value"] is None for r in rows)
        times = {r["spec_text"]: r["elapsed"] for r in rows}
        outcomes = [
            Outcome(r["spec_text"], "solved" if r["solver_value"] is not None else "unknown",
                    r["elapsed"], r["solver_value"])
            for r in rows
        ]
        # every TD search of the cold pass, join factors included, in call order
        by_call = {f"td call {i}": n for i, n in enumerate(nodes)}
        return Pass(wall, times, outcomes, by_call, replay, cache)

    def call_cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    # -- correctness -------------------------------------------------------

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 50:
            self.errors.append(message)

    def recheck(self, fn, *args) -> bool:
        return self.tracer.run("coloring.recheck", fn, *args)

    def check(self, o: Outcome) -> None:
        """Check one frontier or bounds answer against the ledger and its witness."""
        self.attempted += 1
        if o.status == "error":
            self.fail(f"{o.name}: raised {o.error}")
            return
        if o.status == "unknown":
            self.unknown += 1  # budget exhausted: no answer to check
            return
        inst = self.by_name[o.name]
        if inst.kind == "td":
            want = self.ledger["frontier"]["values"].get(o.name)
            ok = self.recheck(self.coloring.is_td_coloring, o.graph, o.witness)
            ok = ok and o.witness.num_colors == o.value
        elif inst.kind == "totaldom":
            want = self.ledger["bounds"]["totaldom"].get(o.name)
            ok = self.recheck(self.solvers.is_total_dominating_set, o.graph, o.witness)
            ok = ok and len(set(o.witness)) == o.value
        else:
            want = inst.expected
            ok = self.recheck(self.coloring.is_proper, o.graph, o.witness)
            ok = ok and o.witness.num_colors == o.value
        if want is None or o.value != want:
            self.fail(f"{o.name}: value {o.value}, ledger {want}")
        elif not ok:
            self.fail(f"{o.name}: witness does not re-check with {o.value} colours")

    def check_verify(self, rows: list[dict], code: int, table: str, out: str) -> None:
        ledger = self.ledger["verify"]
        want_rows = ledger["rows"]
        names = [r["spec_text"] for r in rows]
        expected = (
            sorted({self.expr.pretty(self.expr.parse_expr(t)) for t in TINY_VERIFY})
            if self.args.tiny
            else sorted(want_rows)
        )
        if names != expected:
            self.fail(f"verify rows {names[:5]}... differ from the ledger's", max(1, len(rows)))
            return
        for r in rows:
            got = [r["formula_value"], r["solver_value"], r["oracle_value"], r["match"]]
            if got != want_rows[r["spec_text"]]:
                self.fail(f"{r['spec_text']}: {got}, ledger {want_rows[r['spec_text']]}")
                continue
            g = self.families.realize(self.expr.parse_expr(r["spec_text"]))
            witness = self.coloring.Coloring(tuple(r["witness"]))
            if not (self.recheck(self.coloring.is_td_coloring, g, witness)
                    and witness.num_colors == r["solver_value"]):
                self.fail(f"{r['spec_text']}: witness does not re-check")
        tally = {
            "total": len(rows),
            **{m: sum(r["match"] == m for r in rows) for m in ("confirmed", "refuted", "unknown")},
        }
        if self.args.tiny:
            want_tally = tally
            want_code = 3 if tally["refuted"] else (4 if tally["unknown"] else 0)
        else:
            want_tally, want_code = ledger["tally"], ledger["exit"]
        if tally != want_tally or code != want_code or out != table:
            self.fail(f"verify tally {tally} exit {code}, ledger {want_tally} exit {want_code}")

    def check_nodes(self, nodes: dict[str, int]) -> None:
        """Node counts of one seed must repeat exactly from run to run."""
        key = hashlib.sha256()  # the program's source and this run's inputs
        for path in sorted((ROOT / "src" / "tdcolor").glob("*.py")):
            key.update(path.read_bytes())
        for inst in [*self.inputs, *self.relabeled]:
            if isinstance(inst, Instance):
                key.update(repr(inst).encode())
        key.update(json.dumps(sorted(nodes)).encode())
        record = OUT / "nodes" / f"{self.args.workload}-seed{self.args.seed}-{key.hexdigest()[:16]}.json"
        if record.exists():
            before = json.loads(record.read_text(encoding="utf-8"))
            for name in sorted(set(before) | set(nodes)):
                if before.get(name) != nodes.get(name):
                    self.fail(f"{name}: {nodes.get(name)} nodes, an earlier run of this "
                              f"seed and source gave {before.get(name)}")
            return
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(nodes, sort_keys=True), encoding="utf-8")
        os.replace(tmp, record)

    # -- per-layer split of the TD search ---------------------------------

    def split_td(self, td_spans) -> tuple[list, int]:
        """Re-run the chromatic and total-domination phases of each TD call.

        ``td_chromatic_number`` spends one node budget on its chromatic
        search, then its total-domination search, then the k-loop. The same
        searches run alone under the same budget spend the same nodes, so the
        k-loop's share is exact. Returns the split's spans and the k-loop nodes.
        """
        Opts, Exhausted = self.solvers.SolveOptions, self.solvers.BudgetExhaustedError
        search = 0
        self.tracer.take()
        for span in td_spans:
            g, opts = span.info["graph"], span.info["opts"]
            budget = opts.node_budget if opts else None
            self.tracer.instance = span.instance
            cut = True  # a phase ran out of budget
            try:
                chi = self.solvers.chromatic_number(g, opts).nodes_explored
                left = None if budget is None else budget - chi
                if left == 0:
                    gamma = 1  # the first total-domination node overruns the budget
                else:
                    try:
                        gamma = self.solvers.total_domination_number(
                            g, Opts(node_budget=left) if left else None
                        ).nodes_explored
                        cut = False
                    except Exhausted as exc:
                        gamma = exc.nodes_explored
            except Exhausted as exc:
                chi, gamma = exc.nodes_explored, 0
            rest = span.info["nodes"] - chi - gamma
            if rest < 0 or (cut and not span.info.get("unknown")):
                self.fail(f"{span.instance}: td spent {span.info['nodes']} nodes, its phases "
                          f"alone {chi} + {gamma}{' (cut by the budget)' if cut else ''}")
            search += max(rest, 0)
        return self.tracer.take(), search

    # -- metrics -----------------------------------------------------------

    def layer_values(self, spans, split_spans, search: int, passed: Pass) -> dict[str, float]:
        from spans import Layers

        lay = Layers(spans + split_spans)
        td_s = lay.s("solvers.td")
        v = {
            "solvers.td.calls": lay.count("solvers.td"),
            "solvers.td.s": td_s,
            "solvers.td.nodes": lay.total("solvers.td.nodes"),
            "solvers.td.unknown": lay.total("solvers.td.unknown"),
            "solvers.td.nodes_per_s": lay.total("solvers.td.nodes") / td_s if td_s else 0.0,
            "solvers.td.unsat_rounds": lay.total("solvers.td.unsat"),
            "solvers.td.search_nodes": search,
        }
        for key in FRONTIER:
            insts = [self.by_name.get(o.name) for o in passed.outcomes if o.status == "solved"]
            v[f"solvers.frontier.{key}"] = max(
                (i.order for i in insts if i is not None and i.family == key), default=0
            )
        for layer in ("oracle", "chromatic", "totaldom"):
            name = f"solvers.{layer}"
            v[f"{name}.calls"] = lay.count(name)
            v[f"{name}.s"] = lay.s(name)
            if layer == "oracle":
                v[f"{name}.partitions"] = lay.total(f"{name}.nodes")
            else:
                v[f"{name}.nodes"] = lay.total(f"{name}.nodes")
                v[f"{name}.unknown"] = lay.total(f"{name}.unknown")
        v.update({
            "harness.run_suite.self_s": lay.own("harness.run_suite"),
            "harness.verify_instance.self_s": lay.own("harness.verify_instance"),
            "harness.cache.bytes": passed.cache.get("bytes", 0),
            "harness.cache.hits": passed.cache.get("hits", 0),
            "harness.cache.misses": passed.cache.get("misses", 0),
            "formulas.dispatch.calls": lay.count("formulas.dispatch"),
            "formulas.dispatch.self_s": lay.own("formulas.dispatch"),
            "families.realize.calls": lay.count("families.realize"),
            "families.realize.s": lay.s("families.realize"),
            "families.vertices": lay.total("families.realize.vertices"),
            "expr.parse.calls": lay.count("expr.parse"),
            "expr.parse.s": lay.s("expr.parse"),
            "graph.canonical_key.s": lay.s("graph.canonical_key"),
            "graph.from_dimacs.calls": lay.count("graph.from_dimacs"),
            "graph.from_dimacs.s": lay.s("graph.from_dimacs"),
            "graph.from_dimacs.bytes": lay.total("graph.from_dimacs.bytes"),
            "coloring.recheck.calls": lay.count("coloring.recheck"),
            "coloring.recheck.s": lay.s("coloring.recheck"),
            "cli.main.self_s": lay.own("cli.main"),
        })
        return v


def planted_graph(Graph, rng: random.Random, n: int, k: int, p: float):
    """Random k-partite graph plus a k-clique across the parts: chi is exactly k."""
    part = [i % k for i in range(n)]
    rng.shuffle(part)
    edges = {(u, v) for u in range(n) for v in range(u + 1, n)
             if part[u] != part[v] and rng.random() < p}
    reps = sorted(part.index(c) for c in range(k))
    edges |= {(a, b) for i, a in enumerate(reps) for b in reps[i + 1:]}
    return Graph.from_edges(n, sorted(edges))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metadata() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                commit = target.read_text().strip()
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    load = "unknown"
    with contextlib.suppress(OSError):
        load = Path("/proc/loadavg").read_text().strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": load,
    }


def emit(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} {value} {unit}{'  # ' + note if note else ''}")


def setup_sample(args) -> float:
    """Seconds from starting this script afresh to the end of its set-up.

    The child imports what a run imports, reads the ledger, imports tdcolor
    and generates the inputs, then exits without running the body.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--ledger", args.ledger]
    if args.tiny:
        cmd.append("--tiny")
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    elapsed = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="one instance per workload and a tiny budget (smoke test)")
    ap.add_argument("--ledger", default=str(HERE / "ledger.json"))
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit: what setup_s times, in a fresh process")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(args)
    try:
        try:
            bench.load_program()
        except ImportError as exc:
            print(f"error: cannot import tdcolor from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        bench.inputs = bench.make_inputs()
        if args.setup_only:
            return 0
        print(f"meta {json.dumps(metadata())}")
        print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} tiny={int(args.tiny)}")
        from spans import Tracer

        bench.tracer = Tracer()
        try:
            return run(bench)
        finally:
            bench.tracer.uninstall()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


def run(bench: Bench) -> int:
    args = bench.args
    bench.by_name = {i.name: i for i in bench.inputs if isinstance(i, Instance)}

    plain: list[Pass] = []
    traced: list[tuple[Pass, list]] = []
    setups: list[float] = []  # untraced runs only: one fresh set-up after each pass
    started = time.perf_counter()
    while True:
        plain.append(bench.run_pass(len(plain) + len(traced)))
        if args.trace:
            bench.tracer.install()
            try:
                p = bench.run_pass(len(plain) + len(traced))
            finally:
                bench.tracer.uninstall()
            traced.append((p, bench.tracer.take()))
        else:
            setups.append(setup_sample(args))
        enough = len(traced) >= MIN_TRACED_PASSES if args.trace else len(plain) >= MIN_PASSES
        if enough and time.perf_counter() - started >= args.seconds:
            break
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(setup_sample(args))

    first = plain[0]
    record = dict(first.nodes)
    relabeled = None
    if bench.relabeled:
        relabeled = bench.solve_all(bench.relabeled)
        for o in relabeled[1]:
            bench.check(o)
            record[f"relabeled {o.name}"] = o.nodes
    bench.check_nodes(record)

    # Pass times are averaged rather than their median taken: a shared CPU can
    # alternate between two speeds some 30% apart for seconds at a time, and a
    # median of a few passes jumps between them where the mean moves smoothly.
    wall = statistics.fmean(p.wall_s for p in plain)
    print(f"passes untraced={len(plain)} traced={len(traced)}")
    if args.trace:
        metrics = traced_metrics(bench, plain, traced, wall)
    else:
        metrics = end_to_end_metrics(bench, plain, setups, wall)
    if relabeled:
        seconds, outcomes = relabeled
        note = "one pass on seeded relabelings; reported, not gated"
        emit("relabeled_wall_s", seconds, "s", note)
        emit("relabeled_solved", sum(o.status == "solved" for o in outcomes), "count", note)
        emit("relabeled_search_nodes", sum(o.nodes or 0 for o in outcomes), "count", note)
    for message in bench.errors:
        print(f"FAILED {message}")
    correct = bench.failed == 0
    unknown = sum(o.status == "unknown" for o in first.outcomes)
    print(f"answers attempted={bench.attempted} failed={bench.failed} "
          f"budget_exhausted_per_pass={unknown}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def end_to_end_metrics(bench: Bench, plain: list[Pass], setups: list[float], wall: float) -> dict:
    first = plain[0]
    names = list(first.times)
    per_instance = [statistics.median(p.times[n] for p in plain) for n in names]
    tail_s, pct = tail(per_instance)
    n = len(first.outcomes)
    unknown = sum(o.status == "unknown" for o in first.outcomes)
    wrong = sum(o.status == "error" for o in first.outcomes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "search_nodes": sum(v for v in first.nodes.values() if v is not None),
        "solved": n - unknown - wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh set-up processes, one after each pass",
        "wall_s": f"mean of {len(plain)} passes",
    }
    for name, unit in END_TO_END.items():
        emit(name, values[name], unit, notes.get(name, ""))
    if bench.args.workload == "verify":
        replays = [p.replay_s for p in plain]
        emit("replay_s", statistics.fmean(replays), "s",
             f"mean of {len(plain)} passes of {VERIFY_REPLAYS} warm replays; verify only, not gated")
    emit("instance_p50_s", statistics.median(per_instance), "s",
         f"{n} instances, per-instance median of {len(plain)} passes; not gated")
    emit("instance_tail_s", tail_s, "s", f"p{pct:.1f}, {n} instances; not gated")
    emit("failed_frac", (bench.unknown + bench.failed) / bench.attempted, "ratio",
         f"of {bench.attempted} answers: budget-exhausted {bench.unknown}, "
         f"wrong or raised {bench.failed}; not gated")
    return {k: (values[k], u) for k, u in END_TO_END.items()}


def traced_metrics(bench: Bench, plain, traced, wall: float) -> dict:
    td_spans = [s for s in traced[0][1] if s.name == "solvers.td" and not s.nested]
    bench.tracer.install()
    try:
        split_spans, search = bench.split_td(td_spans)
    finally:
        bench.tracer.uninstall()
    per_pass = [bench.layer_values(spans, split_spans, search, p) for p, spans in traced]
    values = {}
    for name in PER_LAYER:
        if name == "bench.trace_overhead":
            continue
        if name in EXACT_LAYERS:
            seen = {v[name] for v in per_pass}
            if len(seen) > 1:
                bench.fail(f"{name} differs between traced passes: {sorted(seen)}")
            values[name] = per_pass[0][name]
        else:
            values[name] = statistics.median(v[name] for v in per_pass)
    traced_wall = statistics.fmean(p.wall_s for p, _ in traced)
    values["bench.trace_overhead"] = (traced_wall - wall) / wall
    for name, unit in PER_LAYER.items():
        note = ""
        if name == "bench.trace_overhead":
            note = (f"base: untraced wall_s {wall:.4f} s (mean of {len(plain)} passes); "
                    f"traced {traced_wall:.4f} s (mean of {len(traced)})")
        emit(name, values[name], unit, note)

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"spans-{bench.args.workload}-seed{bench.args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (_, spans) in enumerate(traced):
            for s in spans:
                fh.write(s.to_json(f"traced{i}") + "\n")
        for s in split_spans:
            fh.write(s.to_json("td-split") + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")
    return {k: (values[k], u) for k, u in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
