"""In-memory span tracer that wraps tdcolor's public calls from outside.

A traced pass installs wrappers on the names callers look up: module
attributes such as ``harness.parse_expr`` and ``solvers.td_chromatic_number``
and the ``Graph`` methods. Untraced passes uninstall them, so they run the
program's own functions with no wrapper in the way.
"""

from __future__ import annotations

import functools
import json
import time

from tdcolor import cli, expr, families, harness, solvers
from tdcolor.graph import Graph
from tdcolor.solvers import BudgetExhaustedError

# (owner, attribute, span name). Two owners may share a span name when two
# modules import the same function under their own name.
PATCHES = (
    (cli, "main", "cli.main"),
    (harness, "run_suite", "harness.run_suite"),
    (harness, "verify_instance", "harness.verify_instance"),
    (harness, "formula_for_spec", "formulas.dispatch"),
    (harness, "parse_expr", "expr.parse"),
    (expr, "parse_expr", "expr.parse"),
    (families, "realize", "families.realize"),
    (solvers, "td_chromatic_number", "solvers.td"),
    (solvers, "td_chromatic_oracle", "solvers.oracle"),
    (solvers, "chromatic_number", "solvers.chromatic"),
    (solvers, "total_domination_number", "solvers.totaldom"),
    (Graph, "canonical_key", "graph.canonical_key"),
    (Graph, "from_dimacs", "graph.from_dimacs"),
)

_SEARCHES = ("solvers.td", "solvers.oracle", "solvers.chromatic", "solvers.totaldom")


class Span:
    __slots__ = ("sid", "name", "parent", "instance", "start", "end", "nested", "info")

    def __init__(self, sid, name, parent, instance, nested):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.instance = instance
        self.nested = nested  # an enclosing span has the same name
        self.start = time.perf_counter()
        self.end = None
        self.info = {}

    def to_json(self, label: str) -> str:
        info = {k: v for k, v in self.info.items() if k not in ("graph", "opts")}
        return json.dumps(
            {
                "pass": label,
                "id": self.sid,
                "name": self.name,
                "parent": self.parent,
                "instance": self.instance,
                "start": self.start,
                "end": self.end,
                **info,
            }
        )


class Tracer:
    """Records spans while installed; ``run`` is a plain call otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: str | None = None
        self.active = False
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name in PATCHES:
            raw = owner.__dict__[attr]
            wrapped = self._wrap(name, getattr(owner, attr))
            if isinstance(raw, classmethod):
                wrapped = staticmethod(wrapped)  # already bound to the class
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        self.active = False

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` when tracing is on."""
        if not self.active:
            return fn(*args, **kwargs)
        return self._wrap(name, fn)(*args, **kwargs)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        nested = any(s.name == name for s in self._stack)
        span = Span(len(self.spans), name, parent.sid if parent else None, self.instance, nested)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "harness.verify_instance":
                spec = args[0]
                tracer.instance = spec if isinstance(spec, str) else expr.pretty(spec)
            elif name == "expr.parse" and tracer._stack and tracer._stack[-1].name == "harness.run_suite":
                tracer.instance = args[0]  # run_suite starts each instance by parsing it
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BudgetExhaustedError as exc:
                span.info.update(nodes=exc.nodes_explored, unknown=1)
                if name == "solvers.td":
                    span.info.update(graph=args[0], opts=_opts(args, kwargs))
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            _note(span, args, kwargs, result)
            return result

        return wrapper


def _opts(args, kwargs):
    return kwargs.get("opts", args[1] if len(args) > 1 else None)


def _note(span: Span, args, kwargs, result) -> None:
    """Counts taken from a call's arguments and result, outside its timing."""
    name = span.name
    if name in _SEARCHES:
        span.info["nodes"] = result.nodes_explored
        if name == "solvers.td":
            span.info.update(
                unsat=result.value - result.lower_bound_used,
                graph=args[0],
                opts=_opts(args, kwargs),
            )
    elif name == "families.realize":
        span.info["vertices"] = result.vertex_count
    elif name == "graph.from_dimacs":
        span.info["bytes"] = len(args[0])


class Layers:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: list[Span]) -> None:
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.sums: dict[str, float] = {}
        for s in spans:
            dur = s.end - s.start
            self.self_s[s.name] = self.self_s.get(s.name, 0.0) + dur - child_time.get(s.sid, 0.0)
            if s.nested:
                continue  # calls and seconds count the outermost call only
            self.calls[s.name] = self.calls.get(s.name, 0) + 1
            self.seconds[s.name] = self.seconds.get(s.name, 0.0) + dur
            for key, value in s.info.items():
                if isinstance(value, int):
                    k = f"{s.name}.{key}"
                    self.sums[k] = self.sums.get(k, 0) + value

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def s(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def total(self, key: str) -> int:
        return self.sums.get(key, 0)
