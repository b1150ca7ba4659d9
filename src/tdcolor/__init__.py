"""Exact total dominator coloring toolkit.

Builds the studied graph families, computes chromatic / total domination /
TD-chromatic numbers exactly with re-checkable witnesses, evaluates the
closed-form value of an instance from one spec-keyed table of formulas, and
verifies formula against solver (and brute-force oracle) instance by instance.
"""

from .coloring import (
    Coloring,
    is_proper,
    is_td_coloring,
    normalize,
)
from .expr import ExprSyntaxError, parse_expr, pretty
from .families import FamilySpec, realize
from .formulas import FormulaResult, formula_for_spec
from .graph import DimacsError, Graph
from .harness import (
    OracleMismatchError,
    SuiteConfig,
    SuiteReport,
    VerificationRecord,
    default_suite,
    run_suite,
    verify_instance,
)
from .solvers import (
    BudgetExhaustedError,
    SolveOptions,
    SolveResult,
    chromatic_number,
    is_total_dominating_set,
    td_chromatic_bounds,
    td_chromatic_number,
    td_chromatic_oracle,
    total_domination_number,
)

__version__ = "0.1.0"

__all__ = [
    "Coloring",
    "is_proper",
    "is_td_coloring",
    "normalize",
    "ExprSyntaxError",
    "parse_expr",
    "pretty",
    "FamilySpec",
    "realize",
    "FormulaResult",
    "formula_for_spec",
    "td_chromatic_bounds",
    "DimacsError",
    "Graph",
    "OracleMismatchError",
    "SuiteConfig",
    "SuiteReport",
    "VerificationRecord",
    "default_suite",
    "run_suite",
    "verify_instance",
    "BudgetExhaustedError",
    "SolveOptions",
    "SolveResult",
    "chromatic_number",
    "is_total_dominating_set",
    "td_chromatic_number",
    "td_chromatic_oracle",
    "total_domination_number",
    "__version__",
]
