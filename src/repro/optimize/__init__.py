"""Local optimization: syntactic and semantic DBCL simplification (paper §6)."""

from .chase import ChaseOutcome, chase
from .costs import greedy_row_order, order_rows
from .inequalities import InequalityGraph, InequalityOutcome, analyse_comparisons
from .minimize import MinimizeOutcome, minimize
from .pipeline import (
    ABLATION_LEVELS,
    SimplificationResult,
    SimplifyOptions,
    simplify,
)
from .refint import RefintOutcome, remove_dangling_rows
from .valuebounds import BoundViolation, bound_assumptions, check_constants

__all__ = [
    "ChaseOutcome",
    "chase",
    "greedy_row_order",
    "order_rows",
    "InequalityGraph",
    "InequalityOutcome",
    "analyse_comparisons",
    "MinimizeOutcome",
    "minimize",
    "ABLATION_LEVELS",
    "SimplificationResult",
    "SimplifyOptions",
    "simplify",
    "RefintOutcome",
    "remove_dangling_rows",
    "BoundViolation",
    "bound_assumptions",
    "check_constants",
]
