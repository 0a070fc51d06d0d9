"""Algorithm 2: the DBCL simplification procedure (paper section 6.4).

The stages run in the paper's order:

1. add value bounds for comparison variables and check Relreferences
   constants against their domains (→ possibly empty result);
2. set REPEAT and FIRSTTIME;
3. inequality simplification (section 6.1) — contradictions stop with an
   empty result; derived equalities rename variables and set REPEAT;
4. while REPEAT: the functional-dependency chase with duplicate-row
   deletion (section 6.2) — renamings loop back to step 3;
5. recursive removal of deletable dangling rows (section 6.3);
6. syntactic tableau minimization (section 6.0).

Every stage reads and rewrites one integer-coded working
:class:`~repro.optimize.tableau.Tableau`; the simplified predicate is
built from it, and validated, once, at the end.  Every stage can be
disabled through :class:`SimplifyOptions` — the E9 ablation
benchmark measures each stage's contribution — and the
:class:`SimplificationResult` carries the statistics the benchmarks and
EXPERIMENTS.md report (row/join counts before and after, stage log).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..dbcl.predicate import Comparison, DbclPredicate
from ..errors import OptimizationError
from ..schema.constraints import ConstraintSet
from .chase import chase_tableau
from .inequalities import analyse_comparisons
from .minimize import minimize_tableau
from .refint import remove_dangling
from .tableau import Tableau
from .valuebounds import tableau_assumptions, tableau_violation


@dataclass(frozen=True)
class SimplifyOptions:
    """Stage toggles for Algorithm 2 (all on by default)."""

    use_valuebounds: bool = True
    use_inequalities: bool = True
    use_chase: bool = True
    use_refint: bool = True
    use_minimize: bool = True
    max_iterations: int = 50

    @classmethod
    def none(cls) -> "SimplifyOptions":
        """The paper's ``no_optim`` flag: pass the predicate through."""
        return cls(
            use_valuebounds=False,
            use_inequalities=False,
            use_chase=False,
            use_refint=False,
            use_minimize=False,
        )


#: Pre-built option sets for the ablation benchmark.
ABLATION_LEVELS: dict[str, SimplifyOptions] = {
    "none": SimplifyOptions.none(),
    "bounds": SimplifyOptions(
        use_inequalities=False, use_chase=False, use_refint=False, use_minimize=False
    ),
    "bounds+ineq": SimplifyOptions(
        use_chase=False, use_refint=False, use_minimize=False
    ),
    "bounds+ineq+chase": SimplifyOptions(use_refint=False, use_minimize=False),
    "bounds+ineq+chase+refint": SimplifyOptions(use_minimize=False),
    "full": SimplifyOptions(),
}


@dataclass
class SimplificationResult:
    """Outcome of Algorithm 2 on one DBCL predicate."""

    original: DbclPredicate
    predicate: DbclPredicate
    is_empty: bool = False
    reason: str = ""
    iterations: int = 0
    stage_log: list[str] = field(default_factory=list)
    #: the working tableau ``predicate`` was built from (None when empty)
    tableau: Optional[Tableau] = None

    # -- statistics ---------------------------------------------------------

    @property
    def rows_before(self) -> int:
        return len(self.original.rows)

    @property
    def rows_after(self) -> int:
        return 0 if self.is_empty else len(self.predicate.rows)

    @property
    def joins_before(self) -> int:
        return self.original.join_count()

    @property
    def joins_after(self) -> int:
        return 0 if self.is_empty else self.predicate.join_count()

    @property
    def rows_removed(self) -> int:
        return self.rows_before - self.rows_after if not self.is_empty else 0

    def describe(self) -> str:
        if self.is_empty:
            return f"empty result: {self.reason}"
        return (
            f"rows {self.rows_before} -> {self.rows_after}, "
            f"joins {self.joins_before} -> {self.joins_after} "
            f"({self.iterations} iteration(s))"
        )


def simplify(
    predicate: DbclPredicate,
    constraints: ConstraintSet,
    options: SimplifyOptions = SimplifyOptions(),
) -> SimplificationResult:
    """Run Algorithm 2 on ``predicate`` under ``constraints``."""
    result = SimplificationResult(original=predicate, predicate=predicate)
    tableau = Tableau(predicate)
    index = constraints.compiled(predicate.schema)

    # -- step 1: value bounds ---------------------------------------------------
    assumptions: list[Comparison] = []
    if options.use_valuebounds:
        violation = tableau_violation(tableau, index)
        if violation is not None:
            result.is_empty = True
            result.reason = violation.describe()
            result.stage_log.append(f"valuebounds: {result.reason}")
            return result
        assumptions = tableau_assumptions(tableau, index)
        if assumptions:
            result.stage_log.append(
                f"valuebounds: {len(assumptions)} assumption(s) added"
            )

    # -- steps 2-4: inequality/chase fixpoint ------------------------------------
    repeat = True
    first_time = True
    #: the inputs of the last inequality analysis, if it changed nothing
    settled = None
    while repeat:
        result.iterations += 1
        if result.iterations > options.max_iterations:
            raise OptimizationError(
                f"Algorithm 2 did not converge in {options.max_iterations} iterations"
            )

        renamed_in_step_3 = False
        # The analysis is a pure function of its inputs: an empty comparison
        # set with no assumptions, or inputs that already analysed to no
        # change, analyse to nothing again.
        inputs = (tableau.comparisons, assumptions)
        if options.use_inequalities and any(inputs) and inputs != settled:
            outcome = analyse_comparisons(tableau.comparison_list(), assumptions)
            settled = None if outcome.changed else inputs
            if outcome.contradiction:
                result.is_empty = True
                result.reason = outcome.reason
                result.stage_log.append(f"inequalities: {outcome.reason}")
                return result
            code = tableau.code
            if outcome.renamings:
                tableau.substitute(
                    {code(s): code(r) for s, r in outcome.renamings.items()}
                )
                renamed_in_step_3 = True
            if outcome.changed:
                tableau.comparisons = [
                    (c.op, code(c.left), code(c.right)) for c in outcome.comparisons
                ]
                tableau.unique_rows()
                result.stage_log.append(
                    "inequalities: simplified to "
                    f"{len(tableau.comparisons)} comparison(s)"
                )
            if renamed_in_step_3 and options.use_valuebounds:
                assumptions = tableau_assumptions(tableau, index)

        repeat = renamed_in_step_3 or first_time
        first_time = False

        if repeat and options.use_chase:
            chase_outcome = chase_tableau(tableau, index)
            if chase_outcome.contradiction:
                result.is_empty = True
                result.reason = chase_outcome.reason
                result.stage_log.append(f"chase: {chase_outcome.reason}")
                return result
            if chase_outcome.changed:
                result.stage_log.append(
                    f"chase: {len(chase_outcome.renamings)} renaming(s), "
                    f"{chase_outcome.rows_removed} duplicate row(s) removed"
                )
                if options.use_valuebounds:
                    assumptions = tableau_assumptions(tableau, index)
            if not chase_outcome.renamings:
                repeat = False
        elif repeat and not options.use_chase:
            repeat = False

    # -- step 5: referential integrity --------------------------------------------
    if options.use_refint:
        refint_outcome = remove_dangling(tableau, index)
        if refint_outcome.changed:
            result.stage_log.append(
                f"refint: {refint_outcome.removed_rows} dangling row(s) removed "
                f"({', '.join(f'{a}->{b}' for a, b in refint_outcome.deletions)})"
            )

    # -- step 6: syntactic minimization --------------------------------------------
    if options.use_minimize:
        minimize_outcome = minimize_tableau(tableau)
        if minimize_outcome.changed:
            result.stage_log.append(
                f"minimize: {minimize_outcome.removed_rows} redundant row(s) removed"
            )

    result.predicate = tableau.predicate()
    result.tableau = tableau
    return result
