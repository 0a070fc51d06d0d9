"""Consistent query answering over key-violating stores (ROADMAP E19).

Three cooperating pieces behind ``session.ask_consistent``, tied into
the ask pipeline by :class:`~.answering.CertainAnswers`:

* :mod:`.detector` — finds key-violating blocks per relation with one
  cached GROUP-BY/HAVING probe (clean stores fast-path to plain ask);
* :mod:`.rewrite` — the Koutris–Wijsen attack-graph test deciding
  whether the goal's certain answers are first-order rewritable, and in
  what nesting order;
* :mod:`.repairs` — the block-wise all-repairs enumeration fallback
  for shapes outside the rewritable class.
"""

from .answering import CertainAnswers
from .detector import RelationViolations, ViolationDetector
from .repairs import (
    MAX_REPAIRS,
    certain_answers,
    evaluate_conjunctive,
    repair_instances,
    split_blocks,
)
from .rewrite import CqaAtom, atoms_of, peel_order
from .stats import CqaStats

__all__ = [
    "CertainAnswers",
    "CqaAtom",
    "CqaStats",
    "MAX_REPAIRS",
    "RelationViolations",
    "ViolationDetector",
    "atoms_of",
    "certain_answers",
    "evaluate_conjunctive",
    "peel_order",
    "repair_instances",
    "split_blocks",
]
