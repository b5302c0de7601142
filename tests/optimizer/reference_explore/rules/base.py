"""Transformation rule interface.

Rules receive a memo expression (an operator over :class:`GroupRef`
children) and return new shallow expressions equivalent to it; the
exploration loop adds them to the same group.  Rules may inspect child
groups through the memo (needed for multi-level patterns such as join
associativity).
"""

from __future__ import annotations

from ..memo import Memo, MExpr
from repro.expr import Expression, conjunction
from repro.plan import LogicalPlan


class TransformationRule:
    """Base class for algebraic equivalence rules."""

    #: Short name used in fired-rule bookkeeping and stats.
    name: str = "rule"

    def apply(self, mexpr: MExpr, memo: Memo) -> list[LogicalPlan]:
        raise NotImplementedError


def ordered_conjunction(conjuncts: list[Expression]) -> Expression | None:
    """Deterministically ordered conjunction: rules must canonicalize
    recombined join conditions so the memo can deduplicate expressions
    produced along different derivation paths."""
    if not conjuncts:
        return None
    ordered = sorted(conjuncts, key=str)
    return conjunction(ordered)
