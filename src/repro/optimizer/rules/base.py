"""Transformation rule interface.

A rule fires on a memo expression (an operator over :class:`GroupRef`
children) whose root operator is of type :attr:`TransformationRule.root`
and returns new shallow expressions equivalent to it; the exploration
loop adds them to the same group.

A *single-level* rule looks at the expression alone and fires once.  A
*multi-level* rule (join associativity, the aggregate transposes) also
pattern-matches the members of **one** child group: it declares their
root operator (:attr:`TransformationRule.inner`) and which child it is
(:meth:`TransformationRule.inspects`), and the loop hands it only the
members that group gained since this rule last fired on this
expression.  That is exact because a rule's output for an (expression,
member) pair is a function of the pair alone: everything else a rule
reads — a group's fields, its root operator type — is fixed when the
group is created (see :mod:`repro.optimizer.explore`).
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from ..memo import Memo, MExpr
from ...expr import AggregateFunction, Expression, conjunction
from ...plan import LogicalPlan

#: Aggregate applied on top of a pushed-down partial aggregate.
COMBINERS = {
    AggregateFunction.SUM: AggregateFunction.SUM,
    AggregateFunction.COUNT: AggregateFunction.SUM,
    AggregateFunction.MIN: AggregateFunction.MIN,
    AggregateFunction.MAX: AggregateFunction.MAX,
}


class TransformationRule:
    """Base class for algebraic equivalence rules."""

    #: Short name used in fired-rule bookkeeping and stats.
    name: str = "rule"
    #: Root operator type of the expressions the rule fires on.
    root: type[LogicalPlan] = LogicalPlan

    #: Multi-level rules: root operator type of the inspected group's
    #: members the rule matches (``None`` = single-level rule).
    inner: type[LogicalPlan] | None = None

    def inspects(self, mexpr: MExpr) -> int:
        """Id of the one child group a multi-level rule looks into."""
        return mexpr.child_groups[0]

    def apply(
        self, mexpr: MExpr, memo: Memo, gained: Sequence[MExpr] = ()
    ) -> list[LogicalPlan]:
        """Alternatives for ``mexpr``; for a multi-level rule, those
        involving the ``gained`` members of the inspected group."""
        raise NotImplementedError


def ordered_conjunction(conjuncts: list[Expression]) -> Expression | None:
    """Deterministically ordered conjunction: rules must canonicalize
    recombined join conditions so the memo can deduplicate expressions
    produced along different derivation paths."""
    if not conjuncts:
        return None
    ordered = sorted(conjuncts, key=str)
    return conjunction(ordered)


def stable_suffix(token: str) -> str:
    """Name suffix for a rule-made column: a function of what the column
    computes, so re-derivations produce the same name."""
    return hashlib.md5(token.encode("utf-8")).hexdigest()[:10]
