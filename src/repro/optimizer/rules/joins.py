"""Join reordering rules: commutativity and associativity.

Together (run to fixpoint inside the memo) they enumerate all bushy join
trees over the query's join graph; a configuration flag suppresses
alternatives that introduce Cartesian products the original query did not
have — the standard plan-space heuristic, which is also what keeps the
TPC-H Q2/Q8 search spaces tractable.
"""

from __future__ import annotations

from typing import Sequence

from ...expr import Expression, conjunction
from ...plan import LogicalJoin, LogicalPlan
from ..memo import Conjunct, Memo, MExpr
from .base import TransformationRule


class JoinCommute(TransformationRule):
    """A ⋈ B  →  B ⋈ A."""

    name = "join-commute"
    root = LogicalJoin

    def apply(
        self, mexpr: MExpr, memo: Memo, gained: Sequence[MExpr] = ()
    ) -> list[LogicalPlan]:
        plan = mexpr.plan
        return [LogicalJoin(plan.right, plan.left, plan.condition)]


class JoinAssociate(TransformationRule):
    """(A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C), redistributing the predicate
    conjuncts between the inner and outer join.  Inspects the left
    child group for its joins."""

    name = "join-associate"
    root = LogicalJoin
    inner = LogicalJoin

    def __init__(self, allow_cross_products: bool = False) -> None:
        self.allow_cross_products = allow_cross_products

    def apply(
        self, mexpr: MExpr, memo: Memo, gained: Sequence[MExpr] = ()
    ) -> list[LogicalPlan]:
        right = mexpr.plan.right
        right_names = memo.group(right.group_id).field_names
        outer_conjuncts = memo.conjuncts(mexpr)
        results: list[LogicalPlan] = []
        for inner_mexpr in gained:
            a, b = inner_mexpr.plan.left, inner_mexpr.plan.right
            bc_names = memo.group(b.group_id).field_names | right_names
            new_inner: list[Conjunct] = []
            new_outer: list[Conjunct] = []
            for conjunct in memo.conjuncts(inner_mexpr) + outer_conjuncts:
                if conjunct[2] <= bc_names:
                    new_inner.append(conjunct)
                else:
                    new_outer.append(conjunct)
            if not self.allow_cross_products and (not new_inner or not new_outer):
                continue
            inner_join = LogicalJoin(b, right, _conjoin(new_inner))
            results.append(LogicalJoin(a, inner_join, _conjoin(new_outer)))
        return results


def _conjoin(conjuncts: list[Conjunct]) -> Expression | None:
    """:func:`~.base.ordered_conjunction` over pre-split conjuncts."""
    if not conjuncts:
        return None
    conjuncts.sort(key=lambda conjunct: conjunct[0])
    return conjunction([conjunct[1] for conjunct in conjuncts])
