"""Join reordering rules: commutativity and associativity.

Together (run to fixpoint inside the memo) they enumerate all bushy join
trees over the query's join graph; a configuration flag suppresses
alternatives that introduce Cartesian products the original query did not
have — the standard plan-space heuristic, which is also what keeps the
TPC-H Q2/Q8 search spaces tractable.
"""

from __future__ import annotations

from repro.expr import split_conjuncts
from repro.plan import LogicalJoin, LogicalPlan
from ..memo import GroupRef, Memo, MExpr
from .base import TransformationRule, ordered_conjunction


class JoinCommute(TransformationRule):
    """A ⋈ B  →  B ⋈ A."""

    name = "join-commute"

    def apply(self, mexpr: MExpr, memo: Memo) -> list[LogicalPlan]:
        plan = mexpr.plan
        if not isinstance(plan, LogicalJoin):
            return []
        return [LogicalJoin(plan.right, plan.left, plan.condition)]


class JoinAssociate(TransformationRule):
    """(A ⋈ B) ⋈ C  →  A ⋈ (B ⋈ C), redistributing the predicate
    conjuncts between the inner and outer join."""

    name = "join-associate"

    def __init__(self, allow_cross_products: bool = False) -> None:
        self.allow_cross_products = allow_cross_products

    def apply(self, mexpr: MExpr, memo: Memo) -> list[LogicalPlan]:
        plan = mexpr.plan
        if not isinstance(plan, LogicalJoin):
            return []
        left = plan.left
        if not isinstance(left, GroupRef):
            return []
        results: list[LogicalPlan] = []
        right = plan.right
        outer_conjuncts = split_conjuncts(plan.condition)
        for inner_mexpr in list(memo.group(left.group_id).exprs):
            inner = inner_mexpr.plan
            if not isinstance(inner, LogicalJoin):
                continue
            a, b = inner.left, inner.right
            if not isinstance(a, GroupRef) or not isinstance(b, GroupRef):
                continue
            conjuncts = split_conjuncts(inner.condition) + outer_conjuncts
            bc_names = set(b.field_names) | set(right.field_names)
            new_inner: list = []
            new_outer: list = []
            for conjunct in conjuncts:
                if set(conjunct.references()) <= bc_names:
                    new_inner.append(conjunct)
                else:
                    new_outer.append(conjunct)
            if not self.allow_cross_products and (not new_inner or not new_outer):
                continue
            inner_join = LogicalJoin(b, right, ordered_conjunction(new_inner))
            outer_join = LogicalJoin(a, inner_join, ordered_conjunction(new_outer))
            results.append(outer_join)
        return results
