"""Partial aggregation below UNION ALL (extension beyond the paper).

For GAV-fragmented tables (§7.5) a scan is a UNION ALL of per-database
fragment scans.  When a policy only allows *aggregated* fragment data to
leave its database, plans need the aggregation below the union — per
fragment, at the fragment's site — with a combining aggregation above:

.. code-block:: text

    Γ_{G; f(x)} (∪ᵢ Rᵢ)   →   Γ_{G; F(p)} (∪ᵢ Γ_{G; p = f(x)} (Rᵢ))

with combiner ``F``: SUM→SUM, COUNT→SUM, MIN→MIN, MAX→MAX (AVG is not
decomposed, mirroring the join-transpose rule).  Unlike the join case no
count rescaling is needed: UNION ALL only concatenates rows.

The paper itself does not enumerate this rule — its fragmented experiment
(§7.5) measures optimization time only — but it falls squarely under
"existing relational algebraic equivalence and query rewrite rules"
(§6.4) and extends compliance completeness to fragmented tables under
aggregate-only policies.
"""

from __future__ import annotations

import hashlib

from repro.expr import AggregateCall, AggregateFunction, ColumnRef, expression_dtype
from repro.plan import LogicalAggregate, LogicalPlan, LogicalUnion
from ..memo import GroupRef, Memo, MExpr
from .base import TransformationRule

_COMBINERS = {
    AggregateFunction.SUM: AggregateFunction.SUM,
    AggregateFunction.COUNT: AggregateFunction.SUM,
    AggregateFunction.MIN: AggregateFunction.MIN,
    AggregateFunction.MAX: AggregateFunction.MAX,
}


def _stable_suffix(token: str) -> str:
    return hashlib.md5(token.encode("utf-8")).hexdigest()[:10]


class AggregateUnionTranspose(TransformationRule):
    """Γ(∪ᵢ Rᵢ)  →  Γ_final(∪ᵢ Γ_partial(Rᵢ))."""

    name = "aggregate-union-transpose"

    def apply(self, mexpr: MExpr, memo: Memo) -> list[LogicalPlan]:
        plan = mexpr.plan
        if not isinstance(plan, LogicalAggregate):
            return []
        child = plan.child
        if not isinstance(child, GroupRef):
            return []
        if any(agg.func not in _COMBINERS for agg in plan.aggregates):
            return []
        results: list[LogicalPlan] = []
        for union_mexpr in list(memo.group(child.group_id).exprs):
            union = union_mexpr.plan
            if not isinstance(union, LogicalUnion):
                continue
            rewritten = self._push_below_union(plan, union, memo)
            if rewritten is not None:
                results.append(rewritten)
        return results

    def _push_below_union(
        self, aggregate: LogicalAggregate, union: LogicalUnion, memo: Memo
    ) -> LogicalPlan | None:
        branches = union.inputs
        if not all(isinstance(b, GroupRef) for b in branches):
            return None
        # Recursion guard: never stack partial aggregates on branches that
        # are already aggregate-rooted.
        for branch in branches:
            if any(
                isinstance(m.plan, LogicalAggregate)
                for m in memo.group(branch.group_id).exprs  # type: ignore[union-attr]
            ):
                return None
        branch_names = set(branches[0].field_names)
        for key in aggregate.group_keys:
            if key.name not in branch_names:
                return None
        for agg in aggregate.aggregates:
            if agg.argument is not None and not (
                set(agg.argument.references()) <= branch_names
            ):
                return None

        key_token = ",".join(sorted(k.name for k in aggregate.group_keys))
        partial_names = tuple(
            f"$u_{_stable_suffix(f'{agg}|{key_token}')}" for agg in aggregate.aggregates
        )
        partials = tuple(
            LogicalAggregate(
                branch, aggregate.group_keys, aggregate.aggregates, partial_names
            )
            for branch in branches
        )
        new_union = LogicalUnion(partials)
        outer_aggs = tuple(
            AggregateCall(
                _COMBINERS[agg.func],
                ColumnRef(name, expression_dtype(agg), None),
            )
            for agg, name in zip(aggregate.aggregates, partial_names)
        )
        return LogicalAggregate(
            new_union, aggregate.group_keys, outer_aggs, aggregate.agg_names
        )
