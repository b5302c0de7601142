"""Eager aggregation: pushing partial aggregation below a join.

Section 6.4 of the paper points out that compliance *completeness* hinges
on this rule: without a transformation that pushes aggregation past a
join, the optimizer cannot discover the plan of Fig. 1(b) (aggregate
Supply data in Asia before shipping it to Europe) and would reject the
CarCo query even though a compliant plan exists.

The rewrite follows Yan & Larson's eager aggregation.  For
``Γ_{G; f1(x_R), f2(y_L)}(L ⋈_{l=r} R)`` pushing into side ``R``:

.. code-block:: text

    Γ_{G; F1(p1), f2'(y_L)} ( L ⋈_{l=r}
        Γ_{(G∩R) ∪ r; p1 = f1(x_R), pcnt = COUNT(*)} (R) )

* the partial aggregate groups ``R`` by its grouping columns plus the
  R-side join keys, so every original (L-row, R-row) pairing is preserved;
* pushed aggregates get a *combiner* on top: SUM→SUM, COUNT→SUM, MIN→MIN,
  MAX→MAX;
* duplicate-sensitive aggregates over the *other* side are rescaled by the
  partial group count: ``SUM(y_L) → SUM(y_L · pcnt)``,
  ``COUNT(*) → SUM(pcnt)``; MIN/MAX pass through unchanged.

The rule bails out (producing no alternative) when it cannot guarantee
semantics: AVG anywhere, ``COUNT(expr)`` on the unpushed side, aggregates
mixing both sides, or non-equi join conjuncts touching the pushed side.
"""

from __future__ import annotations

import hashlib

from repro.datatypes import DataType
from repro.expr import (
    AggregateCall,
    AggregateFunction,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    expression_dtype,
    split_conjuncts,
)
from repro.plan import LogicalAggregate, LogicalJoin, LogicalPlan
from ..memo import GroupRef, Memo, MExpr
from .base import TransformationRule

_COMBINERS = {
    AggregateFunction.SUM: AggregateFunction.SUM,
    AggregateFunction.COUNT: AggregateFunction.SUM,
    AggregateFunction.MIN: AggregateFunction.MIN,
    AggregateFunction.MAX: AggregateFunction.MAX,
}

#: Aggregates whose value depends on input multiplicity.
_DUPLICATE_SENSITIVE = {AggregateFunction.SUM, AggregateFunction.COUNT}


def _stable_suffix(token: str) -> str:
    return hashlib.md5(token.encode("utf-8")).hexdigest()[:10]


class AggregateJoinTranspose(TransformationRule):
    """Γ(L ⋈ R)  →  Γ'(L ⋈ Γ_partial(R))  (and symmetrically for L)."""

    name = "aggregate-join-transpose"

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
        for join_mexpr in list(memo.group(child.group_id).exprs):
            join = join_mexpr.plan
            if not isinstance(join, LogicalJoin):
                continue
            for side in ("left", "right"):
                rewritten = self._push_into_side(plan, join, side, memo)
                if rewritten is not None:
                    results.append(rewritten)
        return results

    def _push_into_side(
        self, aggregate: LogicalAggregate, join: LogicalJoin, side: str, memo: Memo
    ) -> LogicalPlan | None:
        target = join.left if side == "left" else join.right
        other = join.right if side == "left" else join.left
        if not isinstance(target, GroupRef) or not isinstance(other, GroupRef):
            return None
        # Never push into a side that is already aggregate-rooted: stacking
        # partial aggregates on partial aggregates recurses forever and is
        # never profitable.
        if any(
            isinstance(m.plan, LogicalAggregate)
            for m in memo.group(target.group_id).exprs
        ):
            return None
        target_names = set(target.field_names)

        # Classify aggregates: pushed (args entirely on target side) vs
        # kept (args entirely on the other side, or COUNT(*)).
        pushed: list[AggregateCall] = []
        kept: list[AggregateCall] = []
        for agg in aggregate.aggregates:
            if agg.argument is None:  # COUNT(*): rescaled on the outer side
                kept.append(agg)
                continue
            refs = set(agg.argument.references())
            if refs <= target_names:
                pushed.append(agg)
            elif refs & target_names:
                return None  # argument mixes both sides
            else:
                if agg.func == AggregateFunction.COUNT:
                    return None  # COUNT(expr) on unpushed side: no rescale
                kept.append(agg)
        if not pushed:
            return None

        # Join conjuncts touching the target side must be plain equalities.
        join_keys: list[ColumnRef] = []
        for conjunct in split_conjuncts(join.condition):
            refs = set(conjunct.references())
            if not (refs & target_names):
                continue
            key = _target_equi_key(conjunct, target_names)
            if key is None:
                return None
            join_keys.append(key)
        if not join_keys:
            return None  # pushing below a cross product is never useful here

        # Partial group keys: target-side grouping columns + join keys.
        partial_keys: list[ColumnRef] = []
        seen: set[str] = set()
        for key in list(aggregate.group_keys) + join_keys:
            if key.name in target_names and key.name not in seen:
                seen.add(key.name)
                partial_keys.append(key)

        key_token = ",".join(sorted(seen))
        count_name = f"$pcnt_{_stable_suffix(key_token + '|' + str(target.group_id))}"
        count_ref = ColumnRef(count_name, DataType.INTEGER, None)

        partial_aggs: list[AggregateCall] = list(pushed)
        partial_names = [
            f"$p_{_stable_suffix(f'{agg}|{key_token}|{target.group_id}')}"
            for agg in pushed
        ]
        partial_aggs.append(AggregateCall(AggregateFunction.COUNT, None))
        partial_names.append(count_name)

        # Rebuild the outer aggregate list in the original order.
        outer_aggs: list[AggregateCall] = []
        pushed_index = {id(agg): i for i, agg in enumerate(pushed)}
        for agg in aggregate.aggregates:
            if id(agg) in pushed_index:
                name = partial_names[pushed_index[id(agg)]]
                ref = ColumnRef(name, expression_dtype(agg), None)
                outer_aggs.append(AggregateCall(_COMBINERS[agg.func], ref))
            elif agg.argument is None:  # COUNT(*) → SUM(pcnt)
                outer_aggs.append(AggregateCall(AggregateFunction.SUM, count_ref))
            elif agg.func in _DUPLICATE_SENSITIVE:  # SUM(y) → SUM(y * pcnt)
                scaled = Arithmetic(ArithmeticOp.MUL, agg.argument, count_ref)
                outer_aggs.append(AggregateCall(agg.func, scaled))
            else:  # MIN/MAX unaffected by duplicates
                outer_aggs.append(agg)

        partial = LogicalAggregate(
            target, tuple(partial_keys), tuple(partial_aggs), tuple(partial_names)
        )
        if side == "left":
            new_join = LogicalJoin(partial, other, join.condition)
        else:
            new_join = LogicalJoin(other, partial, join.condition)
        return LogicalAggregate(
            new_join, aggregate.group_keys, tuple(outer_aggs), aggregate.agg_names
        )


def _target_equi_key(conjunct: Expression, target_names: set[str]) -> ColumnRef | None:
    """If ``conjunct`` is ``target_col = other_col``, return the target-side
    column; otherwise ``None`` (rewrite not applicable)."""
    if not isinstance(conjunct, Comparison) or conjunct.op != ComparisonOp.EQ:
        return None
    left, right = conjunct.left, conjunct.right
    if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
        return None
    left_in = left.name in target_names
    right_in = right.name in target_names
    if left_in and not right_in:
        return left
    if right_in and not left_in:
        return right
    return None
