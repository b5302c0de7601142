"""Plan normalization: the "initial expression tree" fed to the memo.

Before plan enumeration, the optimizer rewrites the bound plan into a
canonical form (these are the always-beneficial algebraic rewrites that
Volcano-style optimizers typically apply once, outside the search):

1. **Predicate pushdown** — WHERE conjuncts move below projections (with
   substitution), into join conditions, through group-by keys, and down to
   the scans they constrain.
2. **Column pruning** — a projection keeping only the needed columns is
   placed directly above every scan.  These pruning projections are the
   *masking* operators of the paper: projecting out a restricted attribute
   before any SHIP is exactly how a plan becomes compliant with a policy
   like P_N of the running example.
3. **Project simplification** — identity projections are dropped and
   adjacent projections merged.

Normalization preserves semantics; tests verify plans produce identical
results before and after.
"""

from __future__ import annotations

from ..expr import (
    Expression,
    conjunction,
    split_conjuncts,
    substitute,
)
from ..plan import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
)


def normalize(plan: LogicalPlan) -> LogicalPlan:
    """Apply pushdown, pruning, and simplification."""
    plan = push_predicates(plan)
    plan = prune_columns(plan)
    plan = simplify_projects(plan)
    return plan


# -- predicate pushdown ------------------------------------------------------


def push_predicates(plan: LogicalPlan) -> LogicalPlan:
    return _push(plan, [])


def _push(plan: LogicalPlan, conjuncts: list[Expression]) -> LogicalPlan:
    if isinstance(plan, LogicalFilter):
        return _push(plan.child, conjuncts + split_conjuncts(plan.predicate))

    if isinstance(plan, LogicalSort):
        child = _push(plan.child, conjuncts)
        return plan.with_children((child,))

    if isinstance(plan, LogicalProject):
        mapping = {name: expr for expr, name in zip(plan.exprs, plan.names)}
        pushable: list[Expression] = []
        stuck: list[Expression] = []
        for conjunct in conjuncts:
            rewritten = substitute(conjunct, mapping)
            if rewritten.contains_aggregate():
                stuck.append(conjunct)
            else:
                pushable.append(rewritten)
        child = _push(plan.child, pushable)
        result: LogicalPlan = plan.with_children((child,))
        return _wrap_filter(result, stuck)

    if isinstance(plan, LogicalAggregate):
        key_names = {k.name for k in plan.group_keys}
        pushable = []
        stuck = []
        for conjunct in conjuncts:
            if set(conjunct.references()) <= key_names:
                pushable.append(conjunct)
            else:
                stuck.append(conjunct)
        child = _push(plan.child, pushable)
        result = plan.with_children((child,))
        return _wrap_filter(result, stuck)

    if isinstance(plan, LogicalJoin):
        conjuncts = conjuncts + split_conjuncts(plan.condition)
        left_names = set(plan.left.field_names)
        right_names = set(plan.right.field_names)
        to_left: list[Expression] = []
        to_right: list[Expression] = []
        join_condition: list[Expression] = []
        for conjunct in conjuncts:
            refs = set(conjunct.references())
            if refs <= left_names:
                to_left.append(conjunct)
            elif refs <= right_names:
                to_right.append(conjunct)
            else:
                join_condition.append(conjunct)
        left = _push(plan.left, to_left)
        right = _push(plan.right, to_right)
        condition = conjunction(join_condition) if join_condition else None
        return LogicalJoin(left, right, condition)

    if isinstance(plan, LogicalUnion):
        # Fragments share field names: replicate the filter per branch.
        children = tuple(_push(c, list(conjuncts)) for c in plan.inputs)
        return LogicalUnion(children)

    if isinstance(plan, LogicalScan):
        return _wrap_filter(plan, conjuncts)

    raise TypeError(f"unknown logical operator {type(plan).__name__}")


def _wrap_filter(plan: LogicalPlan, conjuncts: list[Expression]) -> LogicalPlan:
    if not conjuncts:
        return plan
    return LogicalFilter(plan, conjunction(conjuncts))


# -- column pruning ----------------------------------------------------------


def prune_columns(plan: LogicalPlan) -> LogicalPlan:
    """Insert pruning projections above scans so only columns actually used
    by the query flow upward (the paper's masking projections)."""
    return _prune(plan, set(plan.field_names))


def _prune(plan: LogicalPlan, required: set[str]) -> LogicalPlan:
    if isinstance(plan, LogicalScan):
        needed = [f for f in plan.fields if f.name in required]
        if len(needed) == len(plan.fields):
            return plan
        if not needed:
            needed = [plan.fields[0]]  # keep at least one column
        exprs = tuple(f.to_ref() for f in needed)
        names = tuple(f.name for f in needed)
        return LogicalProject(plan, exprs, names)

    if isinstance(plan, LogicalFilter):
        child_required = required | set(plan.predicate.references())
        child = _prune(plan.child, child_required)
        return plan.with_children((child,))

    if isinstance(plan, LogicalSort):
        child_required = required | {name for name, _desc in plan.sort_keys}
        child = _prune(plan.child, child_required)
        return plan.with_children((child,))

    if isinstance(plan, LogicalProject):
        kept = [
            (expr, name)
            for expr, name in zip(plan.exprs, plan.names)
            if name in required
        ]
        if not kept:
            kept = [(plan.exprs[0], plan.names[0])]
        child_required: set[str] = set()
        for expr, _name in kept:
            child_required |= set(expr.references())
        if not child_required and plan.child.fields:
            child_required = {plan.child.fields[0].name}
        child = _prune(plan.child, child_required)
        return LogicalProject(
            child,
            tuple(e for e, _ in kept),
            tuple(n for _, n in kept),
        )

    if isinstance(plan, LogicalJoin):
        needed = set(required)
        if plan.condition is not None:
            needed |= set(plan.condition.references())
        left_required = needed & set(plan.left.field_names)
        right_required = needed & set(plan.right.field_names)
        left = _prune(plan.left, left_required)
        right = _prune(plan.right, right_required)
        return LogicalJoin(left, right, plan.condition)

    if isinstance(plan, LogicalAggregate):
        kept_aggs = [
            (agg, name)
            for agg, name in zip(plan.aggregates, plan.agg_names)
            if name in required
        ]
        if not kept_aggs and plan.aggregates:
            # Keep aggregates that nobody references only if there are no
            # group keys either (an aggregate node must output something).
            if not plan.group_keys:
                kept_aggs = [(plan.aggregates[0], plan.agg_names[0])]
        child_required = {k.name for k in plan.group_keys}
        for agg, _name in kept_aggs:
            if agg.argument is not None:
                child_required |= set(agg.argument.references())
        child = _prune(plan.child, child_required)
        return LogicalAggregate(
            child,
            plan.group_keys,
            tuple(a for a, _ in kept_aggs),
            tuple(n for _, n in kept_aggs),
        )

    if isinstance(plan, LogicalUnion):
        children = tuple(_prune(c, set(required)) for c in plan.inputs)
        return LogicalUnion(children)

    raise TypeError(f"unknown logical operator {type(plan).__name__}")


# -- project simplification ---------------------------------------------------


def simplify_projects(plan: LogicalPlan) -> LogicalPlan:
    children = tuple(simplify_projects(c) for c in plan.children())
    plan = plan.with_children(children)

    if isinstance(plan, LogicalProject):
        child = plan.child
        # Merge Project(Project(x)) by substitution.
        if isinstance(child, LogicalProject):
            mapping = {name: expr for expr, name in zip(child.exprs, child.names)}
            merged = tuple(substitute(e, mapping) for e in plan.exprs)
            plan = LogicalProject(child.child, merged, plan.names)
            child = plan.child
        # Drop identity projections.
        if (
            plan.is_pruning_only
            and plan.names == tuple(e.name for e in plan.exprs)  # type: ignore[union-attr]
            and set(plan.names) == set(child.field_names)
            and len(plan.names) == len(child.field_names)
        ):
            return child
    return plan
