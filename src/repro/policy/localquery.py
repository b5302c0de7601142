"""Describing a local subplan for policy evaluation.

Algorithm 1 of the paper evaluates a *query* ``q`` against policy
expressions using: its output attributes ``A_q``, its predicate ``P_q``,
whether it aggregates, its grouping attributes ``G_q``, and the aggregate
function ``f_a`` applied to each output attribute.  The optimizer however
works with *plans*.  This module analyzes a logical subplan that touches a
single database and extracts exactly those ingredients, tracking attribute
lineage through projections and aggregations.

Conservative choices (each keeps the evaluator sound — it can only
under-approximate the legal location set):

* An attribute aggregated at several levels records *all* functions
  applied; a policy expression must allow every one of them.
* A value that was aggregated and then used as a grouping key upstream is
  still treated as aggregated with its recorded functions.
* Output expressions with no base attributes (literals, COUNT(*)) expose
  no attribute and therefore grant nothing on their own.

The analysis is compositional: what an operator contributes depends on
its own arguments and on the analysis of its inputs, never on the input
*plans*.  :func:`summarize` exposes that one step, so a caller that
meets a plan bottom-up (the annotator walking memo groups, the validator
walking a physical plan) describes every subplan in time linear in the
plan instead of re-analyzing each subtree from its leaves.  Summaries
are plain values owned by the caller; nothing here is cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..errors import OptimizerError
from ..expr import (
    AggregateFunction,
    BaseColumn,
    Expression,
    conjunction,
    split_conjuncts,
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


@dataclass(frozen=True)
class Lineage:
    """Lineage of one output field: base attributes it derives from and the
    aggregate functions applied along the way (empty = raw value)."""

    bases: frozenset[BaseColumn]
    aggs: frozenset[AggregateFunction] = frozenset()

    @property
    def is_raw(self) -> bool:
        return not self.aggs


@dataclass(frozen=True)
class LocalQuery:
    """The evaluator's view of a single-database subplan.

    ``output`` maps each output field name to its lineage; ``group_bases``
    is ``G_q`` (grouping attributes of the outermost aggregation, ``None``
    when the subplan does not aggregate); ``predicate`` is the conjunction
    of every filter and join predicate in the subplan (``P_q``).
    """

    database: str
    output: tuple[tuple[str, Lineage], ...]
    predicate: Expression | None
    is_aggregate: bool
    group_bases: frozenset[BaseColumn] = frozenset()

    @cached_property
    def _lineages(self) -> dict[BaseColumn, list[Lineage]]:
        """Per base attribute, the lineages of the output fields that
        mention it, in output order — built once per query."""
        table: dict[BaseColumn, list[Lineage]] = {}
        for _name, lineage in self.output:
            for base in lineage.bases:
                table.setdefault(base, []).append(lineage)
        return table

    @cached_property
    def output_attributes(self) -> frozenset[BaseColumn]:
        """``A_q``: every base attribute mentioned in output expressions."""
        return frozenset(self._lineages)

    def lineages_of(self, attribute: BaseColumn) -> list[Lineage]:
        return self._lineages.get(attribute, [])


@dataclass(slots=True)
class _State:
    field_lineage: dict[str, Lineage]
    #: Conjuncts of every filter and join predicate below, in plan order.
    predicates: tuple[Expression, ...] = ()
    is_aggregate: bool = False
    group_bases: frozenset[BaseColumn] = frozenset()


@dataclass(slots=True)
class SubplanSummary:
    """What is known bottom-up about a logical subplan: the databases it
    reads and — while it still is a local query (one database, no UNION
    of fragments) — the analysis 𝒜's ingredients are read from."""

    databases: frozenset[str]
    state: _State | None

    def local_query(self) -> LocalQuery | None:
        """The evaluator's view of the subplan; ``None`` when it is not a
        local query (it then gets shipping traits via AR3 only)."""
        state = self.state
        if state is None or len(self.databases) != 1:
            return None
        predicate = conjunction(state.predicates) if state.predicates else None
        if predicate is not None and not split_conjuncts(predicate):
            predicate = None
        return LocalQuery(
            database=next(iter(self.databases)),
            output=tuple(state.field_lineage.items()),
            predicate=predicate,
            is_aggregate=state.is_aggregate,
            group_bases=state.group_bases,
        )


def summarize(op: LogicalPlan, inputs: Sequence[SubplanSummary]) -> SubplanSummary:
    """Summary of the subplan rooted at operator ``op`` from the
    summaries of its inputs.  Only ``op``'s own arguments are read — its
    children may be full plans, memo group references or anything else."""
    if isinstance(op, LogicalScan):
        return SubplanSummary(frozenset([op.database]), _analyze(op, ()))
    databases = inputs[0].databases.union(*[s.databases for s in inputs[1:]])
    states = [s.state for s in inputs]
    if (
        len(databases) != 1
        or isinstance(op, LogicalUnion)
        or any(state is None for state in states)
    ):
        return SubplanSummary(databases, None)
    return SubplanSummary(databases, _analyze(op, states))  # type: ignore[arg-type]


def summarize_plan(plan: LogicalPlan) -> SubplanSummary:
    """:func:`summarize` applied bottom-up over a whole logical plan."""
    return summarize(plan, [summarize_plan(child) for child in plan.children()])


def describe_local_query(plan: LogicalPlan) -> LocalQuery:
    """Analyze a subplan whose scans all read one database.

    Raises :class:`OptimizerError` when the subplan spans databases (the
    caller — annotation rule AR4 — must only invoke this on local
    subplans).
    """
    summary = summarize_plan(plan)
    if len(summary.databases) != 1:
        raise OptimizerError(
            "describe_local_query needs a single-database subplan, got "
            f"{sorted(summary.databases)}"
        )
    local_query = summary.local_query()
    if local_query is None:
        raise OptimizerError(
            "a UNION of fragments spans databases and is never a local query"
        )
    return local_query


def _expr_lineage(expr: Expression, child: dict[str, Lineage]) -> Lineage:
    bases: set[BaseColumn] = set()
    aggs: set[AggregateFunction] = set()
    for name in expr.references():
        lineage = child.get(name)
        if lineage is None:
            continue
        bases |= lineage.bases
        aggs |= lineage.aggs
    return Lineage(frozenset(bases), frozenset(aggs))


def _analyze(plan: LogicalPlan, inputs: Sequence[_State]) -> _State:
    """One analysis step: ``plan``'s operator over analyzed inputs."""
    if isinstance(plan, LogicalScan):
        lineage = {
            f.name: Lineage(frozenset([f.base]) if f.base else frozenset())
            for f in plan.fields
        }
        return _State(lineage)
    if isinstance(plan, LogicalFilter):
        (state,) = inputs
        return _State(
            state.field_lineage,
            state.predicates + tuple(split_conjuncts(plan.predicate)),
            state.is_aggregate,
            state.group_bases,
        )
    if isinstance(plan, LogicalJoin):
        left, right = inputs
        lineage = dict(left.field_lineage)
        lineage.update(right.field_lineage)
        return _State(
            lineage,
            left.predicates + right.predicates + tuple(split_conjuncts(plan.condition)),
            is_aggregate=left.is_aggregate or right.is_aggregate,
            group_bases=left.group_bases | right.group_bases,
        )
    if isinstance(plan, LogicalProject):
        (state,) = inputs
        lineage = {
            name: _expr_lineage(expr, state.field_lineage)
            for expr, name in zip(plan.exprs, plan.names)
        }
        return _State(lineage, state.predicates, state.is_aggregate, state.group_bases)
    if isinstance(plan, LogicalAggregate):
        (state,) = inputs
        lineage = {}
        group_bases: set[BaseColumn] = set()
        for key in plan.group_keys:
            key_lineage = state.field_lineage.get(
                key.name, Lineage(frozenset())
            )
            lineage[key.name] = key_lineage
            group_bases |= key_lineage.bases
        for agg, name in zip(plan.aggregates, plan.agg_names):
            if agg.argument is None:  # COUNT(*)
                lineage[name] = Lineage(frozenset(), frozenset([agg.func]))
                continue
            arg_lineage = _expr_lineage(agg.argument, state.field_lineage)
            lineage[name] = Lineage(
                arg_lineage.bases, arg_lineage.aggs | {agg.func}
            )
        # The outermost aggregate determines G_q: what this subplan's
        # output is grouped by.
        return _State(
            lineage, state.predicates, is_aggregate=True, group_bases=frozenset(group_bases)
        )
    if isinstance(plan, LogicalSort):
        return inputs[0]
    raise OptimizerError(f"unknown logical operator {type(plan).__name__}")
