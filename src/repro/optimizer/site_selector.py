"""Site selector — optimization phase 2 (paper §6.3, Algorithm 2).

Given the annotated plan (each node carries its execution trait ℰ), pick
one location per operator minimizing total data-shipping cost under the
message cost model ``ShipCost(n, l', l) = α_{l'l} + β_{l'l} · bytes(n)``.
The selection is a memoized recursion over ``(node, location)`` pairs —
the dynamic program of Algorithm 2 — followed by materialization into a
physical plan with SHIP operators on every location-changing edge.

Implementation rules (logical → physical operators) are applied during
materialization: joins with at least one column=column equality conjunct
become hash joins (remaining conjuncts as residual predicate), other
joins become nested-loop joins; aggregation becomes hash aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import NonCompliantQueryError, OptimizerError
from ..expr import ColumnRef, Comparison, ComparisonOp, conjunction, split_conjuncts
from ..geo import NetworkModel
from ..plan import (
    Filter,
    HashAggregate,
    HashJoin,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalUnion,
    NestedLoopJoin,
    PhysicalPlan,
    Project,
    Ship,
    Sort,
    TableScan,
    UnionAll,
)
from .annotator import AnnotatedNode


@dataclass
class SiteSelection:
    plan: PhysicalPlan
    shipping_cost: float
    locations_considered: int


class SiteSelector:
    """Places annotated operators at locations via dynamic programming.

    ``objective`` selects the cost the DP minimizes (the paper's §3.3
    notes the method generalizes to other cost models):

    * ``"total"`` (default, the paper's message cost model) — the *sum*
      of all transfer times;
    * ``"response_time"`` — the critical-path transfer time: children
      transfer in parallel, so a node's cost is the *maximum* over its
      children's (ship + own) costs.
    """

    def __init__(self, network: NetworkModel, objective: str = "total") -> None:
        if objective not in ("total", "response_time"):
            raise ValueError(f"unknown site-selection objective {objective!r}")
        self.network = network
        self.objective = objective

    def select(
        self,
        root: AnnotatedNode,
        result_location: str | None = None,
    ) -> SiteSelection:
        cost_table: dict[tuple[int, str], float] = {}
        choice_table: dict[tuple[int, str], tuple[str, ...]] = {}
        considered = 0

        def ship_cost(child: AnnotatedNode, src: str, dst: str) -> float:
            if src == dst:
                return 0.0
            nbytes = child.rows * child.row_width
            return self.network.transfer_time(src, dst, nbytes)

        def cost_of(node: AnnotatedNode, location: str) -> float:
            nonlocal considered
            key = (id(node), location)
            cached = cost_table.get(key)
            if cached is not None:
                return cached
            considered += 1
            total = 0.0
            chosen: list[str] = []
            for child in node.children:
                best_cost = float("inf")
                best_location: str | None = None
                for child_location in sorted(child.execution_trait):
                    candidate = ship_cost(child, child_location, location) + cost_of(
                        child, child_location
                    )
                    if candidate < best_cost:
                        best_cost = candidate
                        best_location = child_location
                if best_location is None:
                    raise OptimizerError(
                        "annotated child has an empty execution trait"
                    )
                if self.objective == "response_time":
                    total = max(total, best_cost)
                else:
                    total += best_cost
                chosen.append(best_location)
            cost_table[key] = total
            choice_table[key] = tuple(chosen)
            return total

        root_candidates = sorted(root.execution_trait)
        if not root_candidates:
            raise NonCompliantQueryError("root operator has no legal location")
        best_root: str | None = None
        best_total = float("inf")
        for location in root_candidates:
            total = cost_of(root, location)
            if result_location is not None:
                total += ship_cost(root, location, result_location)
            if total < best_total:
                best_total = total
                best_root = location
        assert best_root is not None
        if result_location is not None and best_root != result_location:
            if result_location not in root.shipping_trait:
                raise NonCompliantQueryError(
                    f"query result may not be shipped to {result_location!r}"
                )

        plan = self._materialize(root, best_root, choice_table)
        if result_location is not None and plan.location != result_location:
            plan = Ship(
                fields=plan.fields,
                location=result_location,
                estimated_rows=plan.estimated_rows,
                child=plan,
                source=plan.location,
                target=result_location,
            )
        return SiteSelection(
            plan=plan, shipping_cost=best_total, locations_considered=considered
        )

    # -- materialization -------------------------------------------------------

    def _materialize(
        self,
        node: AnnotatedNode,
        location: str,
        choices: dict[tuple[int, str], tuple[str, ...]],
    ) -> PhysicalPlan:
        child_locations = choices.get((id(node), location), ())
        children: list[PhysicalPlan] = []
        for child, child_location in zip(node.children, child_locations):
            physical = self._materialize(child, child_location, choices)
            if child_location != location:
                physical = Ship(
                    fields=physical.fields,
                    location=location,
                    estimated_rows=physical.estimated_rows,
                    child=physical,
                    source=child_location,
                    target=location,
                )
            children.append(physical)
        return _to_physical(node, location, tuple(children))


def _to_physical(
    node: AnnotatedNode, location: str, children: tuple[PhysicalPlan, ...]
) -> PhysicalPlan:
    op = node.op
    fields = op.fields
    rows = node.rows
    if isinstance(op, LogicalScan):
        return TableScan(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            table=op.table,
            database=op.database,
            alias=op.alias,
        )
    if isinstance(op, LogicalFilter):
        return Filter(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            child=children[0],
            predicate=op.predicate,
        )
    if isinstance(op, LogicalProject):
        return Project(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            child=children[0],
            exprs=op.exprs,
            names=op.names,
        )
    if isinstance(op, LogicalJoin):
        left_names = set(children[0].field_names)
        left_keys: list[ColumnRef] = []
        right_keys: list[ColumnRef] = []
        residual = []
        for conjunct in split_conjuncts(op.condition):
            pair = _equi_pair(conjunct, left_names)
            if pair is not None:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
            else:
                residual.append(conjunct)
        if left_keys:
            return HashJoin(
                fields=fields,
                location=location,
                estimated_rows=rows,
                execution_trait=node.execution_trait,
                left=children[0],
                right=children[1],
                left_keys=tuple(left_keys),
                right_keys=tuple(right_keys),
                residual=conjunction(residual) if residual else None,
            )
        return NestedLoopJoin(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            left=children[0],
            right=children[1],
            condition=op.condition,
        )
    if isinstance(op, LogicalAggregate):
        return HashAggregate(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            child=children[0],
            group_keys=op.group_keys,
            aggregates=op.aggregates,
            agg_names=op.agg_names,
        )
    if isinstance(op, LogicalUnion):
        return UnionAll(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            inputs=children,
        )
    if isinstance(op, LogicalSort):
        return Sort(
            fields=fields,
            location=location,
            estimated_rows=rows,
            execution_trait=node.execution_trait,
            child=children[0],
            sort_keys=op.sort_keys,
            limit=op.limit,
        )
    raise OptimizerError(f"cannot materialize operator {type(op).__name__}")


def _equi_pair(conjunct, left_names: set[str]):
    """Return (left_key, right_key) when ``conjunct`` is an equality between
    a column of each join side."""
    if not isinstance(conjunct, Comparison) or conjunct.op != ComparisonOp.EQ:
        return None
    a, b = conjunct.left, conjunct.right
    if not isinstance(a, ColumnRef) or not isinstance(b, ColumnRef):
        return None
    if a.name in left_names and b.name not in left_names:
        return (a, b)
    if b.name in left_names and a.name not in left_names:
        return (b, a)
    return None
