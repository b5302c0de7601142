"""Plan annotator — optimization phase 1 (paper §6.2).

Runs the Volcano-style search (normalize → memo → explore) and then
extracts, per memo group, the Pareto frontier of
``(execution trait, shipping trait) → cheapest alternative`` entries,
applying annotation rules AR1–AR3 per alternative and AR4 per group.

The paper's compliance-adapted cost function — "an operator's cost is
infinite when ℰ_n = ∅" — appears here as alternatives with an empty
execution trait simply being discarded.  The *compliance-based
optimization goal* (a non-empty shipping trait at the root) is met by
construction because 𝒮 ⊇ ℰ ≠ ∅ for every surviving entry; a query whose
root group ends with no surviving entry is rejected
(:class:`~repro.errors.NonCompliantQueryError`).

In *traditional* mode (the baseline of §7) traits are ignored: every
group keeps its single cheapest alternative and every node is considered
executable anywhere — exactly "Calcite's cost-based optimizer as-is" used
for the paper's first phase, with site selection considering all
locations legal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..errors import NonCompliantQueryError, OptimizerError
from ..plan import Field, LogicalPlan, LogicalScan
from .cost import CostModel
from .explore import ExploreStats, explore
from .memo import Memo, MExpr
from .normalize import normalize
from .rules.aggregates import AggregateJoinTranspose
from .rules.unions import AggregateUnionTranspose
from .rules.base import TransformationRule
from .rules.joins import JoinAssociate, JoinCommute
from .traits import TraitGrants

#: Safety cap on Pareto entries kept per group (highest-cost dropped).
MAX_ENTRIES_PER_GROUP = 32


@dataclass
class TraitEntry:
    """One Pareto entry of a group: a concrete alternative with its derived
    traits and cumulative phase-1 cost."""

    execution: frozenset[str]
    shipping: frozenset[str]
    cost: float
    rows: float
    mexpr: MExpr
    children: tuple["TraitEntry", ...]


@dataclass
class AnnotatedNode:
    """A node of the annotated plan handed to the site selector."""

    op: LogicalPlan  # shallow operator (children are GroupRefs)
    children: tuple["AnnotatedNode", ...]
    execution_trait: frozenset[str]
    shipping_trait: frozenset[str]
    rows: float

    @property
    def fields(self) -> tuple[Field, ...]:
        return self.op.fields

    @property
    def row_width(self) -> int:
        return self.op.row_width

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class AnnotateResult:
    root: AnnotatedNode
    #: The explored memo; ``None`` on a result served from the plan cache
    #: (entries keep the counts below, not the memo).
    memo: Memo | None
    explore_stats: ExploreStats
    group_count: int
    expression_count: int
    phase1_cost: float


def default_rules(allow_cross_products: bool = False) -> list[TransformationRule]:
    return [
        JoinCommute(),
        JoinAssociate(allow_cross_products=allow_cross_products),
        AggregateJoinTranspose(),
        AggregateUnionTranspose(),
    ]


class PlanAnnotator:
    """Phase 1: produce the cheapest annotated plan (or reject).

    ``trait_grants`` is ``None`` for the traditional baseline.
    """

    def __init__(
        self,
        cost_model: CostModel,
        evaluator,  # PolicyEvaluator | None — None selects traditional mode
        all_locations: frozenset[str],
        rules: list[TransformationRule] | None = None,
        max_expressions: int = 50_000,
        catalog=None,  # Catalog | None — enables replica-aware AR1
        max_staleness: float | None = None,
    ) -> None:
        self.cost_model = cost_model
        self.evaluator = evaluator
        self.all_locations = all_locations
        self.rules = rules if rules is not None else default_rules()
        self.max_expressions = max_expressions
        self.catalog = catalog
        self.max_staleness = max_staleness
        if catalog is not None and evaluator is not None:
            from ..policy.replicas import ReplicaResolver

            self._replica_resolver = ReplicaResolver(catalog, evaluator)
        else:
            self._replica_resolver = None

    @property
    def compliant_mode(self) -> bool:
        return self.evaluator is not None

    def annotate(
        self,
        plan: LogicalPlan,
        result_location: str | None = None,
        pre_normalized: bool = False,
    ) -> AnnotateResult:
        if not pre_normalized:
            plan = normalize(plan)
        try:
            memo = Memo(max_expressions=self.max_expressions)
            root_group = memo.register_plan(plan)
            stats = explore(memo, self.rules)
            # Group ids are memo-local, so the AR4 grant cache must be
            # rebuilt for every optimization.
            trait_grants = (
                TraitGrants(self.evaluator, memo)
                if self.evaluator is not None
                else None
            )
            tables = self._extract(memo, root_group, trait_grants)
        finally:
            # Row estimates are keyed by the identity of this memo's
            # representatives: of no use to the next optimization.
            self.cost_model.forget_estimates()
        entries = tables.get(root_group, [])
        best = self._choose_root_entry(entries, result_location)
        if best is None:
            raise NonCompliantQueryError(
                "no compliant execution plan exists in the explored plan "
                "space for this query under the registered dataflow policies"
            )
        root = _materialize(best)
        return AnnotateResult(
            root=root,
            memo=memo,
            explore_stats=stats,
            group_count=memo.group_count,
            expression_count=memo.expression_count,
            phase1_cost=best.cost,
        )

    # -- extraction -----------------------------------------------------------

    def _extract(
        self, memo: Memo, root_group: int, trait_grants: TraitGrants | None
    ) -> dict[int, list[TraitEntry]]:
        order = _topological_groups(memo, root_group)
        tables: dict[int, list[TraitEntry]] = {}
        for group_id in order:
            group = memo.group(group_id)
            assert group.representative is not None
            group_rows = self.cost_model.estimate_rows(group.representative)
            grant: frozenset[str] = frozenset()
            if trait_grants is not None:
                grant = trait_grants.shipping_grant(group)
            entries: list[TraitEntry] = []
            for mexpr in group.exprs:
                child_ids = mexpr.child_groups
                child_tables = [tables.get(cid, []) for cid in child_ids]
                if any(not t for t in child_tables):
                    continue
                for combo in itertools.product(*child_tables):
                    entry = self._make_entry(mexpr, combo, group_rows, grant)
                    if entry is not None:
                        _add_pareto(entries, entry, self.compliant_mode)
            tables[group_id] = entries
        return tables

    def _make_entry(
        self,
        mexpr: MExpr,
        combo: tuple[TraitEntry, ...],
        group_rows: float,
        grant: frozenset[str],
    ) -> TraitEntry | None:
        plan = mexpr.plan
        if isinstance(plan, LogicalScan):
            # AR1 — and plain physics in the baseline too: a tablescan can
            # only run where its table is stored — extended to sites that
            # hold a *compliant* replica of the fragment (reading there is
            # policy-equivalent to shipping the table there, so ℰ may
            # legally include them; 𝒮 = ℰ ∪ grant does not widen because
            # compliant replica sites are already in the grant).
            execution = frozenset([plan.location]) | self._replica_sites(plan)
        elif self.compliant_mode:
            execution = self.all_locations
            for child in combo:  # AR2
                execution = execution & child.shipping
            if not execution:
                return None  # infinite cost (compliance-adapted cost fn)
        else:
            execution = self.all_locations
        if self.compliant_mode:
            shipping = execution | grant  # AR3 + AR4
        else:
            shipping = self.all_locations
        child_rows = tuple(c.rows for c in combo)
        own_cost = self.cost_model.operator_cost(plan, child_rows, group_rows)
        total = own_cost + sum(c.cost for c in combo)
        return TraitEntry(
            execution=execution,
            shipping=shipping,
            cost=total,
            rows=group_rows,
            mexpr=mexpr,
            children=combo,
        )

    def _replica_sites(self, scan: LogicalScan) -> frozenset[str]:
        """Alternate sites the scan may read: compliant replicas in
        compliant mode, every declared replica in the baseline — both
        filtered by the annotator's staleness requirement."""
        if self._replica_resolver is not None:
            return self._replica_resolver.compliant_sites(
                scan.database, scan.table, self.max_staleness
            )
        if self.catalog is not None:
            return self.catalog.replica_sites(
                scan.database, scan.table, self.max_staleness
            )
        return frozenset()

    def _choose_root_entry(
        self, entries: list[TraitEntry], result_location: str | None
    ) -> TraitEntry | None:
        candidates = entries
        if result_location is not None and self.compliant_mode:
            candidates = [e for e in entries if result_location in e.shipping]
        if not candidates:
            return None
        return min(candidates, key=lambda e: e.cost)


def _topological_groups(memo: Memo, root_group: int) -> list[int]:
    """Child-first ordering of groups reachable from the root."""
    order: list[int] = []
    state: dict[int, int] = {}  # 0 = visiting, 1 = done

    def visit(group_id: int) -> None:
        status = state.get(group_id)
        if status == 1:
            return
        if status == 0:
            raise OptimizerError("cycle detected in memo groups")
        state[group_id] = 0
        for mexpr in memo.group(group_id).exprs:
            for child in mexpr.child_groups:
                visit(child)
        state[group_id] = 1
        order.append(group_id)

    visit(root_group)
    return order


def _add_pareto(entries: list[TraitEntry], new: TraitEntry, compliant: bool) -> None:
    if not compliant:
        # Traditional mode: single cheapest alternative per group.
        if not entries:
            entries.append(new)
        elif new.cost < entries[0].cost:
            entries[0] = new
        return
    for existing in entries:
        if (
            existing.execution >= new.execution
            and existing.shipping >= new.shipping
            and existing.cost <= new.cost
        ):
            return  # dominated
    entries[:] = [
        e
        for e in entries
        if not (
            new.execution >= e.execution
            and new.shipping >= e.shipping
            and new.cost <= e.cost
        )
    ]
    entries.append(new)
    if len(entries) > MAX_ENTRIES_PER_GROUP:
        entries.sort(key=lambda e: e.cost)
        del entries[MAX_ENTRIES_PER_GROUP:]


def _materialize(entry: TraitEntry) -> AnnotatedNode:
    children = tuple(_materialize(c) for c in entry.children)
    return AnnotatedNode(
        op=entry.mexpr.plan,
        children=children,
        execution_trait=entry.execution,
        shipping_trait=entry.shipping,
        rows=entry.rows,
    )
