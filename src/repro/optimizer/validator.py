"""Independent compliance validation of located physical plans.

Two checkers, both independent of the optimizer's internals (they
recompute everything from the plan, the catalog, and the policies), used
for Theorem-1 property tests and as an executor-side guard:

* :func:`check_compliance` — *content-based* semantics mirroring the
  annotation rules: every SHIP's payload (the result of the subquery
  below it) must be legal at the target, where the legal-destination set
  of a subplan is derived bottom-up exactly like shipping traits
  (⋂ of children's sets, plus 𝒜 for single-database subplans).
* :func:`check_compliance_strict` — the literal Definition 1 of the
  paper: for every operator ``o``, every maximal single-database,
  single-location subtree ``o'`` strictly below it that crosses a border
  must satisfy ``l_o ∈ 𝒜(Q_{o'})``.  Strict implies content-based
  compliance for the plans our optimizer emits (masking happens at the
  data's home site); the content-based form is the primary check because
  Definition 1 leaves masking-at-a-foreign-site formally undefined (see
  DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CatalogError, ComplianceViolationError
from ..expr import conjunction
from ..plan import (
    Filter,
    HashAggregate,
    HashJoin,
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalPlan,
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
from ..policy import PolicyEvaluator, SubplanSummary, summarize, summarize_plan


@dataclass
class Violation:
    """One detected policy violation."""

    node: PhysicalPlan
    message: str

    def __str__(self) -> str:
        return f"{self.node.describe()}: {self.message}"


def to_logical(node: PhysicalPlan) -> LogicalPlan:
    """Reconstruct the logical subquery a physical subtree computes (SHIPs
    are transparent: they move data without changing it)."""
    if isinstance(node, Ship):
        assert node.child is not None
        return to_logical(node.child)
    return _logical_node(node, tuple(to_logical(c) for c in node.children()))


def _logical_node(
    node: PhysicalPlan, inputs: tuple[LogicalPlan, ...]
) -> LogicalPlan:
    """The logical operator ``node`` (not a SHIP) computes, over the
    already reconstructed logical queries of its inputs."""
    if isinstance(node, TableScan):
        return LogicalScan(
            table=node.table,
            database=node.database,
            location=node.location,
            alias=node.alias,
            scan_fields=node.fields,
        )
    if isinstance(node, Filter):
        assert node.predicate is not None
        return LogicalFilter(inputs[0], node.predicate)
    if isinstance(node, Project):
        return LogicalProject(inputs[0], node.exprs, node.names)
    if isinstance(node, HashJoin):
        conjuncts = [
            _eq(l, r) for l, r in zip(node.left_keys, node.right_keys)
        ]
        if node.residual is not None:
            conjuncts.append(node.residual)
        return LogicalJoin(inputs[0], inputs[1], conjunction(conjuncts))
    if isinstance(node, NestedLoopJoin):
        return LogicalJoin(inputs[0], inputs[1], node.condition)
    if isinstance(node, HashAggregate):
        return LogicalAggregate(
            inputs[0], node.group_keys, node.aggregates, node.agg_names
        )
    if isinstance(node, UnionAll):
        return LogicalUnion(inputs)
    if isinstance(node, Sort):
        return LogicalSort(inputs[0], node.sort_keys, node.limit)
    raise TypeError(f"unknown physical operator {type(node).__name__}")


def _eq(left, right):
    from ..expr import Comparison, ComparisonOp

    return Comparison(ComparisonOp.EQ, left, right)


def _summary_grant(
    evaluator: PolicyEvaluator, summary: SubplanSummary
) -> frozenset[str]:
    """𝒜 of a summarized subplan, or ∅ when it is not a local
    single-database query."""
    local_query = summary.local_query()
    if local_query is None:
        return frozenset()
    return evaluator.evaluate(local_query)


def _grant(evaluator: PolicyEvaluator, logical: LogicalPlan) -> frozenset[str]:
    """𝒜 of a subplan, or ∅ when it is not a local single-database query."""
    return _summary_grant(evaluator, summarize_plan(logical))


# -- content-based check -------------------------------------------------------


def _scan_site_violation(
    node: TableScan, evaluator: PolicyEvaluator
) -> Violation | None:
    """Is the scan's site a legal *source* for its fragment?

    The primary location is always legal; any other site must hold a
    registered replica whose site is in 𝒜 of the bare full-table scan
    (the replica-compliance rule — reading there is policy-equivalent to
    shipping the whole table there).  Staleness is deliberately not
    checked: it is an optimizer-level freshness preference, not a policy
    property, so failover may use any *compliant* replica."""
    from ..policy.replicas import ReplicaResolver

    catalog = evaluator.policies.catalog
    try:
        stored = catalog.stored_table(node.database, node.table)
    except CatalogError:
        return None  # unknown fragment: nothing to validate against
    if node.location == stored.location:
        return None
    replica_sites = catalog.replica_sites(node.database, node.table)
    if node.location not in replica_sites:
        return Violation(
            node,
            f"scans {node.database}.{node.table} at {node.location!r} but "
            f"the table lives at {stored.location!r} and has no replica "
            f"there",
        )
    resolver = ReplicaResolver(catalog, evaluator)
    if node.location not in resolver.full_scan_grant(node.database, node.table):
        return Violation(
            node,
            f"reads the replica of {node.database}.{node.table} at "
            f"{node.location!r}, which the dataflow policies do not admit "
            f"as a destination for the table",
        )
    return None


def check_compliance(
    plan: PhysicalPlan, evaluator: PolicyEvaluator
) -> list[Violation]:
    """Content-based compliance check; empty result means compliant.

    One bottom-up pass over the *physical* plan derives, per node, the
    logical query it computes, that query's local-query summary and its
    legal destinations — each from the node and its inputs' results, so
    the check is linear in the plan.  Nothing is read from the
    optimizer's memo, traits or grants."""
    violations: list[Violation] = []
    all_locations = evaluator.policies.all_locations

    def derive(
        node: PhysicalPlan,
    ) -> tuple[frozenset[str], LogicalPlan, SubplanSummary]:
        """(legal destinations, logical query, summary) of ``node``."""
        if isinstance(node, Ship):
            assert node.child is not None
            derived = derive(node.child)
            allowed = derived[0]
            if node.target != node.source and node.target not in allowed:
                violations.append(
                    Violation(
                        node,
                        f"ships data legal only for {sorted(allowed)} to "
                        f"{node.target!r}",
                    )
                )
            return derived
        inputs = [derive(child) for child in node.children()]
        if isinstance(node, TableScan):
            # The scan's output is available at its own site; whether
            # that site was a legal *source* (primary or compliant
            # replica) is checked separately.
            violation = _scan_site_violation(node, evaluator)
            if violation is not None:
                violations.append(violation)
            executable = frozenset([node.location])
        else:
            executable = all_locations
            for legal, _logical, _summary in inputs:
                executable = executable & legal
            if node.location not in executable:
                violations.append(
                    Violation(
                        node,
                        f"executes at {node.location!r} but inputs are only "
                        f"legal at {sorted(executable)}",
                    )
                )
        logical = _logical_node(node, tuple(i[1] for i in inputs))
        summary = summarize(logical, [i[2] for i in inputs])
        return executable | _summary_grant(evaluator, summary), logical, summary

    derive(plan)
    return violations


def is_compliant(plan: PhysicalPlan, evaluator: PolicyEvaluator) -> bool:
    return not check_compliance(plan, evaluator)


def guarded_plan(
    source: "PhysicalPlan | object", evaluator: PolicyEvaluator | None, action: str
) -> PhysicalPlan:
    """The runtime guard shared by the engine and the server: the plan
    of ``source`` (a plan, or an :class:`~repro.optimizer.compliant
    .OptimizationResult`), refused with a typed error when ``evaluator``
    finds it non-compliant.  The check is skipped only for a result that
    already passed :func:`check_compliance` under this very evaluator —
    a validation by any *other* evaluator vouches for other policies."""
    plan = source if isinstance(source, PhysicalPlan) else source.plan
    validated = (
        getattr(source, "compliance_validated", False)
        and getattr(source, "validated_by", None) is evaluator
    )
    if evaluator is not None and not validated:
        violations = check_compliance(plan, evaluator)
        if violations:
            details = "; ".join(str(v) for v in violations)
            raise ComplianceViolationError(
                f"refusing to {action} non-compliant plan: {details}"
            )
    return plan


def check_recovery_placement(
    plan: PhysicalPlan, evaluator: PolicyEvaluator
) -> list[Violation]:
    """Re-validate a plan produced by failover re-placement.

    Theorem 1 covers plans the optimizer *emits*; a runtime re-placement
    (moving a failed fragment to a backup site, see
    :mod:`repro.execution.recovery`) is a new plan the optimizer never
    saw, so the execution layer must re-establish the guarantee itself:
    every candidate placement runs through this check and is discarded
    on any violation, keeping the end-to-end invariant "no data is ever
    shipped to a location the dataflow policies forbid" — even during
    recovery.  Both checkers run; strict (Definition 1) violations on a
    plan that passes the content-based check indicate the re-placement
    moved a masking boundary and are treated as failures too.
    """
    violations = check_compliance(plan, evaluator)
    if not violations:
        violations = check_compliance_strict(plan, evaluator)
    return violations


# -- strict (Definition 1) check ----------------------------------------------


def check_compliance_strict(
    plan: PhysicalPlan, evaluator: PolicyEvaluator
) -> list[Violation]:
    """Literal Definition 1: for every operator ``o``, every maximal
    single-database single-location subtree strictly below it whose output
    crosses a border must have ``l_o`` among its legal destinations."""
    violations: list[Violation] = []

    def is_local_uniform(node: PhysicalPlan) -> bool:
        locations = {n.location for n in node.walk() if not isinstance(n, Ship)}
        has_ship = any(isinstance(n, Ship) for n in node.walk())
        logical = to_logical(node)
        return (
            not has_ship
            and len(locations) == 1
            and len(logical.source_databases) == 1
            and not any(isinstance(n, LogicalUnion) for n in logical.walk())
        )

    # Frontier subqueries: children of SHIP operators that are local and
    # uniform; their legal destination sets constrain every ancestor.
    frontier: list[tuple[PhysicalPlan, frozenset[str]]] = []
    for node in plan.walk():
        if isinstance(node, Ship) and node.child is not None:
            if is_local_uniform(node.child):
                grant = _grant(evaluator, to_logical(node.child))
                frontier.append((node.child, grant))

    frontier_ids = {id(n) for n, _ in frontier}
    grants = {id(n): g for n, g in frontier}

    def descend(node: PhysicalPlan) -> list[int]:
        """Returns ids of frontier nodes in the subtree rooted at node."""
        below: list[int] = []
        for child in node.children():
            below.extend(descend(child))
        if id(node) in frontier_ids:
            below.append(id(node))
            return below
        if isinstance(node, Ship):
            # The SHIP itself moves everything below it to its target —
            # the target must be legal for every crossing subquery, which
            # also covers a SHIP at the plan root with no consumer above.
            for frontier_id in below:
                allowed = grants[frontier_id]
                if node.target not in allowed:
                    violations.append(
                        Violation(
                            node,
                            f"ships a cross-border subquery legal only at "
                            f"{sorted(allowed)} to {node.target!r}",
                        )
                    )
            return below
        # Condition c2 for this operator.
        for frontier_id in below:
            allowed = grants[frontier_id]
            if node.location not in allowed:
                violations.append(
                    Violation(
                        node,
                        f"at {node.location!r} consumes data from a "
                        f"cross-border subquery legal only at {sorted(allowed)}",
                    )
                )
        return below

    descend(plan)
    # Condition c1: tablescans must run where their table is stored —
    # the primary location or a registered *compliant* replica site.
    for node in plan.walk():
        if isinstance(node, TableScan):
            violation = _scan_site_violation(node, evaluator)
            if violation is not None:
                violations.append(violation)
    return violations
