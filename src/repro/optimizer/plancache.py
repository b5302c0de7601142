"""Compliant plan cache with prepared-query parameterization.

Repeated workloads are dominated by *query templates*: the same shape
re-submitted with different constants.  The plan cache lets the second
and later submissions of a template skip both optimizer phases (Volcano
annotation and compliant site selection) entirely:

1. :func:`prepare_query` normalizes the *free* constants out of the
   bound logical plan, producing a hashable **shape** (the plan with
   each free literal replaced by a typed ``$p<i>`` marker), a
   **parameter signature** (the marker dtypes, in order), and the
   concrete **bindings**;
2. the cache is keyed by ``(shape, signature, result_location)`` and
   stores the fully annotated + located physical plan of the first
   submission together with its bindings;
3. a hit deep-rebuilds the cached physical plan with the new bindings
   substituted for the old (:meth:`PlanCache.rebind`) — prepared-
   statement semantics: the cached plan was *optimized* for the first
   binding and is *reused* (compliant, possibly not cost-optimal) for
   later ones.

Soundness of parameterization
-----------------------------
Compliance derivations (trait annotation — AR4 — and the independent
validator) depend on query predicates only through the implication test
``P_q ⇒ P_e`` of :mod:`repro.expr.implication`.  A constant is
classified **free** (parameterizable) only when changing its value can
provably not change any implication verdict nor the plan's compliance:

* it is the literal side of a *simple atom* — ``Comparison(col, lit)``
  (either orientation, at any And/Or/Not depth) or an ``InList(col,
  ...)`` value — whose column carries base-table provenance;
* the column's key is **not mentioned** by the predicate of any policy
  expression registered for any table the plan scans (so no consulted
  policy predicate constrains that key; atoms on keys absent from the
  policy side never influence entailment);
* the key has **exactly one** predicate use in the whole plan (so the
  atom can join no same-key interaction — range intersection,
  not-equal/exact-value conflicts, or conjunct unsatisfiability — whose
  outcome is value-dependent; a single range/in-set/not-equal atom is
  satisfiable for every value);
* its ``(dtype, value)`` pair is **globally unique** among the plan's
  literals (so rebinding-by-value is injective).

Everything else — literals inside opaque atoms (arithmetic, function
calls, column-column comparisons, bare booleans), literals on
policy-relevant or multiply-constrained keys, provenance-free columns
(e.g. UNION outputs and ``$agg`` HAVING references, whose keys could
alias policy columns after pushdown), and projection/aggregate-argument
constants (which normalization may substitute into predicates) — is
*pinned*: it stays inline in the shape, so queries differing in such a
constant simply occupy distinct cache entries.  Pinning is always
sound; freeing is the proven-safe optimization.

Hot reload and invalidation
---------------------------
Every entry records the policy-catalog :attr:`~repro.policy.catalog.
PolicyCatalog.version` it was derived at plus its *dependency set*: the
pids of every policy expression the derivation scanned (collected via
:meth:`~repro.policy.evaluator.PolicyEvaluator.collecting_dependencies`
around annotation, site selection, and store-time validation).  A
lookup revalidates the entry against the catalog's change log:

* **removals/replacements** of a policy in the dependency set
  invalidate the entry (its permitted-location derivation read a policy
  that no longer holds);
* changes to policies the derivation never read leave the entry intact
  (*precision* — a reload does not flush unrelated templates);
* **additions** never invalidate: Algorithm 1 unions grants over
  expressions, so new policies only widen permitted-location sets — a
  cached plan stays compliant (it may stop being cost-optimal until it
  ages out).

Rejections (:class:`~repro.errors.NonCompliantQueryError`) are not
cached: a rejected template pays full optimization on every submission.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from dataclasses import dataclass, replace as dc_replace
from typing import Hashable

from ..datatypes import DataType
from ..expr import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    rewrite,
    walk,
)
from ..expr.predicates import column_key
from ..plan import LogicalPlan, LogicalScan, PhysicalPlan, copy_plan, map_field
from ..policy import PolicyCatalog, PolicyEvaluator


@dataclass(frozen=True)
class _Param:
    """Marker value standing in for the ``index``-th free constant."""

    index: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"$p{self.index}"


@dataclass(frozen=True)
class PreparedQuery:
    """One parameterized query: shape + signature + concrete bindings."""

    shape: LogicalPlan
    signature: tuple[DataType, ...]
    bindings: tuple[Literal, ...]

    def key(
        self, result_location: str | None, variant: Hashable = None
    ) -> Hashable:
        """``variant`` separates entries optimized under different
        replica-visibility settings (e.g. ``max_staleness``): a plan
        located with lax staleness may read a replica a strict query
        must not."""
        return (self.shape, self.signature, result_location, variant)


@dataclass
class PlanCacheStats:
    """Hit/miss/invalidation counters of one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Entries dropped at lookup because a policy in their dependency
    #: set was removed or replaced after they were derived.
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "PlanCacheStats":
        return dc_replace(self)

    def summary(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.stores} stores, "
            f"{self.invalidations} invalidations, {self.evictions} evictions"
        )


@dataclass
class CacheEntry:
    """One cached template: the located physical plan plus everything
    needed to rebind, revalidate, and re-emit trace events."""

    plan: PhysicalPlan
    bindings: tuple[Literal, ...]
    normalized: LogicalPlan
    #: AnnotateResult (typed loosely to avoid a cycle) *without its
    #: memo*: a cached template is read for its annotated root and its
    #: counts only, and one memo per cached shape is the bulk of a warm
    #: optimizer's heap.
    annotate: object
    selection: object  # SiteSelection
    #: Pids of every policy expression the derivation scanned.
    dependencies: frozenset[int]
    #: Catalog version the entry is known valid at (refreshed on every
    #: successful revalidation, keeping changed_since windows short).
    version: int
    #: Schema-catalog (replica-set) version the plan was located at.  A
    #: located plan pins each scan to one concrete site, so *any*
    #: replica add/drop invalidates: a drop may orphan a pinned replica,
    #: an add may make the pinned choice non-optimal.
    catalog_version: int = 0
    #: Whether the stored template passed the independent compliance
    #: validator at insert time.  Free constants cannot change
    #: compliance (see module docstring), so the verdict transfers to
    #: every rebinding — executors may skip their per-run guard.
    validated: bool = False


class PlanCache:
    """LRU cache of optimized plans keyed by (shape, signature,
    result location), with versioned policy hot-reload invalidation."""

    def __init__(
        self,
        policies: PolicyCatalog,
        evaluator: PolicyEvaluator | None = None,
        capacity: int = 256,
    ) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.policies = policies
        #: Validates templates at insert time (store-time defense in
        #: depth); ``None`` disables validation (entries are then never
        #: marked ``validated`` and executors keep their own guard).
        self.evaluator = evaluator
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._entries: OrderedDict[Hashable, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # -- parameterization -------------------------------------------------------

    def prepare(self, plan: LogicalPlan) -> PreparedQuery:
        return prepare_query(plan, self.policies)

    # -- lookup / store ---------------------------------------------------------

    def lookup(
        self,
        prepared: PreparedQuery,
        result_location: str | None = None,
        variant: Hashable = None,
    ) -> CacheEntry | None:
        """Return the valid entry for ``prepared``, or ``None`` (miss).
        Stale entries (a dependency was removed/replaced, or the
        replica set changed under the located plan) are dropped here and
        counted as invalidations."""
        key = prepared.key(result_location, variant)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.catalog_version != self.policies.catalog.version:
            # Replica set changed: the cached plan may pin a scan to a
            # dropped replica, or miss a cheaper new one.
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        changed = self.policies.changed_since(entry.version)
        if changed & entry.dependencies:
            del self._entries[key]
            self.stats.invalidations += 1
            self.stats.misses += 1
            return None
        # Nothing the derivation read changed in (entry.version, now]:
        # the entry is valid at the current version too.
        entry.version = self.policies.version
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def store(
        self,
        prepared: PreparedQuery,
        result_location: str | None,
        *,
        plan: PhysicalPlan,
        normalized: LogicalPlan,
        annotate: object,
        selection: object,
        dependencies: set[int] | frozenset[int],
        variant: Hashable = None,
    ) -> CacheEntry:
        validated = False
        if self.evaluator is not None:
            from .validator import check_compliance

            validated = not check_compliance(plan, self.evaluator)
        entry = CacheEntry(
            plan=plan,
            bindings=prepared.bindings,
            normalized=normalized,
            annotate=dc_replace(annotate, memo=None),  # type: ignore[type-var]
            selection=selection,
            dependencies=frozenset(dependencies),
            version=self.policies.version,
            catalog_version=self.policies.catalog.version,
            validated=validated,
        )
        key = prepared.key(result_location, variant)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()

    # -- rebinding --------------------------------------------------------------

    def rebind(self, entry: CacheEntry, prepared: PreparedQuery) -> PhysicalPlan:
        """Deep-rebuild the cached physical plan with ``prepared``'s
        bindings substituted for the entry's.  Always returns a fresh
        tree — executors and the recovery layer may mutate plans, and
        the cached template must never be aliased by a running query."""
        mapping: dict[tuple[DataType, object], Literal] = {}
        for old, new in zip(entry.bindings, prepared.bindings):
            if old.value != new.value:
                mapping[(old.dtype, old.value)] = new

        def rebind(node: Expression) -> Expression | None:
            if isinstance(node, Literal):
                return mapping.get((node.dtype, node.value))
            return None

        return copy_plan(
            entry.plan, (lambda e: rewrite(e, rebind)) if mapping else None
        )


# -- parameterization internals -------------------------------------------------


def prepare_query(plan: LogicalPlan, policies: PolicyCatalog) -> PreparedQuery:
    """Classify the plan's constants (see module docstring) and replace
    each free one with a typed marker, in deterministic walk order."""
    sensitive = _sensitive_keys(plan, policies)
    key_uses: Counter = Counter()
    atoms: list[tuple[Hashable, tuple[Literal, ...]]] = []
    census: Counter = Counter()
    for expr, is_predicate in _plan_expressions(plan):
        for node in walk(expr):
            if isinstance(node, Literal):
                census[(node.dtype, node.value)] += 1
        if is_predicate:
            _scan_predicate(expr, atoms, key_uses)

    free: set[tuple[DataType, object]] = set()
    for key, literals in atoms:
        if key in sensitive or key_uses[key] != 1:
            continue
        for lit in literals:
            if census[(lit.dtype, lit.value)] == 1:
                free.add((lit.dtype, lit.value))

    bindings: list[Literal] = []

    def parameterize(node: Expression) -> Expression | None:
        if not isinstance(node, Literal) or (node.dtype, node.value) not in free:
            return None
        bindings.append(node)
        return Literal(_Param(len(bindings) - 1), node.dtype)

    shape = _map_plan_expressions(plan, lambda e: rewrite(e, parameterize))
    return PreparedQuery(
        shape=shape,
        signature=tuple(b.dtype for b in bindings),
        bindings=tuple(bindings),
    )


def _sensitive_keys(plan: LogicalPlan, policies: PolicyCatalog) -> set[Hashable]:
    """Column keys mentioned by any predicate of any policy expression
    registered for a table the plan scans — exactly the policy-side
    atoms the implication prover may consult for this plan."""
    keys: set[Hashable] = set()
    seen: set[tuple[str, str]] = set()
    for node in plan.walk():
        if not isinstance(node, LogicalScan):
            continue
        table = (node.database, node.table)
        if table in seen:
            continue
        seen.add(table)
        for expression in policies.for_table(node.database, node.table):
            if expression.predicate is None:
                continue
            for sub in walk(expression.predicate):
                if isinstance(sub, ColumnRef):
                    keys.add(column_key(sub))
    return keys


def _plan_expressions(plan: LogicalPlan):
    """Yield ``(expression, is_predicate)`` for every expression the
    plan carries (see :attr:`LogicalPlan.expr_fields`)."""
    for node in plan.walk():
        for name in node.expr_fields:
            value = getattr(node, name)
            if isinstance(value, tuple):
                for expr in value:
                    yield expr, False
            elif value is not None:
                yield value, True


def _scan_predicate(
    expr: Expression,
    atoms: list[tuple[Hashable, tuple[Literal, ...]]],
    key_uses: Counter,
) -> None:
    """Collect candidate simple atoms and count per-key predicate uses,
    mirroring :func:`repro.expr.predicates._atom_conjunct`'s shapes."""
    if isinstance(expr, (And, Or, Not)):
        for child in expr.children():
            _scan_predicate(child, atoms, key_uses)
        return
    if isinstance(expr, Comparison):
        left, right = expr.left, expr.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            key_uses[column_key(left)] += 1
            if left.base is not None:
                atoms.append((column_key(left), (right,)))
            return
    elif isinstance(expr, InList) and isinstance(expr.operand, ColumnRef):
        key = column_key(expr.operand)
        key_uses[key] += 1
        if expr.operand.base is not None:
            atoms.append((key, expr.values))
        return
    elif isinstance(expr, Like) and isinstance(expr.operand, ColumnRef):
        key_uses[column_key(expr.operand)] += 1
        return
    # Opaque context (column-column comparisons, arithmetic, IS NULL,
    # function calls, bare booleans): count every column use; literals
    # inside stay pinned because no atom is emitted for them.
    for node in walk(expr):
        if isinstance(node, ColumnRef):
            key_uses[column_key(node)] += 1


def _map_plan_expressions(node: LogicalPlan, f) -> LogicalPlan:
    """Rebuild a logical plan applying ``f`` to every carried
    expression, children first (deterministic marker order).  Nodes are
    rebuilt through their constructors, so no derived (cached) state of
    the original carries over."""
    node = node.with_children(
        tuple(_map_plan_expressions(c, f) for c in node.children())
    )
    if not node.expr_fields:
        return node
    return dc_replace(
        node, **{name: map_field(getattr(node, name), f) for name in node.expr_fields}
    )
