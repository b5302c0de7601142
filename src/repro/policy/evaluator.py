"""The policy evaluation algorithm 𝒜 (paper §5, Algorithm 1).

Given a local query ``q`` (described by :class:`LocalQuery`) over database
``D`` with policy expressions ``P``, compute the set of locations the
query's output can legally be shipped to:

1. associate an (initially empty) location set ``L_a`` with every output
   attribute ``a ∈ A_q``;
2. for every expression ``e`` whose ship/group attributes overlap ``A_q``
   and whose predicate is implied by the query predicate
   (``P_q ⇒ P_e``):

   * basic expression → ``L_a ∪= L_e`` for ``a ∈ A_q ∩ A_e`` (this also
     covers aggregate queries — the query output is *more* aggregated
     than what the expression already allows);
   * aggregate expression and aggregate query with ``G_q ⊆ G_e`` →
     grant ``L_e`` to grouping attributes in ``G_e`` and to ship
     attributes whose aggregate functions are all in ``F_e``;

3. return ``⋂_{a ∈ A_q} L_a`` (empty if any attribute got nothing).

The database's *home* location is always legal — data already resides
there — which is how the paper uses 𝒜 in Definition 1 (§3.2 example:
``𝒜(C, D_N, P_N) = {N}``).  Pass ``include_home=False`` to get the bare
policy-derived set (the form used in Table 1 of the paper).
"""

from __future__ import annotations

from collections.abc import Set
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from ..errors import CatalogError
from ..expr import BaseColumn, Expression, implies
from .catalog import PolicyCatalog
from .language import PolicyExpression
from .localquery import LocalQuery


@dataclass
class PolicyEvalStats:
    """Counters for the scalability study (Fig. 7's η value).

    ``eta`` counts how often an expression was *applied* — one or more of
    its ship attributes appear in the query output and the implication
    test passed (Algorithm 1 reaching line 4).

    ``implication_cache_hits`` / ``implication_cache_misses`` split
    ``implication_checks`` by whether the (query predicate, policy
    predicate) pair had already been decided — only misses pay for a
    structural implication proof, so the hit rate is what makes repeated
    evaluation over a large policy set affordable.

    When the evaluator outlives a single optimization, counter windows
    are opened with :meth:`PolicyEvaluator.reset_stats`, which keeps the
    implication cache but re-tags it: a hit on an entry decided in an
    *earlier* window counts as ``implication_cache_warm_hits``, not as
    ``implication_cache_hits``.  Per-window stats therefore stay
    meaningful — ``implication_checks == implication_cache_hits +
    implication_cache_warm_hits + implication_cache_misses`` holds for
    every window, and intra-window amortization is no longer conflated
    with cross-query amortization.
    """

    evaluations: int = 0
    expressions_scanned: int = 0
    implication_checks: int = 0
    implication_passes: int = 0
    implication_cache_hits: int = 0
    implication_cache_misses: int = 0
    #: Hits on cache entries decided before the current stats window.
    implication_cache_warm_hits: int = 0
    eta: int = 0

    def reset(self) -> None:
        self.evaluations = 0
        self.expressions_scanned = 0
        self.implication_checks = 0
        self.implication_passes = 0
        self.implication_cache_hits = 0
        self.implication_cache_misses = 0
        self.implication_cache_warm_hits = 0
        self.eta = 0


class PolicyEvaluator:
    """Evaluates 𝒜(q, D, P) against a :class:`PolicyCatalog`."""

    def __init__(self, policies: PolicyCatalog) -> None:
        self.policies = policies
        self.stats = PolicyEvalStats()
        #: (query predicate, policy predicate) -> (verdict, generation).
        #: The generation tags which stats window decided the entry; see
        #: :meth:`reset_stats`.
        self._implication_cache: dict[
            tuple[Expression | None, Expression | None], tuple[bool, int]
        ] = {}
        self._generation = 0
        #: When set (see :meth:`collecting_dependencies`), the pid of
        #: every policy expression scanned by an evaluation is added
        #: here — the read set of a derivation, used by the plan cache
        #: for precise hot-reload invalidation.
        self._dependency_sink: set[int] | None = None

    # -- public API ----------------------------------------------------------

    def reset_stats(self, clear_implication_cache: bool = False) -> None:
        """Open a fresh stats window.

        The implication cache is *kept* (its verdicts stay valid — they
        are keyed by immutable predicate pairs) but re-tagged: hits on
        entries decided in earlier windows are counted as
        ``implication_cache_warm_hits``.  Pass
        ``clear_implication_cache=True`` to also drop the cache (e.g.
        for a from-scratch measurement)."""
        self.stats.reset()
        if clear_implication_cache:
            self._implication_cache.clear()
        else:
            self._generation += 1

    @contextmanager
    def collecting_dependencies(self, sink: set[int]) -> Iterator[set[int]]:
        """Collect the pids of every policy expression scanned by
        evaluations inside the block into ``sink``."""
        previous = self._dependency_sink
        self._dependency_sink = sink
        try:
            yield sink
        finally:
            self._dependency_sink = previous

    def evaluate(self, query: LocalQuery, include_home: bool = True) -> frozenset[str]:
        """Return the legal shipping destinations of ``query``'s output."""
        self.stats.evaluations += 1
        all_locations = self.policies.all_locations
        home = self._home_location(query.database)
        home_set = frozenset([home]) if (include_home and home) else frozenset()

        attributes = query.output_attributes
        if not attributes:
            # No base attribute is exposed (e.g. COUNT(*) only): grant
            # nothing beyond the home location.  Conservative; see module
            # docstring of localquery.
            return home_set

        #: location -> the attributes of A_q some applied expression lets
        #: travel there (``L_a`` of Algorithm 1, indexed by location).
        reach: dict[str, set[BaseColumn]] = {}
        relevant = self._relevant_expressions(attributes)
        if self._dependency_sink is not None:
            for expression in relevant:
                pid = self.policies.id_of(expression)
                if pid is not None:
                    self._dependency_sink.add(pid)
        for expression in relevant:
            self.stats.expressions_scanned += 1
            if not self._implies(query.predicate, expression.predicate):
                continue
            allowed: Set[BaseColumn] = frozenset()
            if not expression.is_aggregate:
                # Basic expression: covers the raw and any more-aggregated
                # use of its ship attributes (every attribute of A_q has
                # a lineage in the query output).
                allowed = attributes & expression.ship_attributes
            elif query.is_aggregate and query.group_bases <= expression.group_by:
                # An aggregate expression cannot authorize a
                # non-aggregated query, nor one with G_q ⊄ G_e (the empty
                # G_q of a full-column aggregate passes).
                allowed = {
                    attribute
                    for attribute in attributes
                    if self._aggregate_use_allowed(expression, query, attribute)
                }
            if allowed:
                self.stats.eta += 1
                for location in expression.destinations_resolved(all_locations):
                    reach.setdefault(location, set()).update(allowed)

        # ⋂_{a ∈ A_q} L_a: the locations every attribute may travel to.
        everywhere = len(attributes)
        return home_set.union(
            [location for location, able in reach.items() if len(able) == everywhere]
        )

    # -- internals -----------------------------------------------------------

    def _home_location(self, database: str) -> str | None:
        try:
            return self.policies.catalog.database(database).location
        except CatalogError:  # unknown database: no home shortcut
            return None

    def _relevant_expressions(
        self, attributes: frozenset[BaseColumn]
    ) -> list[PolicyExpression]:
        tables = {(a.database, a.table) for a in attributes}
        # A multi-table expression is registered under each of its
        # tables: keep its first occurrence (identity, insertion order).
        seen: dict[int, PolicyExpression] = {}
        for database, table in sorted(tables):
            for expression in self.policies.for_table(database, table):
                seen.setdefault(id(expression), expression)
        return list(seen.values())

    def _implies(
        self, query_predicate: Expression | None, policy_predicate: Expression | None
    ) -> bool:
        self.stats.implication_checks += 1
        key = (query_predicate, policy_predicate)
        entry = self._implication_cache.get(key)
        if entry is None:
            self.stats.implication_cache_misses += 1
            verdict = implies(query_predicate, policy_predicate)
            self._implication_cache[key] = (verdict, self._generation)
        else:
            verdict, generation = entry
            if generation == self._generation:
                self.stats.implication_cache_hits += 1
            else:
                # Decided in an earlier stats window: cross-query
                # amortization.  Re-tag so further hits in this window
                # count as ordinary hits.
                self.stats.implication_cache_warm_hits += 1
                self._implication_cache[key] = (verdict, self._generation)
        if verdict:
            self.stats.implication_passes += 1
        return verdict

    def _aggregate_use_allowed(
        self,
        expression: PolicyExpression,
        query: LocalQuery,
        attribute: BaseColumn,
    ) -> bool:
        """Does the aggregate ``expression`` (with ``G_q ⊆ G_e``) allow
        shipping ``attribute`` ∈ ``A_q`` as it appears in the aggregate
        query's output?  (Algorithm 1 lines 7–10, attribute-wise.)"""
        granted = False
        for lineage in query.lineages_of(attribute):
            if lineage.is_raw:
                # Raw appearance in an aggregate query means the attribute
                # is (part of) a grouping key: allowed when e lists it as a
                # grouping attribute.
                if attribute in expression.group_by:
                    granted = True
                else:
                    return False
            else:
                if (
                    attribute in expression.ship_attributes
                    and lineage.aggs <= expression.agg_functions
                ):
                    granted = True
                elif attribute in expression.group_by and attribute in query.group_bases:
                    # Grouping attribute also folded into an aggregate
                    # elsewhere; the grouping grant suffices for this use.
                    granted = True
                else:
                    return False
        return granted
