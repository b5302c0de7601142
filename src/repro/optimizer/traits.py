"""Execution and shipping traits (paper §6.1).

An *execution trait* ℰ_n is the set of locations where operator node *n*
can legally execute; a *shipping trait* 𝒮_n is the set of locations its
output can legally be shipped to.  The four annotation rules:

* **AR1** — a tablescan's execution trait is its table's source location.
* **AR2** — a node can execute wherever *all* of its inputs may legally be
  shipped: ``ℰ_n = ⋂_{c ∈ in(n)} 𝒮_c``.
* **AR3** — output can always be shipped where the node can execute:
  ``𝒮_n ⊇ ℰ_n``.
* **AR4** — for a subplan that is a *local query* over a single database
  ``D``, the policy evaluation 𝒜(Q_n, D, P_D) contributes to 𝒮_n.

AR4 is a property of the subquery's *semantics*, so it is computed once
per memo group (all alternatives in a group produce the same result).
The local-query description 𝒜 reads is derived bottom-up, one
:func:`~repro.policy.summarize` step per group from the group's first
expression and the summaries of its child groups — which describes the
group's representative without walking it.  Both tables live in this
object and die with the optimization that built the memo.  AR1–AR3
depend on the concrete alternative and are applied during extraction
(:mod:`repro.optimizer.annotator`).
"""

from __future__ import annotations

from ..policy import PolicyEvaluator, SubplanSummary, summarize
from .memo import Group, Memo


class TraitGrants:
    """Computes the AR4 shipping-trait contribution of one memo's groups."""

    def __init__(self, evaluator: PolicyEvaluator, memo: Memo) -> None:
        self.evaluator = evaluator
        self.memo = memo
        self._grants: dict[int, frozenset[str]] = {}
        self._summaries: dict[int, SubplanSummary] = {}

    def shipping_grant(self, group: Group) -> frozenset[str]:
        """Locations 𝒜 grants to this group's output (∅ for non-local
        subplans — cross-database subqueries get shipping traits only via
        AR3)."""
        grant = self._grants.get(group.group_id)
        if grant is None:
            local_query = self._summary(group).local_query()
            grant = (
                frozenset()
                if local_query is None
                else self.evaluator.evaluate(local_query)
            )
            self._grants[group.group_id] = grant
        return grant

    def _summary(self, group: Group) -> SubplanSummary:
        summary = self._summaries.get(group.group_id)
        if summary is None:
            first = group.exprs[0]
            summary = summarize(
                first.plan,
                [self._summary(self.memo.group(g)) for g in first.child_groups],
            )
            self._summaries[group.group_id] = summary
        return summary
