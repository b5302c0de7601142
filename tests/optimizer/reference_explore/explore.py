"""Memo exploration: apply transformation rules to saturation.

The loop repeatedly applies rules until a full pass adds nothing new (the
memo deduplicates, so re-derivations are free) or the expression budget is
exhausted.  Running to fixpoint rather than a single pass matters because
multi-level rules (join associativity, aggregate-join transpose) inspect
child groups that later rule firings may still grow.

To keep the fixpoint cheap, each (rule, expression) pair records a
snapshot of its child groups' sizes at its last firing and is skipped
while those sizes are unchanged: single-level rules fire exactly once per
expression, and multi-level rules re-fire only when a child group gained
alternatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .memo import Memo, MExpr
from .rules.base import TransformationRule


@dataclass
class ExploreStats:
    passes: int = 0
    rule_firings: int = 0
    expressions_added: int = 0
    budget_exhausted: bool = False


def _snapshot(memo: Memo, mexpr: MExpr) -> tuple[int, ...]:
    return tuple(len(memo.group(g).exprs) for g in mexpr.child_groups)


def explore(memo: Memo, rules: list[TransformationRule]) -> ExploreStats:
    """Explore ``memo`` in place with ``rules`` until fixpoint."""
    stats = ExploreStats()
    fired: dict[tuple[int, int], tuple[int, ...]] = {}
    changed = True
    while changed and not memo.budget_exhausted:
        changed = False
        stats.passes += 1
        for group in list(memo.groups):
            for mexpr in list(group.exprs):
                snapshot = _snapshot(memo, mexpr)
                for rule_index, rule in enumerate(rules):
                    key = (rule_index, id(mexpr))
                    if fired.get(key) == snapshot:
                        continue
                    fired[key] = snapshot
                    stats.rule_firings += 1
                    for new_plan in rule.apply(mexpr, memo):
                        added = memo.add_expression(group.group_id, new_plan)
                        if added is not None:
                            stats.expressions_added += 1
                            changed = True
                    if memo.budget_exhausted:
                        break
                if memo.budget_exhausted:
                    break
            if memo.budget_exhausted:
                break
    stats.budget_exhausted = memo.budget_exhausted
    return stats
