"""Memo exploration: apply transformation rules to saturation.

The loop makes passes over every group and expression (in creation
order) until a full pass adds nothing new or the expression budget is
exhausted.  Running to fixpoint rather than a single pass matters because
multi-level rules (join associativity, the aggregate transposes) look
into a child group that later rule firings may still grow.

Inspected group + consumed count
--------------------------------
The work of a pass is proportional to what is *new*.  An expression is
*visited* once, in the first pass that finds it, by every rule whose
root operator matches:

* a single-level rule (it reads the expression alone) fires, and is done
  with the expression for good;
* a multi-level rule declares the one child group it inspects.  It fires
  on the group's present members and leaves a *watch* recording how many
  members it has consumed; in later passes the watch fires only when the
  group holds more, and hands the rule just the members gained since —
  never the whole group again.  If the group's root operator is not what
  the rule matches there is no watch at all.

A later pass therefore costs one length comparison per watch, plus the
visits of the expressions added since; an expression no multi-level rule
applies to costs nothing once visited.

This visits exactly the alternatives a loop that re-applies every rule
to the whole inspected group would find, in the same order — the memo's
group ids, each group's expression order and every representative are
unchanged (``tests/optimizer/test_explore_differential.py`` holds it to
the previous explorer, kept under ``tests/optimizer/reference_explore``):

* what a rule derives from an (expression, member) pair is a function of
  the pair: beyond the two operators it reads only facts fixed at group
  creation — the fields of the groups involved and whether a group is
  aggregate-rooted.  The latter is fixed because a group's members all
  share the root operator of its first expression: members are added by
  rules only, and every rule keeps the root.  Re-deriving an old pair
  can thus only offer the memo an expression it has seen.
* offering the memo a known expression changes nothing (its children
  are known groups, or its key would be new), so skipping it is
  invisible.
* the members gained since the last firing are a suffix of the group's
  list, so handing them over in list order reproduces the order in which
  the re-applying loop met its first *new* results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .memo import Group, Memo, MExpr
from .rules.base import TransformationRule


@dataclass
class ExploreStats:
    passes: int = 0
    rule_firings: int = 0
    expressions_added: int = 0
    budget_exhausted: bool = False


class _Watch:
    """A multi-level rule owed further firings on one expression."""

    __slots__ = ("rule", "mexpr", "inspected", "consumed")

    def __init__(self, rule: TransformationRule, mexpr: MExpr, inspected: Group) -> None:
        self.rule = rule
        self.mexpr = mexpr
        self.inspected = inspected
        #: Members of ``inspected`` the rule has been handed so far.
        self.consumed = 0


class _Explorer:
    """State of one :func:`explore` call (nothing outlives it)."""

    def __init__(self, memo: Memo, rules: list[TransformationRule]) -> None:
        self.memo = memo
        self.rules = rules
        self.stats = ExploreStats()
        #: Per group id: how many of its expressions have had their first
        #: visit (always a prefix), and the watches of those, in
        #: (expression, rule) order.
        self.visited: list[int] = []
        self.watches: list[list[_Watch]] = []
        #: Root operator type -> the rules that fire on it, in rule order.
        self._rules_for: dict[type, list[TransformationRule]] = {}

    def run_pass(self) -> bool:
        """One pass over the groups and expressions present when their
        turn comes; true when it added an expression."""
        memo = self.memo
        self.stats.passes += 1
        changed = False
        groups = list(memo.groups)
        for _ in range(len(groups) - len(self.visited)):
            self.visited.append(0)
            self.watches.append([])
        for group in groups:
            group_id = group.group_id
            fresh = group.exprs[self.visited[group_id]:]
            self.visited[group_id] += len(fresh)
            for watch in self.watches[group_id]:
                if len(watch.inspected.exprs) != watch.consumed:
                    changed |= self._advance(watch)
                    if memo.budget_exhausted:
                        return changed
            for mexpr in fresh:
                for rule in self._matching_rules(type(mexpr.plan)):
                    if rule.inner is None:
                        changed |= self._fire(rule, mexpr, ())
                    else:
                        inspected = memo.group(rule.inspects(mexpr))
                        if not issubclass(inspected.root_type, rule.inner):
                            continue
                        watch = _Watch(rule, mexpr, inspected)
                        self.watches[group_id].append(watch)
                        changed |= self._advance(watch)
                    if memo.budget_exhausted:
                        return changed
        return changed

    def _advance(self, watch: _Watch) -> bool:
        """Hand the watching rule what its inspected group gained."""
        members = watch.inspected.exprs
        gained = members[watch.consumed:]
        watch.consumed = len(members)
        return self._fire(watch.rule, watch.mexpr, gained)

    def _matching_rules(self, root: type) -> list[TransformationRule]:
        matching = self._rules_for.get(root)
        if matching is None:
            matching = self._rules_for[root] = [
                rule for rule in self.rules if issubclass(root, rule.root)
            ]
        return matching

    def _fire(
        self, rule: TransformationRule, mexpr: MExpr, gained: Sequence[MExpr]
    ) -> bool:
        self.stats.rule_firings += 1
        added = 0
        for new_plan in rule.apply(mexpr, self.memo, gained):
            if self.memo.add_expression(mexpr.group_id, new_plan) is not None:
                added += 1
        self.stats.expressions_added += added
        return added > 0


def explore(memo: Memo, rules: list[TransformationRule]) -> ExploreStats:
    """Explore ``memo`` in place with ``rules`` until fixpoint."""
    explorer = _Explorer(memo, rules)
    while not memo.budget_exhausted and explorer.run_pass():
        pass
    explorer.stats.budget_exhausted = memo.budget_exhausted
    return explorer.stats
