"""Policy catalog: stores policy expressions per (database, table).

Mirrors the paper's architecture (Fig. 2): data officers register policy
expressions offline; the optimizer's policy evaluator reads them at
query-optimization time.

Hot reload
----------
Policies can change while the system serves queries: :meth:`add`,
:meth:`remove`, and :meth:`replace` mutate the catalog in place.  The
catalog therefore keeps

* a monotone :attr:`version` counter, bumped on every mutation,
* a stable integer id (*pid*) per registered expression
  (:meth:`id_of`), and
* a change log of *invalidating* mutations — removals and replacements.

:meth:`changed_since` answers "which policies were removed or replaced
after version ``v``?", which is what the plan cache needs to decide
whether a cached derivation is stale.  Additions are deliberately *not*
logged as invalidating: Algorithm 1 unions grants over expressions, so
adding a policy only ever widens permitted-location sets — a plan that
was compliant before the add stays compliant after it (it may merely be
no longer cost-optimal).  See docs/OPTIMIZER.md, "Plan cache & prepared
queries".
"""

from __future__ import annotations

from collections import defaultdict

from ..catalog import Catalog
from ..errors import ReproError
from ..expr import BaseColumn
from .language import PolicyExpression
from .parser import parse_policy


class PolicyCatalog:
    """All registered dataflow policies of the geo-distributed system."""

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._by_table: dict[tuple[str, str], list[PolicyExpression]] = defaultdict(list)
        self._count = 0
        #: Monotone catalog version: bumped on add/remove/replace.
        self._version = 0
        self._next_pid = 1
        #: pid -> expression for every currently registered expression.
        self._by_pid: dict[int, PolicyExpression] = {}
        #: object identity -> pid (expressions are compared by identity
        #: everywhere in this module, matching ``_by_table`` dedup).
        self._pid_of: dict[int, int] = {}
        #: (version, pid) per invalidating mutation (remove/replace).
        self._change_log: list[tuple[int, int]] = []
        #: (schema catalog version, its locations) — see all_locations.
        self._locations: tuple[int, frozenset[str]] | None = None

    def add(self, expression: PolicyExpression) -> PolicyExpression:
        for table in expression.tables:
            self._by_table[(expression.database, table)].append(expression)
        self._count += 1
        self._version += 1
        pid = self._next_pid
        self._next_pid += 1
        self._by_pid[pid] = expression
        self._pid_of[id(expression)] = pid
        return expression

    def remove(self, expression: PolicyExpression | int) -> PolicyExpression:
        """Unregister one expression (by object or pid); bumps the
        version and records the pid in the invalidation change log."""
        if isinstance(expression, int):
            pid = expression
            target = self._by_pid.get(pid)
        else:
            target = expression
            pid = self._pid_of.get(id(expression), 0)
        if target is None or pid not in self._by_pid:
            raise ReproError("cannot remove a policy expression that is not registered")
        for table in target.tables:
            bucket = self._by_table.get((target.database, table), [])
            for i, e in enumerate(bucket):
                if e is target:
                    del bucket[i]
                    break
        self._count -= 1
        self._version += 1
        del self._by_pid[pid]
        del self._pid_of[id(target)]
        self._change_log.append((self._version, pid))
        return target

    def replace(
        self, old: PolicyExpression | int, new: PolicyExpression
    ) -> PolicyExpression:
        """Atomically swap ``old`` for ``new``; the old pid is logged as
        changed (derivations that read it are stale), the new expression
        gets a fresh pid."""
        self.remove(old)
        return self.add(new)

    @property
    def version(self) -> int:
        """Monotone catalog version (0 for an empty, untouched catalog)."""
        return self._version

    def id_of(self, expression: PolicyExpression) -> int | None:
        """Stable pid of a registered expression (None if unregistered)."""
        return self._pid_of.get(id(expression))

    def changed_since(self, version: int) -> frozenset[int]:
        """Pids removed or replaced by mutations *after* ``version``."""
        return frozenset(pid for v, pid in self._change_log if v > version)

    def add_text(self, text: str, default_database: str | None = None) -> PolicyExpression:
        """Parse one policy expression and register it."""
        return self.add(parse_policy(text, self.catalog, default_database))

    def for_table(self, database: str, table: str) -> list[PolicyExpression]:
        return self._by_table.get((database, table.lower()), [])

    def for_attribute(self, attribute: BaseColumn) -> list[PolicyExpression]:
        """Expressions that mention ``attribute`` in SHIP or GROUP BY."""
        return [
            e
            for e in self.for_table(attribute.database, attribute.table)
            if e.mentions(attribute)
        ]

    @property
    def expressions(self) -> list[PolicyExpression]:
        seen: list[PolicyExpression] = []
        for exprs in self._by_table.values():
            for e in exprs:
                if all(e is not s for s in seen):
                    seen.append(e)
        return seen

    def __len__(self) -> int:
        return self._count

    @property
    def all_locations(self) -> frozenset[str]:
        """All locations of the system (resolves the ``to *`` wildcard);
        rebuilt only when the schema catalog's version moved."""
        version = self.catalog.version
        if self._locations is None or self._locations[0] != version:
            self._locations = (version, frozenset(self.catalog.locations))
        return self._locations[1]
