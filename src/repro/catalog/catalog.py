"""Geo-distributed catalog: databases, stored tables, and GAV mappings.

The model follows §3 of the paper: the distributed database is a set of
local databases, each tied to one location (``D_l``), and the
geo-distributed *global schema* is the union of all local schemas.  A
global table is either stored whole in one database or horizontally
fragmented across several databases; fragmented tables use simple GAV
mappings (global table = union of fragments), which is how §7.5 distributes
Customer and Orders over locations L1–L5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CatalogError
from .freshness import RefreshSchedule
from .replicas import Replica
from .schema import TableSchema
from .statistics import TableStats, uniform_stats


@dataclass
class Database:
    """One local database, tied to a single location."""

    name: str
    location: str


@dataclass
class StoredTable:
    """One stored table (or table fragment) inside a local database."""

    database: str
    location: str
    schema: TableSchema
    stats: TableStats = field(default_factory=TableStats)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def qualified_name(self) -> str:
        return f"{self.database}.{self.schema.name}"


@dataclass
class GlobalTable:
    """A table of the global schema mapped (GAV) onto stored fragments.

    A non-fragmented table has exactly one fragment.  All fragments share
    the global table's schema.
    """

    name: str
    schema: TableSchema
    fragments: list[StoredTable]

    @property
    def is_fragmented(self) -> bool:
        return len(self.fragments) > 1

    @property
    def total_rows(self) -> int:
        return sum(f.stats.row_count for f in self.fragments)


class Catalog:
    """The geo-distributed schema catalog used by binder and optimizer."""

    def __init__(self) -> None:
        self._databases: dict[str, Database] = {}
        self._tables: dict[str, GlobalTable] = {}
        #: Read-only alternate placements per stored fragment, keyed by
        #: ``(database, table)``.  See :mod:`.replicas`.
        self._replicas: dict[tuple[str, str], list[Replica]] = {}
        #: Per-replica refresh schedules, keyed by
        #: ``(database, table, site)``.  See :mod:`.freshness`.
        self._refresh: dict[tuple[str, str, str], RefreshSchedule] = {}
        #: Monotone catalog version, bumped on every replica-set change
        #: and on every new database (which may add a location).
        #: Mirrors ``PolicyCatalog.version``: the plan cache and the
        #: replica resolver key derived state on it so cached located
        #: plans never pin a scan to a replica that has been dropped.
        self._version = 0

    # -- databases ---------------------------------------------------------

    def add_database(self, name: str, location: str) -> Database:
        if name in self._databases:
            raise CatalogError(f"database {name!r} already exists")
        db = Database(name, location)
        self._databases[name] = db
        self._version += 1
        return db

    def database(self, name: str) -> Database:
        try:
            return self._databases[name]
        except KeyError:
            raise CatalogError(f"unknown database {name!r}") from None

    @property
    def databases(self) -> list[Database]:
        return list(self._databases.values())

    @property
    def locations(self) -> list[str]:
        """All distinct locations hosting a database, in insertion order."""
        seen: dict[str, None] = {}
        for db in self._databases.values():
            seen.setdefault(db.location, None)
        return list(seen)

    # -- tables ------------------------------------------------------------

    def add_table(
        self,
        database: str,
        schema: TableSchema,
        stats: TableStats | None = None,
        row_count: int | None = None,
    ) -> GlobalTable:
        """Register a (non-fragmented) global table stored in ``database``."""
        db = self.database(database)
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        if stats is None:
            stats = uniform_stats(schema, row_count or 0)
        stored = StoredTable(db.name, db.location, schema, stats)
        table = GlobalTable(schema.name, schema, [stored])
        self._tables[key] = table
        return table

    def add_fragmented_table(
        self,
        schema: TableSchema,
        fragments: list[tuple[str, TableStats]],
    ) -> GlobalTable:
        """Register a global table fragmented over several databases.

        ``fragments`` is a list of ``(database_name, fragment_stats)``.
        """
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        if not fragments:
            raise CatalogError(f"table {schema.name!r} needs at least one fragment")
        stored = []
        for db_name, stats in fragments:
            db = self.database(db_name)
            stored.append(StoredTable(db.name, db.location, schema, stats))
        table = GlobalTable(schema.name, schema, stored)
        self._tables[key] = table
        return table

    def table(self, name: str) -> GlobalTable:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    @property
    def tables(self) -> list[GlobalTable]:
        return list(self._tables.values())

    def stored_table(self, database: str, table: str) -> StoredTable:
        """Look up one stored fragment by database and table name."""
        global_table = self.table(table)
        for fragment in global_table.fragments:
            if fragment.database == database:
                return fragment
        raise CatalogError(f"table {table!r} has no fragment in database {database!r}")

    # -- replicas ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotone counter covering the replica set and the set of
        databases (hence locations).  Derived state (plan-cache entries,
        resolver caches, the policy catalog's location set) keyed on it
        is invalidated by any :meth:`add_replica` / :meth:`drop_replica`
        / :meth:`add_database`."""
        return self._version

    def add_replica(
        self,
        database: str,
        table: str,
        site: str,
        staleness_seconds: float = 0.0,
    ) -> Replica:
        """Declare that the fragment of ``table`` in ``database`` is also
        readable at ``site`` (a location that hosts some database)."""
        primary = self.stored_table(database, table)
        if site not in self.locations:
            raise CatalogError(
                f"replica site {site!r} hosts no database in this catalog"
            )
        if site == primary.location:
            raise CatalogError(
                f"replica of {primary.qualified_name} at {site!r} duplicates "
                "its primary location"
            )
        key = (database, table.lower())
        existing = self._replicas.setdefault(key, [])
        if any(r.site == site for r in existing):
            raise CatalogError(
                f"{primary.qualified_name} already has a replica at {site!r}"
            )
        replica = Replica(database, table.lower(), site, staleness_seconds)
        existing.append(replica)
        self._version += 1
        return replica

    def drop_replica(self, database: str, table: str, site: str) -> None:
        key = (database, table.lower())
        existing = self._replicas.get(key, [])
        kept = [r for r in existing if r.site != site]
        if len(kept) == len(existing):
            raise CatalogError(
                f"{database}.{table} has no replica at {site!r} to drop"
            )
        if kept:
            self._replicas[key] = kept
        else:
            del self._replicas[key]
        self._refresh.pop((database, table.lower(), site), None)
        self._version += 1

    def set_refresh(
        self, database: str, table: str, site: str, schedule: RefreshSchedule
    ) -> None:
        """Attach (or replace) the refresh schedule of the replica of
        ``database.table`` at ``site``.  Bumps the catalog version: a
        schedule change alters which replicas satisfy a staleness bound,
        so cached located plans and resolver state must re-derive."""
        replicas = self._replicas.get((database, table.lower()), ())
        if not any(r.site == site for r in replicas):
            raise CatalogError(
                f"{database}.{table} has no replica at {site!r} to schedule "
                "refreshes for"
            )
        self._refresh[(database, table.lower(), site)] = schedule
        self._version += 1

    def refresh_schedule(
        self, database: str, table: str, site: str
    ) -> RefreshSchedule | None:
        """The replica's refresh schedule, or ``None`` for the static
        (declared-bound) model."""
        return self._refresh.get((database, table.lower(), site))

    def replicas(self, database: str, table: str) -> list[Replica]:
        """All declared replicas of one stored fragment (may be empty)."""
        return list(self._replicas.get((database, table.lower()), []))

    def all_replicas(self) -> list[Replica]:
        return [r for entries in self._replicas.values() for r in entries]

    def replica_sites(
        self,
        database: str,
        table: str,
        max_staleness: float | None = None,
    ) -> frozenset[str]:
        """Sites holding a replica of the fragment, filtered to those
        whose staleness bound fits ``max_staleness`` (``None`` = any)."""
        entries = self._replicas.get((database, table.lower()), ())
        if max_staleness is not None:
            entries = [
                r for r in entries if r.staleness_seconds <= max_staleness
            ]
        return frozenset(r.site for r in entries)
