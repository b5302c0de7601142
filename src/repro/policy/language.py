"""Policy expression model (paper §4).

A *policy expression* declaratively states which data of a table may be
shipped to which locations:

Basic expression (Select-Project shaped)::

    ship attr, attr FROM table TO loc, loc [WHERE condition]
    ship *          FROM table TO *

Aggregate expression (Select-Project-GroupBy shaped)::

    ship attr, attr AS AGGREGATES sum, avg FROM table TO loc, loc
        [WHERE condition] GROUP BY attr, attr

Following footnote 4 of the paper, the FROM clause may name more than one
table of the same database, in which case the WHERE clause must contain
the join predicate; the expression then applies to attributes of all the
named tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..expr import AggregateFunction, BaseColumn, Expression

#: The wildcard destination: data may be shipped to every location.
ALL_LOCATIONS = "*"


@dataclass(frozen=True)
class PolicyExpression:
    """One parsed-and-bound policy expression.

    Attributes are stored by base-column provenance so query output columns
    match them regardless of query-level aliases.  ``destinations`` is
    ``None`` for the ``to *`` wildcard.
    """

    database: str
    tables: tuple[str, ...]
    ship_attributes: frozenset[BaseColumn]
    destinations: frozenset[str] | None
    predicate: Expression | None = None
    is_aggregate: bool = False
    agg_functions: frozenset[AggregateFunction] = frozenset()
    group_by: frozenset[BaseColumn] = frozenset()
    source_text: str = ""

    def destinations_resolved(self, all_locations: frozenset[str]) -> frozenset[str]:
        """Concrete destination set, expanding the ``*`` wildcard."""
        if self.destinations is None:
            return all_locations
        return self.destinations

    def mentions(self, attribute: BaseColumn) -> bool:
        return attribute in self.ship_attributes or attribute in self.group_by

    def __str__(self) -> str:
        return self.source_text or repr(self)
