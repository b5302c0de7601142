"""Shared fixtures: the CarCo running example and small TPC-H setups."""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest
from hypothesis import settings

from repro.catalog import Catalog, Column, TableSchema
from repro.datatypes import DataType
from repro.geo import GeoDatabase, NetworkModel, synthetic_network
from repro.policy import PolicyCatalog, PolicyEvaluator
from repro.tpch import build_benchmark, build_catalog, default_network

#: ``--hypothesis-profile=deep`` runs the frozen-oracle fuzz tests (see
#: :func:`fuzz_examples`) far longer; the CI ``deep-fuzz`` job uses it.
settings.register_profile("deep", max_examples=5000, deadline=None)


def fuzz_examples() -> int:
    """Examples per frozen-oracle differential test: 200, or the active
    Hypothesis profile's count when that is larger."""
    return max(200, settings.default.max_examples)


@dataclass
class CarCoWorld:
    """The paper's Section 2 running example, with loaded data."""

    catalog: Catalog
    policies: PolicyCatalog
    evaluator: PolicyEvaluator
    database: GeoDatabase
    network: NetworkModel
    query: str


CARCO_QUERY = """
SELECT C.name, SUM(O.totprice) AS total_price, SUM(S.quantity) AS total_qty
FROM customer AS C, orders AS O, supply AS S
WHERE C.custkey = O.custkey AND O.ordkey = S.ordkey
GROUP BY C.name
"""


def build_carco(seed: int = 7, customers: int = 50, orders: int = 300, supplies: int = 900) -> CarCoWorld:
    catalog = Catalog()
    catalog.add_database("dbn", "NorthAmerica")
    catalog.add_database("dbe", "Europe")
    catalog.add_database("dba", "Asia")
    catalog.add_table(
        "dbn",
        TableSchema(
            "customer",
            (
                Column("custkey", DataType.INTEGER),
                Column("name", DataType.VARCHAR),
                Column("acctbal", DataType.DECIMAL),
                Column("mktseg", DataType.VARCHAR),
                Column("region", DataType.VARCHAR),
            ),
            primary_key=("custkey",),
        ),
        row_count=customers,
    )
    catalog.add_table(
        "dbe",
        TableSchema(
            "orders",
            (
                Column("custkey", DataType.INTEGER),
                Column("ordkey", DataType.INTEGER),
                Column("totprice", DataType.DECIMAL),
            ),
            primary_key=("ordkey",),
        ),
        row_count=orders,
    )
    catalog.add_table(
        "dba",
        TableSchema(
            "supply",
            (
                Column("ordkey", DataType.INTEGER),
                Column("quantity", DataType.INTEGER),
                Column("extprice", DataType.DECIMAL),
            ),
        ),
        row_count=supplies,
    )

    policies = PolicyCatalog(catalog)
    # P_N: customer data only after suppressing the account balance.
    policies.add_text("ship custkey, name, mktseg, region from customer to *")
    # P_E: only aggregated order prices to Asia; order keys may travel.
    policies.add_text(
        "ship totprice as aggregates sum from orders to Asia group by custkey, ordkey"
    )
    policies.add_text("ship custkey, ordkey from orders to Asia, Europe")
    # P_A: only aggregated supply data to Europe.
    policies.add_text(
        "ship quantity, extprice as aggregates sum from supply to Europe group by ordkey"
    )

    rng = random.Random(seed)
    database = GeoDatabase(catalog)
    database.load(
        "dbn",
        "customer",
        [
            (i, f"name{i % 17}", round(rng.uniform(0, 1000), 2), rng.choice(["a", "b"]), "r")
            for i in range(customers)
        ],
    )
    database.load(
        "dbe",
        "orders",
        [(rng.randrange(customers), k, round(rng.uniform(1, 100), 2)) for k in range(orders)],
    )
    database.load(
        "dba",
        "supply",
        [
            (rng.randrange(orders), rng.randrange(1, 10), round(rng.uniform(1, 5), 2))
            for _ in range(supplies)
        ],
    )
    network = synthetic_network(catalog.locations)
    return CarCoWorld(
        catalog=catalog,
        policies=policies,
        evaluator=PolicyEvaluator(policies),
        database=database,
        network=network,
        query=CARCO_QUERY,
    )


@pytest.fixture(scope="session")
def carco() -> CarCoWorld:
    return build_carco()


@pytest.fixture(scope="session")
def tpch_stats_catalog() -> Catalog:
    """Stats-only TPC-H catalog at SF 1 (for optimization tests)."""
    return build_catalog(scale=1.0)


@pytest.fixture(scope="session")
def tpch_small():
    """Loaded TPC-H benchmark at a tiny scale (for execution tests)."""
    return build_benchmark(scale=0.002)


@pytest.fixture(scope="session")
def tpch_network() -> NetworkModel:
    return default_network()


def rows_as_multiset(rows, float_digits: int = 6):
    """Order-insensitive, float-tolerant row comparison key."""
    normalized = []
    for row in rows:
        normalized.append(
            tuple(
                round(v, float_digits) if isinstance(v, float) else v for v in row
            )
        )
    return sorted(normalized, key=repr)
