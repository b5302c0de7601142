"""Deterministic TPC-H-like data generator.

A from-scratch stand-in for ``dbgen``: same schema, key structure, and
value domains (regions, nations, market segments, part types with the
COPPER/BRASS/STEEL vocabulary, 1992–1998 dates, 1–50 sizes and
quantities), generated from a seeded RNG so every run of the benchmark
sees identical data.  Scale is configurable; the paper notes that the
scale factor does not affect query *optimization* — it matters only for
the measured shipped bytes of the plan-quality experiment, which scale
linearly.
"""

from __future__ import annotations

import datetime
import random
from typing import Iterator

from .schema import row_count

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

MARKET_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]

PART_TYPE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"]
PART_TYPE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"]
PART_TYPE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

PART_NAME_WORDS = [
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse",
    "chiffon", "chocolate", "coral", "cornflower", "cream", "cyan", "dark",
    "deep", "dim", "dodger", "drab", "firebrick", "floral", "forest", "frosted",
    "gainsboro", "ghost", "goldenrod", "green", "grey", "honeydew", "hot",
    "indian", "ivory", "khaki", "lace", "lavender", "lawn", "lemon", "light",
    "lime", "linen", "magenta", "maroon", "medium", "metallic", "midnight",
    "mint", "misty", "moccasin", "navajo", "navy", "olive", "orange", "orchid",
    "pale", "papaya", "peach", "peru", "pink", "plum", "powder", "puff",
    "purple", "red", "rose", "rosy", "royal", "saddle", "salmon", "sandy",
    "seashell", "sienna", "sky", "slate", "smoke", "snow", "spring", "steel",
    "tan", "thistle", "tomato", "turquoise", "violet", "wheat", "white", "yellow",
]

CONTAINERS = ["SM CASE", "SM BOX", "LG CASE", "LG BOX", "MED BAG", "JUMBO JAR"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"]

_EPOCH = datetime.date(1992, 1, 1)
_DATE_RANGE_DAYS = (datetime.date(1998, 8, 2) - _EPOCH).days


def _comment(rng: random.Random, length: int = 24) -> str:
    words = rng.sample(PART_NAME_WORDS, 3)
    return " ".join(words)[:length]


class TpchGenerator:
    """Generates all eight tables at a given scale factor, deterministically
    for a given seed."""

    def __init__(self, scale: float = 0.01, seed: int = 2021) -> None:
        self.scale = scale
        self.seed = seed
        self.counts = {
            name: row_count(name, scale)
            for name in (
                "region", "nation", "supplier", "customer",
                "part", "partsupp", "orders", "lineitem",
            )
        }

    def _rng(self, table: str) -> random.Random:
        return random.Random(f"{self.seed}:{table}")

    # -- fixed tables ------------------------------------------------------------

    def region(self) -> Iterator[tuple]:
        rng = self._rng("region")
        for key, name in enumerate(REGIONS):
            yield (key, name, _comment(rng))

    def nation(self) -> Iterator[tuple]:
        rng = self._rng("nation")
        for key, (name, regionkey) in enumerate(NATIONS):
            yield (key, name, regionkey, _comment(rng))

    # -- scaled tables -------------------------------------------------------------

    def supplier(self) -> Iterator[tuple]:
        rng = self._rng("supplier")
        for key in range(1, self.counts["supplier"] + 1):
            yield (
                key,
                f"Supplier#{key:09d}",
                _comment(rng, 25),
                rng.randrange(len(NATIONS)),
                _phone(rng),
                round(rng.uniform(-999.99, 9999.99), 2),
                _comment(rng, 40),
            )

    def customer(self) -> Iterator[tuple]:
        rng = self._rng("customer")
        for key in range(1, self.counts["customer"] + 1):
            yield (
                key,
                f"Customer#{key:09d}",
                _comment(rng, 25),
                rng.randrange(len(NATIONS)),
                _phone(rng),
                round(rng.uniform(-999.99, 9999.99), 2),
                rng.choice(MARKET_SEGMENTS),
                _comment(rng, 40),
            )

    def part(self) -> Iterator[tuple]:
        rng = self._rng("part")
        for key in range(1, self.counts["part"] + 1):
            name = " ".join(rng.sample(PART_NAME_WORDS, 5))
            ptype = " ".join(
                (rng.choice(PART_TYPE_1), rng.choice(PART_TYPE_2), rng.choice(PART_TYPE_3))
            )
            yield (
                key,
                name,
                f"Manufacturer#{rng.randrange(1, 6)}",
                f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
                ptype,
                rng.randrange(1, 51),
                rng.choice(CONTAINERS),
                round(900 + (key % 1000) + rng.uniform(0, 100), 2),
                _comment(rng, 15),
            )

    def partsupp(self) -> Iterator[tuple]:
        rng = self._rng("partsupp")
        n_parts = self.counts["part"]
        n_suppliers = self.counts["supplier"]
        per_part = max(1, self.counts["partsupp"] // max(1, n_parts))
        for partkey in range(1, n_parts + 1):
            for i in range(per_part):
                suppkey = ((partkey + i * (n_suppliers // per_part + 1)) % n_suppliers) + 1
                yield (
                    partkey,
                    suppkey,
                    rng.randrange(1, 10_000),
                    round(rng.uniform(1.0, 1000.0), 2),
                    _comment(rng, 40),
                )

    def order_date(self, orderkey: int) -> datetime.date:
        """Order date as a pure function of the order key, so orders() and
        lineitem() agree without replaying RNG state."""
        import zlib

        token = f"{self.seed}:odate:{orderkey}".encode("ascii")
        days = zlib.crc32(token) % (_DATE_RANGE_DAYS - 151)
        return _EPOCH + datetime.timedelta(days=days)

    def orders(self) -> Iterator[tuple]:
        rng = self._rng("orders")
        n_customers = self.counts["customer"]
        for key in range(1, self.counts["orders"] + 1):
            yield (
                key,
                rng.randrange(1, n_customers + 1),
                rng.choice(["O", "F", "P"]),
                round(rng.uniform(1000.0, 400_000.0), 2),
                self.order_date(key),
                rng.choice(PRIORITIES),
                f"Clerk#{rng.randrange(1, 1001):09d}",
                0,
                _comment(rng, 30),
            )

    def lineitem(self) -> Iterator[tuple]:
        rng = self._rng("lineitem")
        n_orders = self.counts["orders"]
        n_parts = self.counts["part"]
        n_suppliers = self.counts["supplier"]
        per_order = max(1, self.counts["lineitem"] // max(1, n_orders))
        for orderkey in range(1, n_orders + 1):
            orderdate = self.order_date(orderkey)
            for linenumber in range(1, per_order + 1):
                partkey = rng.randrange(1, n_parts + 1)
                suppkey = rng.randrange(1, n_suppliers + 1)
                quantity = rng.randrange(1, 51)
                extended = round(quantity * rng.uniform(900.0, 2000.0), 2)
                shipdate = orderdate + datetime.timedelta(days=rng.randrange(1, 122))
                commitdate = orderdate + datetime.timedelta(days=rng.randrange(30, 91))
                receiptdate = shipdate + datetime.timedelta(days=rng.randrange(1, 31))
                yield (
                    orderkey,
                    partkey,
                    suppkey,
                    linenumber,
                    float(quantity),
                    extended,
                    round(rng.uniform(0.0, 0.10), 2),
                    round(rng.uniform(0.0, 0.08), 2),
                    rng.choice(["R", "A", "N"]),
                    rng.choice(["O", "F"]),
                    shipdate,
                    commitdate,
                    receiptdate,
                    rng.choice(SHIP_INSTRUCTIONS),
                    rng.choice(SHIP_MODES),
                    _comment(rng, 20),
                )

    def table(self, name: str) -> Iterator[tuple]:
        return getattr(self, name)()


def _phone(rng: random.Random) -> str:
    return (
        f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-"
        f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10_000)}"
    )
