"""Seeded op lists: what each workload replays.

Everything here is a pure function of ``(seed, Sizes)``: the same seed
gives the same SQL, the same batches and the same fault seeds.  Op
counts, templates and batch size are fixed by :class:`Sizes`, so counts
repeat exactly across seeds; a seed moves what a later PR must not be
tuned against: the ad hoc stream, the template literals, op order,
batch composition, arrival gaps and fault windows.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass

from repro.tpch import EXTRA_QUERIES, QUERIES, AdHocQueryGenerator

POLICY_SETS = ("T", "C", "CR", "CR+A")
#: The policy set the executing workloads run under.
EXEC_POLICY_SET = "CR"


@dataclass(frozen=True)
class Sizes:
    """Everything that sizes a run.  Two instances exist: the measured
    one and ``--smoke``; nothing else may vary op or pass counts."""

    exec_scale: float
    serve_scale: float
    #: Length of the ad hoc stream, dealt over the four policy sets.
    adhoc_queries: int
    #: Literal bindings per execution template.
    bindings: int
    #: Fresh servers per pass of ``serve_faulted_traced``, and the
    #: requests each drains.
    batches: int
    batch_size: int
    #: Cold worlds built per run; ``setup_s`` is the fastest.
    setups: int
    #: Timed passes P per workload, (untraced, traced).  Fixed, so that
    #: best-of-P means the same thing on every machine and commit.
    passes: dict[str, tuple[int, int]]


FULL = Sizes(
    exec_scale=0.003,
    serve_scale=0.001,
    adhoc_queries=400,
    bindings=10,
    batches=100,
    batch_size=4,
    setups=2,
    passes={
        "optimize_cold": (7, 2),
        "exec_batch_stream": (8, 2),
        "exec_row_seq": (4, 2),
        "serve_faulted_traced": (4, 1),
    },
)
SMOKE = Sizes(
    exec_scale=0.001,
    serve_scale=0.001,
    adhoc_queries=16,
    bindings=1,
    batches=4,
    batch_size=4,
    setups=1,
    passes=dict.fromkeys(FULL.passes, (1, 1)),
)


def derive(seed: int, *tokens: object) -> int:
    """A sub-seed for one purpose, independent of every other purpose."""
    text = "\x1f".join(str(t) for t in (seed, *tokens))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


# -- optimize_cold ----------------------------------------------------------------


@dataclass(frozen=True)
class OptimizeOp:
    name: str
    policy_set: str
    sql: str


def tpch_queries() -> list[tuple[str, str]]:
    return [*QUERIES.items(), *EXTRA_QUERIES.items()]


#: Seed of the stream that fixes *which join subgraphs* the ad hoc
#: queries cover, and how often (never the queries themselves).
MIX_SEED = 20210620


def adhoc_stream(seed: int, count: int) -> list[str]:
    """``count`` distinct queries of the paper's ad hoc generator,
    seeded by the run, with the table mix of one fixed stream.

    The generator is heavy tailed: a query that ships ``lineitem`` whole
    is billed seconds and megabytes, most others a fraction of that, so
    between ten seeds a free stream of 600 queries moved the mean
    estimated bytes by 22 % and the mean cost by 11 % (interquartile
    distance over median), which no bound the driver accepts can hold.
    How many queries join which tables, and how many of them aggregate,
    is therefore read off the first ``count`` queries of ``MIX_SEED``;
    the run's seed draws the queries themselves: predicates, output
    columns, grouping and aggregates."""
    def key(query) -> tuple:
        return tuple(sorted(query.tables)), query.is_aggregate

    want = Counter(key(query) for query in AdHocQueryGenerator(seed=MIX_SEED).generate(count))
    generator = AdHocQueryGenerator(seed=derive(seed, "adhoc"))
    out: dict[str, None] = {}  # distinct texts, in drawing order
    while len(out) < count:
        query = generator.one()
        if want[key(query)] > 0 and query.sql not in out:
            want[key(query)] -= 1
            out[query.sql] = None
    return list(out)


def optimize_ops(seed: int, sizes: Sizes) -> list[OptimizeOp]:
    """The ad hoc stream dealt round-robin over the four curated policy
    sets (the policy sweep), plus the nine TPC-H queries under the
    executing set, in seeded order.

    Each ad hoc query runs under one set, not all four: a pass affords
    about 400 ops, and distinct queries halve the seed-to-seed movement
    of the means.  The TPC-H queries cost a quarter of a pass under one
    set (Q5 and Q8 take 0.15 s each) and would cost half under four."""
    ops = [
        OptimizeOp(f"adhoc{i}/{POLICY_SETS[i % 4]}", POLICY_SETS[i % 4], sql)
        for i, sql in enumerate(adhoc_stream(seed, sizes.adhoc_queries))
    ]
    ops += [OptimizeOp(f"{name}/{EXEC_POLICY_SET}", EXEC_POLICY_SET, sql)
            for name, sql in tpch_queries()]
    random.Random(derive(seed, "optimize-order")).shuffle(ops)
    return ops


# -- exec_batch_stream / exec_row_seq ------------------------------------------------

_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
_REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
_FLAGS = ("R", "A", "N")
_BRANDS = tuple(f"Brand#{a}{b}" for a in range(1, 6) for b in range(1, 6))
#: Month starts the date windows open on, two per data year up to 1996
#: so a window of up to a quarter always lies inside the generated data.
_MONTHS = tuple(f"{year}-{month:02d}-01" for year in range(1992, 1997) for month in (2, 8))


def _window(start: str, months: int) -> tuple[str, str]:
    year, month = int(start[:4]), int(start[5:7]) + months
    year, month = year + (month - 1) // 12, (month - 1) % 12 + 1
    return start, f"{year}-{month:02d}-01"


#: PK–FK join/aggregate templates over tables at two or more sites.
#: Every ORDER BY key is unique per result row, so ordered comparison
#: against the reference is well defined.
TEMPLATES: dict[str, str] = {
    "ol_rev": (
        "SELECT l.l_returnflag, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue "
        "FROM orders o, lineitem l WHERE l.l_orderkey = o.o_orderkey "
        "AND o.o_orderdate >= DATE '{d0}' AND o.o_orderdate < DATE '{d1}' "
        "AND l.l_quantity < {qty} GROUP BY l.l_returnflag ORDER BY l_returnflag"
    ),
    "cn_bal": (
        "SELECT n.n_name, COUNT(*) AS cnt, SUM(c.c_acctbal) AS bal "
        "FROM customer c, nation n WHERE c.c_nationkey = n.n_nationkey "
        "AND c.c_mktsegment = '{segment}' AND c.c_acctbal > {bal} "
        "GROUP BY n.n_name ORDER BY n_name"
    ),
    "snr_top": (
        "SELECT s.s_name, s.s_acctbal, n.n_name FROM supplier s, nation n, region r "
        "WHERE s.s_nationkey = n.n_nationkey AND n.n_regionkey = r.r_regionkey "
        "AND r.r_name = '{region}' AND s.s_acctbal > {bal} "
        "ORDER BY s_acctbal DESC, s_name LIMIT 25"
    ),
    "pps_min": (
        "SELECT p.p_brand, MIN(ps.ps_supplycost) AS mincost, COUNT(*) AS cnt "
        "FROM part p, partsupp ps WHERE p.p_partkey = ps.ps_partkey "
        "AND p.p_size = {size} GROUP BY p.p_brand ORDER BY p_brand"
    ),
    "lp_mfgr": (
        "SELECT p.p_mfgr, SUM(l.l_extendedprice) AS total FROM lineitem l, part p "
        "WHERE l.l_partkey = p.p_partkey AND p.p_brand = '{brand}' "
        "AND l.l_shipdate >= DATE '{d0}' AND l.l_shipdate < DATE '{d1}' "
        "GROUP BY p.p_mfgr ORDER BY p_mfgr"
    ),
    "ls_qty": (
        "SELECT s.s_nationkey, SUM(l.l_quantity) AS qty FROM lineitem l, supplier s "
        "WHERE l.l_suppkey = s.s_suppkey AND l.l_returnflag = '{flag}' "
        "AND l.l_discount <= {discount} GROUP BY s.s_nationkey ORDER BY s_nationkey"
    ),
    "col_rows": (
        "SELECT o.o_orderkey, o.o_orderdate, l.l_extendedprice "
        "FROM customer c, orders o, lineitem l WHERE c.c_custkey = o.o_custkey "
        "AND l.l_orderkey = o.o_orderkey AND c.c_mktsegment = '{segment}' "
        "AND o.o_orderdate >= DATE '{d0}' AND o.o_orderdate < DATE '{d1}' "
        "AND l.l_quantity > {qty}"
    ),
    "ocn_tot": (
        "SELECT n.n_name, SUM(o.o_totalprice) AS total FROM orders o, customer c, nation n "
        "WHERE o.o_custkey = c.c_custkey AND c.c_nationkey = n.n_nationkey "
        "AND o.o_orderdate >= DATE '{d0}' AND o.o_orderdate < DATE '{d1}' "
        "GROUP BY n.n_name ORDER BY n_name"
    ),
    "pssn_qty": (
        "SELECT n.n_name, SUM(ps.ps_availqty) AS qty FROM partsupp ps, supplier s, nation n "
        "WHERE ps.ps_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey "
        "AND ps.ps_supplycost < {cost} GROUP BY n.n_name ORDER BY n_name"
    ),
    "lo_late": (
        "SELECT l.l_orderkey, l.l_shipdate, o.o_orderdate FROM lineitem l, orders o "
        "WHERE l.l_orderkey = o.o_orderkey AND o.o_orderdate >= DATE '{d0}' "
        "AND o.o_orderdate < DATE '{d1}' AND l.l_returnflag = '{flag}'"
    ),
    # Q3's shape with bound segment and cut-off date; with the next
    # one, the templates that ship fat payloads (filtered lineitem or
    # orders rows).  Two of them, so that the slowest tenth of the op
    # list is one family and p90 does not sit on a family boundary.
    "col_top": (
        "SELECT l.l_orderkey, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, "
        "o.o_orderdate FROM customer c, orders o, lineitem l "
        "WHERE c.c_mktsegment = '{segment}' AND c.c_custkey = o.o_custkey "
        "AND l.l_orderkey = o.o_orderkey AND o.o_orderdate < DATE '{d0}' "
        "AND l.l_shipdate > DATE '{d0}' GROUP BY l.l_orderkey, o.o_orderdate "
        "ORDER BY revenue DESC, o_orderdate, l_orderkey LIMIT 10"
    ),
    # Q10's shape: a quarter of orders, one return flag.
    "coln_top": (
        "SELECT c.c_custkey, c.c_name, SUM(l.l_extendedprice * (1 - l.l_discount)) AS revenue, "
        "n.n_name FROM customer c, orders o, lineitem l, nation n "
        "WHERE c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey "
        "AND o.o_orderdate >= DATE '{d0}' AND o.o_orderdate < DATE '{d3}' "
        "AND l.l_returnflag = '{flag}' AND c.c_nationkey = n.n_nationkey "
        "GROUP BY c.c_custkey, c.c_name, n.n_name ORDER BY revenue DESC, c_custkey LIMIT 20"
    ),
}


@dataclass(frozen=True)
class ExecOp:
    name: str
    #: The template (``"tpch"`` for the nine TPC-H queries).
    family: str
    sql: str
    ordered: bool


def _cycle(rng: random.Random, values: tuple, count: int) -> list:
    """``count`` values in seeded order whose multiset does not depend
    on the seed (whole cycles of ``values``)."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def exec_ops(seed: int, sizes: Sizes) -> list[ExecOp]:
    """The nine TPC-H queries plus ``sizes.bindings`` literal bindings
    of every template, in seeded order.

    A template's cost follows its literals (a date window sets how many
    ``lineitem`` rows cross a link), so bindings drawn freely moved
    bytes per query by 17 % and ``exec_batch_stream``'s queries/s by
    13 % between ten seeds.  Each listed parameter therefore takes every
    one of its values equally often; the seed pairs them up, draws the
    two numeric thresholds and orders the ops."""
    count = sizes.bindings
    ops = [ExecOp(name, "tpch", sql, "ORDER BY" in sql) for name, sql in tpch_queries()]
    for template, text in TEMPLATES.items():
        rng = random.Random(derive(seed, "bindings", template))
        starts = _cycle(rng, _MONTHS, count)
        columns = {
            "segment": _cycle(rng, _SEGMENTS, count),
            "region": _cycle(rng, _REGIONS, count),
            "flag": _cycle(rng, _FLAGS, count),
            "brand": _cycle(rng, _BRANDS, count),
            "size": _cycle(rng, tuple(range(3, 50, 5)), count),
            "qty": _cycle(rng, tuple(range(20, 40, 2)), count),
            "discount": _cycle(rng, (0.03, 0.04, 0.05, 0.06, 0.07), count),
            "bal": [round(rng.uniform(0.0, 3000.0), 2) for _ in range(count)],
            "cost": [round(rng.uniform(200.0, 600.0), 2) for _ in range(count)],
        }
        for i in range(count):
            d0, d1 = _window(starts[i], 2)
            values = {key: column[i] for key, column in columns.items()}
            sql = text.format(d0=d0, d1=d1, d3=_window(starts[i], 3)[1], **values)
            ops.append(ExecOp(f"{template}#{i}", template, sql, "ORDER BY" in sql))
    random.Random(derive(seed, "exec-order")).shuffle(ops)
    return ops


# -- serve_faulted_traced ------------------------------------------------------------


@dataclass(frozen=True)
class ServeOp:
    """One batch: requests ``(label, exec-op index, arrival)`` served by
    a fresh server under ``fault_seed``'s recoverable fault plan."""

    name: str
    requests: tuple[tuple[str, int, float], ...]
    fault_seed: int


def serve_ops(seed: int, sizes: Sizes, queries: list[ExecOp]) -> list[ServeOp]:
    """``sizes.batches`` batches of ``sizes.batch_size`` queries from
    the exec op list, with seeded arrival gaps and fault seeds.  Request
    tuples index into ``queries``.

    A batch's wall time stands for its queries' latency, and batches
    drawn freely from a list that mixes 3 ms and 30 ms queries moved
    p50 by 18 % and queries/s by 12 % between ten seeds.  *Which
    families share a server* is therefore read off one fixed stream
    (``MIX_SEED``: round after round of all thirteen families in
    shuffled order, cut into batches, so every family is served equally
    often), as is which TPC-H query takes each ``tpch`` slot — those
    nine are the same under every seed anyway.  The run's seed picks the
    template's binding for each slot (every binding equally often), the
    order of the batches, the gaps and the faults."""
    shape = random.Random(MIX_SEED)
    rng = random.Random(derive(seed, "batches"))
    members: dict[str, list[int]] = {}
    for index, query in sorted(enumerate(queries), key=lambda pair: pair[1].name):
        members.setdefault(query.family, []).append(index)
    turns = {}
    for family in sorted(members):
        (shape if family == "tpch" else rng).shuffle(members[family])
        turns[family] = itertools.cycle(members[family])
    slots: list[int] = []
    while len(slots) < sizes.batches * sizes.batch_size:
        slots += [next(turns[family]) for family in shape.sample(sorted(turns), len(turns))]
    batches = [slots[b * sizes.batch_size :][: sizes.batch_size] for b in range(sizes.batches)]
    rng.shuffle(batches)
    ops = []
    for b, batch in enumerate(batches):
        arrival, requests = 0.0, []
        for slot, index in enumerate(batch):
            requests.append((f"b{b}r{slot}", index, round(arrival, 4)))
            arrival += rng.uniform(0.0, 0.05)
        ops.append(ServeOp(f"batch{b}", tuple(requests), derive(seed, "faults", b) % 2**31))
    return ops
