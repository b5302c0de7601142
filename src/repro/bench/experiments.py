"""Experiment functions — one per table/figure of the paper's §7.

Each function prepares the workload, runs both optimizers as required,
and returns a result dataclass with a ``table()`` rendering that mirrors
the corresponding figure.  The ``benchmarks/`` directory contains one
pytest-benchmark file per figure that drives these functions and asserts
the paper's qualitative claims (the *shape*: who wins, where the
crossovers are), never absolute milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..catalog import Catalog
from ..errors import NonCompliantQueryError
from ..execution import ExecutionEngine
from ..geo import NetworkModel
from ..optimizer import (
    CompliantOptimizer,
    TraditionalOptimizer,
    check_compliance,
)
from ..plan import explain_physical
from ..policy import PolicyCatalog, PolicyEvaluator
from ..sql import Binder
from ..tpch import (
    AdHocQueryGenerator,
    PolicyGenerator,
    QUERIES,
    build_benchmark,
    build_catalog,
    curated_policies,
    default_network,
    locations_sweep_policies,
)
from ..tpch.schema import ALL_TABLES
from .harness import DEFAULT_REPETITIONS, TimedRun, format_table, scaled

DEFAULT_QUERY_NAMES = tuple(QUERIES)


def minimal_policies(catalog: Catalog) -> PolicyCatalog:
    """Fig. 6(b): eight unrestricted ``ship * from t to *`` expressions —
    the overhead the compliant optimizer always pays."""
    policies = PolicyCatalog(catalog)
    for schema in ALL_TABLES:
        policies.add_text(f"ship * from {schema.name} to *")
    return policies


# ---------------------------------------------------------------------------
# Fig. 5(a) — effectiveness on the six TPC-H queries
# ---------------------------------------------------------------------------


@dataclass
class EffectivenessMatrix:
    """(traditional label, compliant label) per set and query."""

    cells: dict[str, dict[str, tuple[str, str]]]

    def table(self) -> str:
        first = next(iter(self.cells.values()))
        queries = list(first)
        rows = []
        for set_name, per_query in self.cells.items():
            rows.append(
                [set_name]
                + [f"{per_query[q][0]}/{per_query[q][1]}" for q in queries]
            )
        return format_table(
            ["set"] + queries,
            rows,
            title="Fig 5(a) — traditional/compliant optimizer outcome "
            "(C = compliant plan, NC = non-compliant, REJ = rejected)",
        )

    def traditional_nc(self, set_name: str) -> set[str]:
        return {
            q for q, (trad, _c) in self.cells[set_name].items() if trad == "NC"
        }


def effectiveness_tpch(
    catalog: Catalog,
    network: NetworkModel,
    set_names: tuple[str, ...] = ("T", "C", "CR", "CR+A"),
    query_names: tuple[str, ...] = DEFAULT_QUERY_NAMES,
) -> EffectivenessMatrix:
    cells: dict[str, dict[str, tuple[str, str]]] = {}
    for set_name in set_names:
        policies = curated_policies(catalog, set_name)
        evaluator = PolicyEvaluator(policies)
        compliant = CompliantOptimizer(catalog, policies, network)
        traditional = TraditionalOptimizer(catalog, network)
        per_query: dict[str, tuple[str, str]] = {}
        for name in query_names:
            sql = QUERIES[name]
            t_label = (
                "C"
                if not check_compliance(traditional.optimize(sql).plan, evaluator)
                else "NC"
            )
            try:
                result = compliant.optimize(sql)
                c_label = (
                    "C" if not check_compliance(result.plan, evaluator) else "NC"
                )
            except NonCompliantQueryError:
                c_label = "REJ"
            per_query[name] = (t_label, c_label)
        cells[set_name] = per_query
    return EffectivenessMatrix(cells)


# ---------------------------------------------------------------------------
# Fig. 6(a) — effectiveness on 400 ad-hoc queries
# ---------------------------------------------------------------------------


@dataclass
class AdhocEffectiveness:
    per_set: dict[str, tuple[int, int, int]]  # (queries, trad-C, compliant-C)

    def table(self) -> str:
        rows = []
        for set_name, (n, trad_ok, comp_ok) in self.per_set.items():
            rows.append(
                [
                    set_name,
                    n,
                    f"{trad_ok / n:.2f}",
                    f"{comp_ok / n:.2f}",
                ]
            )
        return format_table(
            ["expression set", "#queries", "traditional QO", "compliant QO"],
            rows,
            title="Fig 6(a) — fraction of ad-hoc queries with a compliant QEP",
        )


def effectiveness_adhoc(
    catalog: Catalog,
    network: NetworkModel,
    queries_per_set: int = 100,
    expression_counts: dict[str, int] | None = None,
    policy_seed: int = 17,
    query_seed: int = 23,
    max_expressions: int = 3000,
) -> AdhocEffectiveness:
    counts = expression_counts or {"T": 8, "C": 50, "CR": 50, "CR+A": 50}
    generator = AdHocQueryGenerator(seed=query_seed)
    per_set: dict[str, tuple[int, int, int]] = {}
    for set_name, n_expressions in counts.items():
        policies = PolicyGenerator(
            catalog, seed=policy_seed, hub="NorthAmerica"
        ).generate(set_name, n_expressions)
        evaluator = PolicyEvaluator(policies)
        compliant = CompliantOptimizer(
            catalog, policies, network, max_expressions=max_expressions
        )
        traditional = TraditionalOptimizer(
            catalog, network, max_expressions=max_expressions
        )
        trad_ok = 0
        comp_ok = 0
        for query in generator.generate(queries_per_set):
            t_plan = traditional.optimize(query.sql).plan
            if not check_compliance(t_plan, evaluator):
                trad_ok += 1
            try:
                result = compliant.optimize(query.sql)
                if not check_compliance(result.plan, evaluator):
                    comp_ok += 1
            except NonCompliantQueryError:
                pass
        per_set[set_name] = (queries_per_set, trad_ok, comp_ok)
    return AdhocEffectiveness(per_set)


# ---------------------------------------------------------------------------
# Fig. 6(b)–(f) — optimization-time overhead
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    label: str
    per_query: dict[str, tuple[TimedRun, TimedRun]]  # traditional, compliant

    def table(self) -> str:
        rows = []
        for name, (trad, comp) in self.per_query.items():
            factor = comp.mean_ms / trad.mean_ms if trad.mean_ms else float("inf")
            rows.append(
                [name, f"{trad.mean_ms:.1f}", f"{comp.mean_ms:.1f}", f"{factor:.2f}x"]
            )
        return format_table(
            ["query", "traditional [ms]", "compliant [ms]", "overhead"],
            rows,
            title=self.label,
        )

    def overhead_factor(self, name: str) -> float:
        trad, comp = self.per_query[name]
        return comp.mean_ms / trad.mean_ms if trad.mean_ms else float("inf")


def optimization_overhead(
    catalog: Catalog,
    network: NetworkModel,
    policies: PolicyCatalog,
    label: str,
    query_names: tuple[str, ...] = DEFAULT_QUERY_NAMES,
    repetitions: int = DEFAULT_REPETITIONS,
) -> OverheadResult:
    compliant = CompliantOptimizer(catalog, policies, network)
    traditional = TraditionalOptimizer(catalog, network)
    per_query: dict[str, tuple[TimedRun, TimedRun]] = {}
    for name in query_names:
        sql = QUERIES[name]
        trad = TimedRun.measure(lambda: traditional.optimize(sql), repetitions)
        comp = TimedRun.measure(lambda: compliant.optimize(sql), repetitions)
        per_query[name] = (trad, comp)
    return OverheadResult(label, per_query)


# ---------------------------------------------------------------------------
# Fig. 6(g)(h) — plan quality (scaled execution cost)
# ---------------------------------------------------------------------------


@dataclass
class QualityRow:
    query: str
    traditional_cost: float
    compliant_cost: float
    traditional_label: str
    same_plan: bool
    #: Simulated critical-path response times (fragment scheduler); the
    #: shipping-cost columns above are the plain per-SHIP sums.
    traditional_makespan: float = 0.0
    compliant_makespan: float = 0.0
    #: Fragment pairs with no dependency either way — > 0 means the plan
    #: has cross-site parallelism and makespan < cost strictly.
    traditional_parallel_pairs: int = 0
    compliant_parallel_pairs: int = 0

    @property
    def scaled_cost(self) -> float:
        return scaled(self.compliant_cost, self.traditional_cost)

    @property
    def scaled_makespan(self) -> float:
        return scaled(self.compliant_makespan, self.traditional_makespan)


@dataclass
class QualityResult:
    set_name: str
    rows: list[QualityRow]

    def table(self) -> str:
        out = []
        for row in self.rows:
            out.append(
                [
                    row.query,
                    row.traditional_label,
                    f"{row.traditional_cost:.4f}",
                    f"{row.compliant_cost:.4f}",
                    f"{row.scaled_cost:.2f}x",
                    f"{row.traditional_makespan:.4f}",
                    f"{row.compliant_makespan:.4f}",
                    f"{row.scaled_makespan:.2f}x",
                    "=" if row.same_plan else "!=",
                ]
            )
        return format_table(
            [
                "query",
                "trad",
                "trad cost [s]",
                "compliant cost [s]",
                "scaled",
                "trad makespan [s]",
                "compliant makespan [s]",
                "scaled",
                "plan",
            ],
            out,
            title=(
                f"Fig 6(g/h) — execution cost, set {self.set_name}; "
                "cost = simulated alpha+beta*bytes transfer time summed over "
                "all SHIPs, makespan = critical-path response time of the "
                "fragment schedule"
            ),
        )

    def row(self, query: str) -> QualityRow:
        return next(r for r in self.rows if r.query == query)


def plan_quality(
    set_name: str,
    scale: float = 0.01,
    query_names: tuple[str, ...] = DEFAULT_QUERY_NAMES,
    network: NetworkModel | None = None,
) -> QualityResult:
    """Optimize with both optimizers, execute both plans on generated data,
    and report the measured shipping cost, scaled to the traditional plan
    (paper §7.4).

    Plans execute on the fragment scheduler, so each row carries
    both cost views: the per-SHIP transfer-time *sum* (the paper's
    headline metric) and the simulated critical-path *makespan* (the
    response time a geo-distributed deployment would observe, since
    independent sites transfer concurrently).

    Plans are optimized against SF-1 statistics (matching the paper's SF-10
    setup and this repo's other experiments) and executed on data generated
    at ``scale`` — shipped bytes scale linearly, the plan *shapes* do not
    change."""
    catalog, database = build_benchmark(scale=scale, stats_scale=1.0)
    network = network or default_network()
    policies = curated_policies(catalog, set_name)
    evaluator = PolicyEvaluator(policies)
    compliant = CompliantOptimizer(catalog, policies, network)
    traditional = TraditionalOptimizer(catalog, network)
    engine = ExecutionEngine(database, network)
    binder = Binder(catalog)

    from ..execution import independent_pairs
    from ..optimizer.compliant import _strip_sort

    rows: list[QualityRow] = []
    for name in query_names:
        core, _sort = _strip_sort(binder.bind_sql(QUERIES[name]))
        t_result = traditional.optimize(core)
        c_result = compliant.optimize(core)
        t_run = engine.execute(t_result.plan)
        c_run = engine.execute(c_result.plan)
        rows.append(
            QualityRow(
                query=name,
                traditional_cost=t_run.simulated_cost,
                compliant_cost=c_run.simulated_cost,
                traditional_label=(
                    "C"
                    if not check_compliance(t_result.plan, evaluator)
                    else "NC"
                ),
                same_plan=explain_physical(t_result.plan)
                == explain_physical(c_result.plan),
                traditional_makespan=t_run.makespan_seconds,
                compliant_makespan=c_run.makespan_seconds,
                traditional_parallel_pairs=independent_pairs(t_result.plan),
                compliant_parallel_pairs=independent_pairs(c_result.plan),
            )
        )
    return QualityResult(set_name, rows)


# ---------------------------------------------------------------------------
# Fig. 7(a)–(c) — scalability in the number of policy expressions
# ---------------------------------------------------------------------------


@dataclass
class ExpressionScalability:
    query: str
    points: list[tuple[int, TimedRun, int]]  # (#expressions, time, eta)

    def table(self) -> str:
        rows = [
            [n, f"{t.mean_ms:.1f}", eta]
            for n, t, eta in self.points
        ]
        return format_table(
            ["#expressions", "optimization [ms]", "eta"],
            rows,
            title=f"Fig 7 — scalability of {self.query} w.r.t. #expressions (CR+A)",
        )


def scalability_expressions(
    catalog: Catalog,
    network: NetworkModel,
    query_name: str,
    counts: tuple[int, ...] = (12, 25, 50, 100),
    template: str = "CR+A",
    policy_seed: int = 31,
    repetitions: int = DEFAULT_REPETITIONS,
) -> ExpressionScalability:
    sql = QUERIES[query_name]
    points: list[tuple[int, TimedRun, int]] = []
    for count in counts:
        policies = PolicyGenerator(
            catalog, seed=policy_seed, hub="NorthAmerica"
        ).generate(template, count)
        optimizer = CompliantOptimizer(catalog, policies, network)
        timing = TimedRun.measure(lambda: optimizer.optimize(sql), repetitions)
        # η: how often an expression is applied (Algorithm 1 reaching line
        # 4) during one optimization.
        probe = CompliantOptimizer(catalog, policies, network)
        probe.evaluator.reset_stats()
        probe.optimize(sql)
        points.append((count, timing, probe.evaluator.stats.eta))
    return ExpressionScalability(query_name, points)


# ---------------------------------------------------------------------------
# Fig. 7(d)(e) — scalability in the number of table locations (GAV)
# ---------------------------------------------------------------------------


@dataclass
class FragmentScalability:
    query: str
    points: list[tuple[int, TimedRun]]

    def table(self) -> str:
        rows = [[n, f"{t.mean_ms:.1f}"] for n, t in self.points]
        return format_table(
            ["#table locations", "optimization [ms]"],
            rows,
            title=f"Fig 7(d/e) — {self.query} with customer+orders fragmented",
        )


def fragmented_policies(catalog: Catalog, hub: str = "NorthAmerica") -> PolicyCatalog:
    """Per-fragment policy expressions for the §7.5 setup: every stored
    fragment may ship to the hub (feasibility), nation/region anywhere, and
    lineitem revenue data only aggregated into Europe (CR+A flavour)."""
    policies = PolicyCatalog(catalog)
    for table in catalog.tables:
        for fragment in table.fragments:
            policies.add_text(
                f"ship * from {fragment.database}.{table.name} to {hub}"
            )
    policies.add_text("ship * from nation to *")
    policies.add_text("ship * from region to *")
    policies.add_text(
        "ship l_extendedprice, l_discount as aggregates sum from lineitem "
        "to Europe group by l_suppkey, l_orderkey"
    )
    return policies


def scalability_fragments(
    query_name: str,
    location_counts: tuple[int, ...] = (1, 2, 3, 4, 5),
    scale: float = 1.0,
    repetitions: int = DEFAULT_REPETITIONS,
) -> FragmentScalability:
    sql = QUERIES[query_name]
    points: list[tuple[int, TimedRun]] = []
    for n in location_counts:
        catalog = build_catalog(
            scale=scale,
            fragmented=("customer", "orders") if n > 1 else (),
            fragment_locations=n,
        )
        network = default_network()
        policies = fragmented_policies(catalog)
        optimizer = CompliantOptimizer(catalog, policies, network)
        timing = TimedRun.measure(lambda: optimizer.optimize(sql), repetitions)
        points.append((n, timing))
    return FragmentScalability(query_name, points)


# ---------------------------------------------------------------------------
# Fig. 8 — scalability in the number of locations per policy expression
# ---------------------------------------------------------------------------


@dataclass
class LocationScalability:
    query: str
    points: list[tuple[int, TimedRun, float]]  # (#locations, total, phase2 ms)

    def table(self) -> str:
        rows = [
            [n, f"{t.mean_ms:.1f}", f"{p2:.1f}"]
            for n, t, p2 in self.points
        ]
        return format_table(
            ["#locations per expression", "optimization [ms]", "site selection [ms]"],
            rows,
            title=f"Fig 8 — {self.query} w.r.t. #locations in policy expressions",
        )


def scalability_policy_locations(
    query_name: str,
    location_counts: tuple[int, ...] = (3, 5, 10, 15, 20),
    repetitions: int = DEFAULT_REPETITIONS,
) -> LocationScalability:
    sql = QUERIES[query_name]
    points: list[tuple[int, TimedRun, float]] = []
    for n in location_counts:
        catalog, policies = locations_sweep_policies(None, n)
        network = default_network()
        optimizer = CompliantOptimizer(catalog, policies, network)
        timing = TimedRun.measure(lambda: optimizer.optimize(sql), repetitions)
        result = optimizer.optimize(sql)
        points.append((n, timing, result.phase2_seconds * 1000.0))
    return LocationScalability(query_name, points)

