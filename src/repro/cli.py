"""Command-line interface: ``python -m repro <command>``.

A small operator console over the geo-distributed TPC-H deployment, the
curated policy sets, and both optimizers:

.. code-block:: text

    python -m repro explain  "SELECT ..."  [--set CR] [--traditional]
                                           [--traits] [--result-location L]
    python -m repro run      "SELECT ..."  [--set CR] [--scale 0.005]
                                           [--parallel]
                                           [--executor {row,batch}]
                                           [--explain-fragments]
                                           [--faults SPEC] [--retries N]
                                           [--fragment-timeout S]
                                           [--ship-chunk-rows N]
                                           [--ship-compression {none,auto}]
    python -m repro serve    workload.json [--set CR] [--scale 0.005]
                                           [--concurrency N] [--queue-depth N]
                                           [--deadline S] [--site-inflight N]
                                           [--faults SPEC] [--retries N]
                                           [--breaker-threshold F]
                                           [--breaker-cooldown S] [--no-breakers]
    python -m repro audit    "SELECT ..."  [--set CR]
    python -m repro audit    trace.jsonl   [--set CR | --policies FILE]
    python -m repro policies [--set CR]
    python -m repro queries                      # the six TPC-H queries

Named queries (``Q2``, ``Q3``, ``Q5``, ``Q8``, ``Q9``, ``Q10``) may be
used in place of SQL text (in ``serve`` workload files too).

``explain``, ``run``, ``serve``, and ``audit`` accept
``--replicas SPEC`` to register read replicas before planning
(``db1.customer@NorthAmerica;db2.orders@Europe+0.5`` — ``+S`` is the
replica's staleness bound in seconds); the optimizer reads each table
from the cheapest *compliant* copy and the failover planner fails
scans over to alternate compliant replicas before re-placement.
``--max-staleness S`` restricts planning (not failover) to replicas
no staler than ``S`` seconds.  ``audit`` needs the same ``--replicas``
spec the traced run used, so its independently rebuilt catalog can
re-confirm each replica read (an unregistered site is a
``displaced-scan``; a registered one the policies reject is a
``non-compliant-replica``).

``run`` and ``serve`` additionally accept ``--refresh SPEC`` to give
replicas per-site refresh schedules on the simulated clock
(``every:db.table@Site@PERIOD[+PHASE]``, with ``pause:`` / ``degrade:``
refresh faults and ``random:SEED``; grammar mirrors ``--faults``) and
``--staleness-policy {prefer-fresh,wait-for-refresh,read-stale,plan-only}``
to pick how stale replicas are handled at fragment admission.  Either
flag turns on *runtime* freshness checking (implies ``--parallel``):
every scan-bearing admission and failover decision re-derives each
replica's staleness at that instant and demotes replicas violating
``--max-staleness``.  ``audit`` accepts the same ``--refresh`` spec and
``--max-staleness`` bound so the auditor can re-derive per-read
freshness verdicts; a trace carrying staleness evidence audited without
them fails closed.

``run`` and ``serve`` accept ``--trace FILE`` to record every optimizer
decision, SHIP attempt, and admission event as deterministic JSONL;
``audit`` with an existing trace file replays it against the policy set
through the independent compliance auditor (docs/OBSERVABILITY.md).

Exit codes: 0 success, 1 error, 2 query rejected as non-compliant,
3 injected faults degraded the query to a partial-failure result (or,
for ``serve``, degraded at least one workload query), 4 the trace audit
found at least one compliance violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .catalog import FreshnessTracker, apply_refresh_spec, parse_replica_spec
from .errors import NonCompliantQueryError, ReproError
from .execution import (
    COMPRESSION_MODES,
    DEFAULT_CHUNK_ROWS,
    FRESHNESS_MODES,
    ExecutionEngine,
    FreshnessPolicy,
    RetryPolicy,
    ShipConfig,
    explain_fragments,
    fragment_plan,
    parse_fault_spec,
)
from .optimizer import (
    CompliantOptimizer,
    TraditionalOptimizer,
    check_compliance,
)
from .plan import explain_annotated, explain_physical
from .policy import PolicyEvaluator, describe_local_query
from .policy.catalog import PolicyCatalog
from .server import BreakerConfig, BreakerRegistry, QueryServer, load_workload
from .sql import Binder
from .trace import ComplianceAuditor, TraceRecorder, tracing
from .tpch import (
    LOCATIONS,
    QUERIES,
    build_benchmark,
    build_catalog,
    curated_policies,
    default_network,
)


def _resolve_sql(text: str) -> str:
    if text.upper() in QUERIES:
        return QUERIES[text.upper()]
    return text


def _apply_replicas(catalog, spec: str | None) -> None:
    """Register the replicas of a ``--replicas`` spec on ``catalog``."""
    if spec is None:
        return
    for replica in parse_replica_spec(spec):
        catalog.add_replica(
            replica.database,
            replica.table,
            replica.site,
            staleness_seconds=replica.staleness_seconds,
        )


def _build_freshness(catalog, args: argparse.Namespace) -> FreshnessPolicy | None:
    """Build the runtime freshness policy when ``--refresh`` or
    ``--staleness-policy`` was given (``None`` otherwise: runtime
    freshness checking stays off and replica behavior is unchanged)."""
    if args.refresh is None and args.staleness_policy is None:
        return None
    if args.refresh is not None:
        apply_refresh_spec(catalog, args.refresh)
    return FreshnessPolicy(
        FreshnessTracker(catalog),
        mode=args.staleness_policy or "prefer-fresh",
        max_staleness=args.max_staleness,
    )


def _build_ship(args: argparse.Namespace) -> ShipConfig:
    """Build the SHIP wire format from ``--ship-chunk-rows`` /
    ``--ship-compression`` (0 chunk rows = monolithic transfers)."""
    chunk_rows = args.ship_chunk_rows if args.ship_chunk_rows > 0 else None
    return ShipConfig(chunk_rows=chunk_rows, compression=args.ship_compression)


def _retry_policy(args: argparse.Namespace) -> RetryPolicy | None:
    """Build the retry policy from ``--retries`` / ``--fragment-timeout``
    (``None`` when neither was given: the engine's default policy)."""
    if args.retries is None and args.fragment_timeout is None:
        return None
    return RetryPolicy(
        max_retries=RetryPolicy().max_retries if args.retries is None else args.retries,
        fragment_timeout=args.fragment_timeout,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compliant geo-distributed query processing (SIGMOD '21 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_query: bool = True) -> None:
        if with_query:
            p.add_argument("query", help="SQL text or a named TPC-H query (Q2..Q10)")
        p.add_argument(
            "--set",
            dest="policy_set",
            default="CR",
            choices=["T", "C", "CR", "CR+A"],
            help="curated policy-expression set (default: CR)",
        )

    def add_replicas(p: argparse.ArgumentParser, planning: bool = True) -> None:
        p.add_argument(
            "--replicas",
            default=None,
            metavar="SPEC",
            help="register read replicas before planning; ';'-separated "
            "entries db.table@Site[+STALENESS_SECONDS]",
        )
        if planning:
            p.add_argument(
                "--max-staleness",
                type=float,
                default=None,
                metavar="SECONDS",
                help="only plan scans on replicas whose declared staleness "
                "bound is at most SECONDS (default: any replica)",
            )

    def add_freshness(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--refresh",
            default=None,
            metavar="SPEC",
            help="give replicas refresh schedules on the simulated clock "
            "(implies --parallel); ';'-separated events: "
            "every:db.table@SITE@PERIOD[+PHASE], "
            "pause:db.table@SITE@T[+DUR], "
            "degrade:db.table@SITE@T[+DUR]xFACTOR, random:SEED",
        )
        p.add_argument(
            "--staleness-policy",
            default=None,
            choices=list(FRESHNESS_MODES),
            help="how stale replicas are handled at fragment admission "
            "(implies --parallel; default with --refresh: prefer-fresh). "
            "'plan-only' records staleness without enforcing the bound",
        )

    def add_ship(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ship-chunk-rows",
            type=int,
            default=DEFAULT_CHUNK_ROWS,
            metavar="N",
            help="stream every SHIP as fixed-size chunks of N rows so "
            "consumer fragments start on first-chunk arrival "
            f"(default {DEFAULT_CHUNK_ROWS}; 0 = monolithic transfers)",
        )
        p.add_argument(
            "--ship-compression",
            default="auto",
            choices=list(COMPRESSION_MODES),
            help="per-column wire compression: 'auto' picks the cheapest "
            "of plain/dict/RLE per column (default), 'none' ships "
            "plain (billed bytes = logical bytes)",
        )

    def add_execution(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scale", type=float, default=0.005, help="TPC-H data scale (default 0.005)"
        )
        p.add_argument(
            "--executor",
            default="row",
            choices=["row", "batch"],
            help="operator backend: tuple-at-a-time 'row' (default) or the "
            "columnar 'batch' executor with compiled batch kernels "
            "(row-identical results; see docs/EXECUTION.md)",
        )
        p.add_argument(
            "--faults",
            default=None,
            metavar="SPEC",
            help="inject WAN faults (run: implies --parallel); ';'-separated events: "
            "crash:SITE@T, drop:SRC->DST@T[+DUR], slow:SRC->DST@T[+DUR]xFACTOR, "
            "flaky:SRC->DST@T+DUR, random:SEED",
        )
        p.add_argument(
            "--retries",
            type=int,
            default=None,
            metavar="N",
            help="max retries per transfer under --faults (default 3)",
        )
        p.add_argument(
            "--fragment-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="cap each fragment's input-delivery span on the simulated "
            "clock; exceeding it triggers failover (default: no cap)",
        )
        p.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="record optimizer decisions, admission decisions and every "
            "SHIP attempt as deterministic JSONL to FILE (audit it with "
            "'repro audit FILE')",
        )
        p.add_argument(
            "--plan-cache",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="cache optimized plans keyed by (query shape, parameter "
            "signature, policy version); repeated templates skip both "
            "optimizer phases (default: on; --no-plan-cache disables)",
        )

    explain = sub.add_parser("explain", help="optimize and print the plan")
    add_common(explain)
    add_replicas(explain)
    explain.add_argument(
        "--traditional", action="store_true", help="use the policy-unaware baseline"
    )
    explain.add_argument(
        "--traits", action="store_true", help="also print the annotated plan (E/S traits)"
    )
    explain.add_argument(
        "--result-location", default=None, help="deliver the result to this location"
    )

    run = sub.add_parser("run", help="optimize, execute on generated data, print rows")
    add_common(run)
    add_replicas(run)
    add_freshness(run)
    add_ship(run)
    add_execution(run)
    run.add_argument(
        "--result-location", default=None, help="deliver the result to this location"
    )
    run.add_argument("--limit", type=int, default=20, help="print at most N rows")
    run.add_argument(
        "--parallel",
        action="store_true",
        help="execute the plan fragment by fragment on the simulated WAN "
        "clock and report the critical-path makespan alongside the "
        "shipping-time sum",
    )
    run.add_argument(
        "--explain-fragments",
        action="store_true",
        help="print the per-site fragment DAG (and, with --parallel, "
        "per-fragment simulated timings) before the rows",
    )

    serve = sub.add_parser(
        "serve",
        help="replay a JSON workload file through the concurrent query "
        "server (admission control, circuit breakers, load shedding)",
    )
    serve.add_argument(
        "workload",
        help="JSON workload file: a list of requests with query/arrival/"
        "deadline/priority fields (query = SQL or Q2..Q10)",
    )
    add_common(serve, with_query=False)
    add_replicas(serve)
    add_freshness(serve)
    add_ship(serve)
    add_execution(serve)
    serve.add_argument(
        "--concurrency",
        type=int,
        default=4,
        metavar="N",
        help="queries in service at once (default 4)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="bounded waiting-queue size; arrivals beyond it are "
        "rejected with a typed AdmissionRejected (default 16)",
    )
    serve.add_argument(
        "--site-inflight",
        type=int,
        default=None,
        metavar="N",
        help="per-site in-flight fragment limit (default: unlimited)",
    )
    serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-query deadline in simulated seconds after "
        "arrival; past-deadline queries are shed (default: none)",
    )
    serve.add_argument(
        "--breaker-threshold",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="failure fraction of the rolling window that opens a "
        "per-link circuit breaker (default 0.5)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="simulated seconds an open breaker waits before "
        "half-opening (default 0.5)",
    )
    serve.add_argument(
        "--no-breakers",
        action="store_true",
        help="disable circuit breakers (every transfer retries even on "
        "a link that keeps failing)",
    )

    audit = sub.add_parser(
        "audit",
        help="audit a recorded execution trace against the policy set "
        "(exit 4 on violation), or print the legal shipping "
        "destinations of a (single-database) query",
    )
    audit.add_argument(
        "query",
        metavar="QUERY_OR_TRACE",
        help="a JSONL trace file recorded with --trace, or SQL text / a "
        "named TPC-H query (Q2..Q10)",
    )
    add_common(audit, with_query=False)
    audit.add_argument(
        "--policies",
        default=None,
        metavar="FILE",
        help="audit against policy expressions from FILE (one per line, "
        "'#' comments) instead of a curated --set",
    )
    add_replicas(audit, planning=False)
    audit.add_argument(
        "--refresh",
        default=None,
        metavar="SPEC",
        help="the --refresh spec the traced run used, so the auditor can "
        "independently re-derive each replica read's staleness",
    )
    audit.add_argument(
        "--max-staleness",
        type=float,
        default=None,
        metavar="SECONDS",
        help="staleness bound for freshness verdicts on traces that "
        "carry no per-query bound (default: reads are never "
        "bound-violated, only fresh or stale)",
    )

    policies = sub.add_parser("policies", help="print a curated policy set")
    add_common(policies, with_query=False)

    sub.add_parser("queries", help="list the six TPC-H evaluation queries")
    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    catalog = build_catalog(scale=1.0)
    _apply_replicas(catalog, args.replicas)
    network = default_network()
    sql = _resolve_sql(args.query)
    policy_catalog = curated_policies(catalog, args.policy_set)
    if args.traditional:
        optimizer = TraditionalOptimizer(catalog, network)
        result = optimizer.optimize(sql, result_location=args.result_location)
        evaluator = PolicyEvaluator(policy_catalog)
        violations = check_compliance(result.plan, evaluator)
    else:
        optimizer = CompliantOptimizer(
            catalog, policy_catalog, network, max_staleness=args.max_staleness
        )
        result = optimizer.optimize(sql, result_location=args.result_location)
        violations = []
    print(explain_physical(result.plan, show_rows=True))
    if args.traits:
        print("\nAnnotated plan (phase 1):")
        print(explain_annotated(result.annotate.root))
    print(
        f"\noptimization: {result.phase1_seconds * 1e3:.1f} ms (annotator) + "
        f"{result.phase2_seconds * 1e3:.1f} ms (site selector); "
        f"{result.annotate.group_count} memo groups / "
        f"{result.annotate.expression_count} expressions"
    )
    if args.traditional:
        print(f"compliant under set {args.policy_set}: {not violations}")
        for violation in violations:
            print("  violation:", violation)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    catalog, database = build_benchmark(scale=args.scale, stats_scale=1.0)
    _apply_replicas(catalog, args.replicas)
    freshness = _build_freshness(catalog, args)
    network = default_network()
    policy_catalog = curated_policies(catalog, args.policy_set)
    optimizer = CompliantOptimizer(
        catalog,
        policy_catalog,
        network,
        plan_cache=args.plan_cache,
        max_staleness=args.max_staleness,
    )
    recorder = TraceRecorder() if args.trace is not None else None
    with tracing(recorder) if recorder is not None else nullcontext():
        result = optimizer.optimize(
            _resolve_sql(args.query), result_location=args.result_location
        )
        if args.explain_fragments:
            print(explain_fragments(fragment_plan(result.plan)))
            print()
        faults = None
        if args.faults is not None:
            faults = parse_fault_spec(args.faults, locations=catalog.locations)
            parallel = True  # faults live on the fragment scheduler's clock
        else:
            # Freshness checks also live on the simulated clock.
            parallel = args.parallel or freshness is not None
        engine = ExecutionEngine(
            database,
            network,
            policy_guard=optimizer.evaluator,
            parallel=parallel,
            faults=faults,
            retry_policy=_retry_policy(args),
            executor=args.executor,
            freshness=freshness,
            ship=_build_ship(args),
        )
        # Pass the whole OptimizationResult: a store-time-validated plan
        # skips the engine's redundant guard re-check.
        output = engine.execute(result)
    if recorder is not None:
        events = recorder.write(args.trace)
        print(f"trace: {events} events -> {args.trace}", file=sys.stderr)
    print("\t".join(output.columns))
    for row in output.rows[: args.limit]:
        print("\t".join(str(v) for v in row))
    if len(output.rows) > args.limit:
        print(f"... ({len(output.rows)} rows total)")
    summary = (
        f"\n{output.metrics.total_rows_shipped} rows / "
        f"{output.metrics.total_bytes_shipped} bytes shipped across borders "
        f"({output.simulated_cost:.3f} s simulated transfer time)"
    )
    if parallel:
        summary += f"; {output.makespan_seconds:.3f} s simulated makespan"
    wire_bytes = output.metrics.total_wire_bytes_shipped
    if wire_bytes != output.metrics.total_bytes_shipped:
        summary += (
            f"; {wire_bytes} wire bytes in "
            f"{output.metrics.total_chunks_shipped} chunks"
        )
    print(summary, file=sys.stderr)
    if faults is not None:
        print(f"injected faults: {faults}", file=sys.stderr)
        print(
            f"{output.metrics.transfer_attempts} transfer attempts over "
            f"{len(output.metrics.ships)} transfers; "
            f"{output.metrics.retry_wait_seconds:.3f} s simulated retry backoff",
            file=sys.stderr,
        )
        for recovery in output.metrics.recoveries:
            validated = "validated" if recovery.validated else "unvalidated"
            print(
                f"failover ({recovery.kind}): f{recovery.fragment_index} "
                f"{recovery.from_site} -> {recovery.to_site} at "
                f"t={recovery.at_seconds:.3f}s ({validated}; {recovery.reason})",
                file=sys.stderr,
            )
        if output.metrics.replica_failovers:
            print(
                f"replica failovers: {output.metrics.replica_failovers} "
                f"({output.metrics.replica_switches_breaker} breaker-steered, "
                f"{output.metrics.partial_failures_avoided} partial failures "
                f"avoided)",
                file=sys.stderr,
            )
    if freshness is not None:
        bound = (
            f", bound {freshness.max_staleness:g}s"
            if freshness.max_staleness is not None
            else ""
        )
        print(
            f"freshness ({freshness.mode}{bound}): "
            f"{len(output.metrics.scan_reads)} replica reads, "
            f"{output.metrics.stale_reads} stale, "
            f"{output.metrics.refresh_waits} refresh waits "
            f"({output.metrics.refresh_wait_seconds:.3f}s waited), "
            f"{output.metrics.freshness_demotions} freshness demotions",
            file=sys.stderr,
        )
    if args.explain_fragments and parallel:
        print("\nfragment timings (simulated WAN clock):", file=sys.stderr)
        for record in output.metrics.fragments:
            print(
                f"  f{record.index} @ {record.location:14s} "
                f"rows={record.rows_out:<8d} "
                f"compute={record.compute_seconds * 1e3:7.1f} ms  "
                f"sim [{record.sim_start_seconds:.3f}s "
                f"-> {record.sim_finish_seconds:.3f}s]",
                file=sys.stderr,
            )
    if output.partial_failure is not None:
        print(f"PARTIAL FAILURE: {output.partial_failure}", file=sys.stderr)
        return 3
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    requests = load_workload(args.workload, resolve=_resolve_sql)
    catalog, database = build_benchmark(scale=args.scale, stats_scale=1.0)
    _apply_replicas(catalog, args.replicas)
    freshness = _build_freshness(catalog, args)
    network = default_network()
    policy_catalog = curated_policies(catalog, args.policy_set)
    optimizer = CompliantOptimizer(
        catalog,
        policy_catalog,
        network,
        plan_cache=args.plan_cache,
        max_staleness=args.max_staleness,
    )
    faults = (
        parse_fault_spec(args.faults, locations=catalog.locations)
        if args.faults is not None
        else None
    )
    breakers = None
    if not args.no_breakers:
        breakers = BreakerRegistry(
            BreakerConfig(
                failure_threshold=args.breaker_threshold,
                cooldown=args.breaker_cooldown,
            )
        )
    server = QueryServer(
        database,
        network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=args.concurrency,
        queue_depth=args.queue_depth,
        site_inflight=args.site_inflight,
        default_deadline=args.deadline,
        breakers=breakers,
        faults=faults,
        retry_policy=_retry_policy(args),
        executor=args.executor,
        freshness=freshness,
        ship=_build_ship(args),
    )
    recorder = TraceRecorder() if args.trace is not None else None
    with tracing(recorder) if recorder is not None else nullcontext():
        result = server.serve(requests)
    if recorder is not None:
        events = recorder.write(args.trace)
        print(f"trace: {events} events -> {args.trace}", file=sys.stderr)
    for outcome in result.outcomes:
        print(outcome.describe())
    print(f"\n{result.metrics.summary()}", file=sys.stderr)
    if optimizer.plan_cache is not None:
        print(
            f"plan cache: {optimizer.plan_cache.stats.summary()}",
            file=sys.stderr,
        )
    if faults is not None:
        print(f"injected faults: {faults}", file=sys.stderr)
    if breakers is not None and result.metrics.breaker_states:
        states = ", ".join(
            f"{link}={state}" for link, state in result.metrics.breaker_states.items()
        )
        print(f"breakers: {states}", file=sys.stderr)
    if not result.metrics.reconciles():  # pragma: no cover - defensive
        print("error: outcome buckets do not reconcile", file=sys.stderr)
        return 1
    return 3 if result.metrics.partial else 0


def _load_policy_file(catalog, path: str) -> PolicyCatalog:
    policies = PolicyCatalog(catalog)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            policies.add_text(text)
    return policies


def _cmd_audit(args: argparse.Namespace) -> int:
    catalog = build_catalog(scale=1.0)
    # The audit catalog is rebuilt independently of the traced run, so
    # the replicas the run planned against must be re-registered here —
    # a replica read the auditor does not know about is, correctly, a
    # displaced-scan violation.
    _apply_replicas(catalog, args.replicas)
    if os.path.isfile(args.query):
        # Trace-audit mode: replay a recorded execution against the
        # policy set through the independent compliance auditor.
        if args.policies is not None:
            policy_catalog = _load_policy_file(catalog, args.policies)
        else:
            policy_catalog = curated_policies(catalog, args.policy_set)
        # Freshness verdicts need an audit-side tracker mirroring the
        # traced run's replica/refresh configuration.  Built whenever
        # replicas are declared; a trace carrying staleness evidence
        # audited without one fails closed (FreshnessAuditError).
        if args.refresh is not None:
            apply_refresh_spec(catalog, args.refresh)
        tracker = (
            FreshnessTracker(catalog)
            if args.refresh is not None or args.replicas is not None
            else None
        )
        report = ComplianceAuditor(
            policy_catalog,
            freshness=tracker,
            max_staleness=args.max_staleness,
        ).audit_file(args.query)
        print(report.summary())
        for violation in report.violations:
            print(f"  VIOLATION: {violation}")
        return 4 if report.violations else 0
    if args.policies is not None:
        print(
            "error: --policies requires a trace file (the query form "
            "audits against a curated --set)",
            file=sys.stderr,
        )
        return 1
    policy_catalog = curated_policies(catalog, args.policy_set)
    plan = Binder(catalog).bind_sql(_resolve_sql(args.query))
    local_query = describe_local_query(plan)
    destinations = PolicyEvaluator(policy_catalog).evaluate(local_query)
    print(f"legal destinations under set {args.policy_set}:")
    for location in LOCATIONS:
        marker = "ALLOWED" if location in destinations else "denied"
        print(f"  {location:14s} {marker}")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    catalog = build_catalog(scale=1.0)
    policy_catalog = curated_policies(catalog, args.policy_set)
    for expression in policy_catalog.expressions:
        print(expression)
    return 0


def _cmd_queries(_args: argparse.Namespace) -> int:
    for name, sql in QUERIES.items():
        print(f"-- {name}")
        print(sql.strip())
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "explain": _cmd_explain,
        "run": _cmd_run,
        "serve": _cmd_serve,
        "audit": _cmd_audit,
        "policies": _cmd_policies,
        "queries": _cmd_queries,
    }
    try:
        return handlers[args.command](args)
    except NonCompliantQueryError as error:
        print(f"REJECTED: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
