"""Names, units and bounds of everything the ledger reports.

``BENCHMARK.json`` at the repo root is the same lists in the driver's
format; ``bench_ledger_smoke.py`` asserts the two agree, so a metric
cannot be renamed in one place only.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default ``--seed``; every other seed in a run is derived from it.
DEFAULT_SEED = 2021
#: Never used while the harness was written or sized; the acceptance
#: run in REPEATABILITY.md shows it passes every check.
HELD_OUT_SEED = 7919
#: Default ``--seconds`` (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 30

#: (name, why) — one line each, as BENCHMARK.json wants them.
WORKLOADS = (
    (
        "optimize_cold",
        "first-sight queries through optimize() with the plan cache cleared "
        "each pass: sql+optimizer+policy do the work, execution none (Fig. 6)",
    ),
    (
        "exec_batch_stream",
        "warm plan cache + batch executor, 2-worker scheduler, chunked "
        "compressed SHIP: kernels, wire codec and scheduler do the work",
    ),
    (
        "exec_row_seq",
        "same ops on the row executor, sequential, monolithic SHIP: no "
        "codec, no scheduler, so work moved onto that path shows",
    ),
    (
        "serve_faulted_traced",
        "QueryServer batches under recoverable faults with tracing, JSONL "
        "round-trip and audit on tiny data: the control plane dominates",
    ),
)
WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end only: the relative worsening of the median that counts
    #: as a regression.  ``None``: the healthy value is 0, which can
    #: carry no relative bound; any worsening is a regression.
    bound: float | None = None
    #: A pure function of the seed and the code: identical in every
    #: pass and every run (the run fails otherwise), so at equal seeds
    #: any worsening is a regression.  ``bound`` is then only what runs
    #: of *different* seeds may differ by, which is how the driver
    #: judges the benchmark.
    exact: bool = False


#: End-to-end metrics, reported for every workload by the untraced run.
#:
#: The timing bounds are what this shared 2-core sandbox can hold, not
#: what ISSUE 12 hoped for (0.06, 0.10 for set-up).  The driver judges
#: the benchmark by two sets of ten runs of ten different seeds, taken
#: over three quarters of an hour.  Two such sets of identical code
#: differed by up to 11.7 % in their medians here, two five-run sets at
#: one seed by up to 6.7 %, and within an hour the box itself slowed by
#: a sixth and then by 1.4-1.6 x (REPEATABILITY.md).  Best-of-P removes
#: disturbances shorter than a run, nothing removes an hour-long one, so
#: wall and CPU times carry the driver's cap.  A claim does not lean on
#: these: it compares two commits at one seed in alternating pairs,
#: where per-op best-of-P resolves 1-3 % and the exact metrics resolve
#: everything.
#:
#: The exact metrics' bounds are at least three times the widest spread
#: seen between ten seeds; ``peak_rss_mb`` (fixed P, no drift) likewise.
END_TO_END = (
    Metric("query_ms_p50", "ms", "lower", 0.25),
    Metric("query_ms_p90", "ms", "lower", 0.25),
    Metric("queries_per_s", "1/s", "higher", 0.25),
    Metric("cpu_ms_per_query", "ms", "lower", 0.25),
    Metric("sim_response_ms", "ms", "lower", 0.25, exact=True),
    Metric("wire_bytes_per_query", "B", "lower", 0.25, exact=True),
    Metric("est_ship_cost_ms", "ms", "lower", 0.20, exact=True),
    Metric("compliant_share", "ratio", "higher", 0.08, exact=True),
    Metric("failed_share", "ratio", "lower", None, exact=True),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.08),
)

#: Per-layer metrics, reported for every workload by the traced run
#: (zero where a workload does not enter the layer).
PER_LAYER = (
    Metric("tpch.datagen_s", "s", "lower"),
    Metric("tpch.rows_loaded", "count", "lower"),
    Metric("sql.parse_ms", "ms", "lower"),
    Metric("sql.bind_ms", "ms", "lower"),
    Metric("optimizer.normalize_ms", "ms", "lower"),
    Metric("optimizer.annotate_ms", "ms", "lower"),
    Metric("optimizer.site_select_ms", "ms", "lower"),
    Metric("optimizer.validate_ms", "ms", "lower"),
    Metric("optimizer.memo_groups", "count", "lower"),
    Metric("optimizer.memo_expressions", "count", "lower"),
    Metric("optimizer.rule_firings", "count", "lower"),
    Metric("optimizer.rejected", "count", "lower"),
    Metric("policy.evaluations", "count", "lower"),
    Metric("policy.expressions_scanned", "count", "lower"),
    Metric("policy.implication_checks", "count", "lower"),
    Metric("policy.implication_cache_hit_ratio", "ratio", "higher"),
    Metric("plancache.prepare_ms", "ms", "lower"),
    Metric("plancache.lookup_ms", "ms", "lower"),
    Metric("plancache.rebind_ms", "ms", "lower"),
    Metric("plancache.store_ms", "ms", "lower"),
    Metric("plancache.hit_ratio", "ratio", "higher"),
    Metric("plancache.entries", "count", "lower"),
    Metric("fragments.split_ms", "ms", "lower"),
    Metric("fragments.per_query", "count", "lower"),
    Metric("fragments.ships_per_query", "count", "lower"),
    Metric("operators.compute_ms", "ms", "lower"),
    Metric("vectorized.compute_ms", "ms", "lower"),
    Metric("operators.rows_scanned", "count", "lower"),
    Metric("operators.executed", "count", "lower"),
    Metric("wire.encode_ms", "ms", "lower"),
    Metric("wire.decode_ms", "ms", "lower"),
    Metric("wire.logical_bytes", "B", "lower"),
    Metric("wire.wire_bytes", "B", "lower"),
    Metric("wire.compression_ratio", "ratio", "higher"),
    Metric("wire.chunks", "count", "lower"),
    Metric("scheduler.run_ms", "ms", "lower"),
    Metric("scheduler.overhead_ms", "ms", "lower"),
    Metric("scheduler.fragments_run", "count", "lower"),
    Metric("scheduler.transfer_attempts", "count", "lower"),
    Metric("scheduler.retries", "count", "lower"),
    Metric("scheduler.recoveries", "count", "lower"),
    Metric("scheduler.retry_wait_sim_ms", "ms", "lower"),
    Metric("network.sim_transfer_ms", "ms", "lower"),
    Metric("server.serve_ms", "ms", "lower"),
    Metric("server.overhead_ms", "ms", "lower"),
    Metric("server.served", "count", "higher"),
    Metric("server.served_late", "count", "lower"),
    Metric("server.shed", "count", "lower"),
    Metric("server.rejected", "count", "lower"),
    Metric("server.partial", "count", "lower"),
    Metric("server.breaker_trips", "count", "lower"),
    Metric("server.breaker_fast_fails", "count", "lower"),
    Metric("server.queue_wait_sim_ms", "ms", "lower"),
    Metric("server.makespan_sim_ms", "ms", "lower"),
    Metric("trace.record_overhead_ms", "ms", "lower"),
    Metric("trace.serialize_ms", "ms", "lower"),
    Metric("trace.parse_ms", "ms", "lower"),
    Metric("trace.events_per_query", "count", "lower"),
    Metric("trace.bytes_per_query", "B", "lower"),
    Metric("auditor.audit_ms", "ms", "lower"),
    Metric("auditor.attempts", "count", "lower"),
    Metric("auditor.chunk_attempts", "count", "lower"),
    Metric("auditor.payloads", "count", "lower"),
    Metric("auditor.violations", "count", "lower"),
    Metric("harness.import_s", "s", "lower"),
    Metric("harness.calib_ms", "ms", "lower"),
    Metric("harness.pass_spread", "ratio", "lower"),
    Metric("harness.trace_overhead_ratio", "ratio", "lower"),
    Metric("harness.failed_share", "ratio", "lower"),
)


def driver_end_to_end() -> tuple[Metric, ...]:
    """The end-to-end metrics ``BENCHMARK.json`` lists and the final
    JSON line carries: the driver takes relative differences of medians,
    so it gets every metric but ``failed_share``, whose healthy value is
    0 and which reaches it as ``failed`` / ``attempted``."""
    return tuple(m for m in END_TO_END if m.bound is not None)



def benchmark_json() -> dict:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in driver_end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
