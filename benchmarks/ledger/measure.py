"""The untraced run: set-up, warm-up, timed passes, end-to-end metrics.

Load shape: closed loop, one client, one process.  A run replays the
workload's fixed op list for a fixed number of passes P, after one
untimed warm-up pass: work is fixed, not duration, so every count
repeats exactly and best-of-P means the same on every machine.  **An
op's latency is its best (minimum) wall time over the P passes**;
percentiles are nearest-rank across the op list.  Pooled single-shot
samples moved 8-11 % between identical runs on the 2-core sandbox;
per-op best-of-P moves 1-3 %.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

from workloads import Sizes
from worlds import WORLDS, Outcome, World


def calibrate() -> float:
    """Milliseconds a fixed pure-Python kernel takes: a reading of the
    machine's speed at this moment.  Reported, never applied."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


class OverBudget(RuntimeError):
    """The fixed passes did not fit ``--seconds``."""


def check_budget(timed_s: float, seconds: float) -> None:
    """``--seconds`` is the time the driver grants the timed section;
    the work is fixed, so a run that overran it is reported as an error
    and never cut short (that would change P)."""
    if timed_s > seconds:
        raise OverBudget(f"the timed passes took {timed_s:.1f} s; --seconds grants {seconds:g}")


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Failures:
    """Ops that failed a check, against ops attempted."""

    attempted: int = 0
    failed: int = 0
    first: list[str] = field(default_factory=list)

    def record(self, name: str, outcome: Outcome, baseline: Outcome | None) -> None:
        self.attempted += 1
        error = outcome.error
        if error is None and baseline is not None and outcome.exact != baseline.exact:
            error = "exact numbers differ from the warm-up pass's"
        if error is not None:
            self.failed += 1
            if len(self.first) < 5:
                self.first.append(f"{name}: {error}")


def set_up(name: str, seed: int, sizes: Sizes) -> tuple[World, list[Outcome], list[float]]:
    """Build ``sizes.setups`` cold worlds, each followed by its warm-up
    pass, and keep the last.  Returns it, its warm-up outcomes and every
    set-up's wall seconds (ops are generated outside the clock: they
    are the harness's work, not the system's)."""
    seconds = []
    for _ in range(sizes.setups):
        world = raws = None
        gc.collect()
        world = WORLDS[name](seed, sizes)
        start = time.perf_counter()
        world.build()
        world.start_pass()
        raws = [world.first_run(op) for op in world.ops]
        seconds.append(time.perf_counter() - start)
    world.prepare_checks()
    outcomes = [world.account(op, raw, warm=False) for op, raw in zip(world.ops, raws)]
    world.finish_warmup(outcomes)
    return world, outcomes, seconds


def run_untraced(name: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    """One untraced run of workload ``name``; returns the result record
    (header facts, end-to-end metrics, failures)."""
    world, baseline, setup_seconds = set_up(name, seed, sizes)
    failures = Failures()
    for op, outcome in zip(world.ops, baseline):
        failures.record(op.name, outcome, None)

    # The world is long-lived: keep it out of the collector's way so a
    # full collection between ops costs the same in every pass.
    gc.collect()
    gc.freeze()

    ops = world.ops
    best = [math.inf] * len(ops)
    best_cpu = [math.inf] * len(ops)
    pass_wall: list[float] = []
    calib: list[float] = []
    started = time.perf_counter()
    for _ in range(sizes.passes[name][0]):
        gc.collect()
        calib.append(calibrate())
        world.start_pass()
        wall = 0.0
        for i, op in enumerate(ops):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            raw = world.run(op)
            t1 = time.perf_counter()
            best_cpu[i] = min(best_cpu[i], time.process_time() - cpu0)
            best[i] = min(best[i], t1 - t0)
            wall += t1 - t0
            failures.record(op.name, world.account(op, raw, warm=True), baseline[i])
        pass_wall.append(wall)
    timed_s = time.perf_counter() - started
    check_budget(timed_s, seconds)

    queries = sum(o.queries for o in baseline)
    compliant = sum(o.compliant for o in baseline)
    per_query_ms = [b * 1000.0 / o.queries for b, o in zip(best, baseline)]
    metrics = {
        "query_ms_p50": nearest_rank(per_query_ms, 0.50),
        "query_ms_p90": nearest_rank(per_query_ms, 0.90),
        "queries_per_s": queries / sum(best),
        "cpu_ms_per_query": sum(best_cpu) * 1000.0 / queries,
        "sim_response_ms": sum(o.sim_ms for o in baseline) / max(1, compliant),
        "wire_bytes_per_query": sum(o.wire_bytes for o in baseline) / max(1, compliant),
        "est_ship_cost_ms": sum(o.est_ms for o in baseline) / max(1, compliant),
        "compliant_share": compliant / queries,
        "failed_share": failures.failed / failures.attempted,
        "setup_s": min(setup_seconds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "workload": name,
        "ops": len(ops),
        "queries": queries,
        "passes": len(pass_wall),
        "timed_s": timed_s,
        "scales": world.scales,
        "calib_ms": statistics.median(calib),
        "pass_spread": max(pass_wall) / min(pass_wall),
        "attempted": failures.attempted,
        "failed": failures.failed,
        "failures": failures.first,
        "metrics": metrics,
    }
