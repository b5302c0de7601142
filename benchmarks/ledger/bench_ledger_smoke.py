"""Smoke tests of the ledger harness: ``pytest benchmarks/ledger``.

They run every workload at ``--smoke`` size (tiny scales, one pass),
untraced and traced, and exercise the correctness checks and
``--compare`` — everything but the timed passes.  Run with
``PYTHONPATH=src`` like the other benchmarks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from compare import compare, worsening  # noqa: E402
from measure import Failures, OverBudget, check_budget, nearest_rank  # noqa: E402
from spec import (  # noqa: E402
    END_TO_END,
    HELD_OUT_SEED,
    PER_LAYER,
    WORKLOAD_NAMES,
    benchmark_json,
    driver_end_to_end,
)
from workloads import FULL, SMOKE, exec_ops, optimize_ops, serve_ops  # noqa: E402
from worlds import Outcome, same_rows  # noqa: E402


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_is_the_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == benchmark_json()
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in committed["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in committed["end_to_end"])
    # The driver gets no metric whose healthy value is 0, and gives
    # set-up time the largest bound.
    assert max(m["bound"] for m in committed["end_to_end"]) == next(
        m["bound"] for m in committed["end_to_end"] if m["name"] == "setup_s")
    assert [m.name for m in END_TO_END if m not in driver_end_to_end()] == ["failed_share"]
    assert set(FULL.passes) == set(WORKLOAD_NAMES)
    assert FULL.passes["optimize_cold"][0] >= 7 and min(p for p, _ in FULL.passes.values()) >= 3


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_reports_every_metric(workload, trace):
    done = run("--workload", workload, "--smoke", "--trace", trace,
               "--seed", str(HELD_OUT_SEED))
    assert done.returncode == 0, done.stdout + done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    wanted = PER_LAYER if trace == "1" else driver_end_to_end()
    assert list(final["metrics"]) == [m.name for m in wanted]
    assert all(final["metrics"][m.name]["unit"] == m.unit for m in wanted)
    if trace == "0":
        assert all(final["metrics"][m.name]["value"] > 0 for m in wanted)
        printed = [line.split()[0] for line in done.stdout.splitlines()[1:-1]]
        assert printed == [m.name for m in END_TO_END]


def test_a_one_seed_set_repeats_its_exact_metrics_and_compares_clean(tmp_path):
    out = tmp_path / "set.json"
    done = run("--workload", "exec_row_seq", "--smoke", "--runs", "2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(out.read_text())
    assert report["seeds"] == [2021, 2021]
    metrics = report["workloads"]["exec_row_seq"]["metrics"]
    assert list(metrics) == [m.name for m in END_TO_END]
    assert all(len(set(metrics[m.name]["values"])) == 1 for m in END_TO_END if m.exact)
    assert compare(report, report)[1] == 0
    stepped = run("--workload", "exec_row_seq", "--smoke", "--runs", "2", "--seed-step", "3",
                  "--out", str(out))
    assert stepped.returncode == 0 and json.loads(out.read_text())["seeds"] == [2021, 2024]


def test_ops_depend_on_the_seed_but_their_counts_do_not():
    for sizes in (SMOKE, FULL):
        for make in (optimize_ops, exec_ops):
            first, again, other = make(1, sizes), make(1, sizes), make(2, sizes)
            assert first == again
            assert first != other and len(first) == len(other)
    queries = exec_ops(1, FULL)
    batches = serve_ops(1, FULL, queries)
    assert batches == serve_ops(1, FULL, queries) != serve_ops(2, FULL, queries)
    assert len(batches) == FULL.batches >= 100
    assert all(len({i for _, i, _ in op.requests}) == FULL.batch_size for op in batches)
    assert len(queries) >= 120 and len(optimize_ops(1, FULL)) >= 100


def test_a_run_that_overran_its_budget_is_an_error():
    check_budget(19.0, 25.0)
    with pytest.raises(OverBudget):
        check_budget(25.1, 25.0)


def test_row_check_tolerates_float_noise_only():
    rows = [("a", 1.0), ("b", 2.0)]
    assert same_rows([("b", 2.0 + 1e-12), ("a", 1.0)], rows, ordered=False)
    assert not same_rows([("b", 2.0), ("a", 1.0)], rows, ordered=True)
    assert not same_rows([("a", 1.0), ("b", 2.1)], rows, ordered=True)
    assert not same_rows([("a", 1.0)], rows, ordered=False)
    assert not same_rows([("a", 1), ("b", 2.0)], rows, ordered=True)  # int is not float


def test_failures_count_errors_and_inexact_repeats():
    failures = Failures()
    base = Outcome(1, 1, 1.0, 2.0, 3.0, exact=(5,))
    failures.record("ok", Outcome(1, 1, 1.0, 2.0, 3.0, exact=(5,)), base)
    failures.record("drift", Outcome(1, 1, 1.0, 2.0, 3.0, exact=(6,)), base)
    failures.record("wrong", Outcome(1, 1, 1.0, 2.0, 3.0, exact=(5,), error="rows differ"), base)
    assert (failures.attempted, failures.failed) == (3, 2)
    assert nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    assert nearest_rank(list(map(float, range(1, 101))), 0.9) == 90.0


def _report(scale: float, correct: bool = True) -> dict:
    """Every bounded metric at ``10 * scale``; ``failed_share`` at 0."""
    metrics = {}
    for m in END_TO_END:
        value = 10.0 * scale if m.bound is not None else 0.0
        metrics[m.name] = {"unit": m.unit, "values": [value], "median": value,
                           "q1": value, "q3": value, "spread": 0.0}
    return {"seeds": [1, 2], "workloads": {"w": {"correct": correct, "attempted": 4,
                                                 "failed": 0 if correct else 1,
                                                 "metrics": metrics}}}


def test_compare_marks_only_differences_beyond_the_bound():
    assert compare(_report(1.0), _report(1.0))[1] == 0
    assert compare(_report(1.0), _report(1.02))[1] == 0
    # 30 % up: worse for every lower-is-better metric, better for the rest.
    lines, regressions = compare(_report(1.0), _report(1.3))
    assert regressions == sum(m.better == "lower" for m in driver_end_to_end())
    assert sum("REGRESSION" in line for line in lines) == regressions
    # Halved: worse for every higher-is-better metric only.
    assert compare(_report(2.0), _report(1.0))[1] == sum(m.better == "higher" for m in END_TO_END)
    # failed_share has no relative bound: leaving 0 is a regression.
    failing = _report(1.0)
    failing["workloads"]["w"]["metrics"]["failed_share"]["median"] = 0.001
    assert compare(_report(1.0), failing)[1] == 1 and compare(failing, _report(1.0))[1] == 0
    assert compare(_report(1.0), _report(1.0, correct=False))[1] == 1


def test_compare_from_zero_follows_the_metric_s_direction():
    lower, higher = END_TO_END[0], END_TO_END[2]
    assert (lower.better, higher.better) == ("lower", "higher")
    assert worsening(lower, 0.0, 0.0) == worsening(higher, 0.0, 0.0) == 0.0
    assert worsening(lower, 0.0, 3.0) == float("inf")  # e.g. failed_share leaving 0
    assert worsening(higher, 0.0, 3.0) == float("-inf")  # an improvement, not a regression
    assert worsening(lower, 4.0, 0.0) == -1.0


def test_compare_holds_exact_metrics_to_zero_at_one_seed():
    """2 % worse is inside every bound, but at one and the same seed an
    exact metric may not worsen at all."""
    a, b = _report(1.0), _report(1.02)
    a["seeds"] = b["seeds"] = [7, 7, 7]
    exact = [m for m in driver_end_to_end() if m.exact]
    assert compare(a, b)[1] == sum(m.better == "lower" for m in exact) > 0
    assert compare(b, a)[1] == sum(m.better == "higher" for m in exact) > 0


def test_compare_command_exit_codes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_report(1.0)))
    b.write_text(json.dumps(_report(1.5)))
    assert run("--compare", str(a), str(a)).returncode == 0
    worse = run("--compare", str(a), str(b))
    assert worse.returncode == 1 and "REGRESSION" in worse.stdout


def test_refuses_to_run_without_the_system_under_test(tmp_path):
    """The driver also runs the command where only the benchmark's own
    files exist; it must fail fast without printing a result."""
    import shutil

    target = tmp_path / "benchmarks" / "ledger"
    target.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, target / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0 and not done.stdout.strip()
