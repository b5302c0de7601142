"""Fault model unit tests: the deterministic fault schedule, the CLI
fault-spec grammar, the fault-aware network view, and the retry policy's
deterministic backoff."""

import pytest

from repro.errors import ExecutionError, SiteUnavailableError, TransferError
from repro.execution import (
    FaultPlan,
    FlakyLink,
    LinkDown,
    RetryPolicy,
    SiteCrash,
    SlowLink,
    parse_fault_spec,
    stable_fraction,
)
from repro.geo import FaultAwareNetwork, NetworkModel


class TestFaultPlan:
    def test_site_crash_is_permanent(self):
        plan = FaultPlan([SiteCrash("Asia", at=1.0)])
        assert not plan.site_down("Asia", 0.999)
        assert plan.site_down("Asia", 1.0)
        assert plan.site_down("Asia", 100.0)
        assert not plan.site_down("Europe", 5.0)
        assert plan.crashed_sites(0.5) == frozenset()
        assert plan.crashed_sites(2.0) == frozenset({"Asia"})

    def test_link_down_window(self):
        outage = LinkDown("A", "B", at=1.0, duration=0.5)
        plan = FaultPlan([outage])
        assert plan.link_down("A", "B", 0.9) is None
        assert plan.link_down("A", "B", 1.0) is outage
        assert plan.link_down("A", "B", 1.49) is outage
        assert plan.link_down("A", "B", 1.5) is None
        assert plan.link_down("B", "A", 1.2) is None  # directed

    def test_link_down_permanent(self):
        plan = FaultPlan([LinkDown("A", "B", at=1.0)])
        assert plan.link_down("A", "B", 99.0) is not None

    def test_flaky_window(self):
        plan = FaultPlan([FlakyLink("A", "B", at=0.0, duration=0.2)])
        assert plan.link_flaky("A", "B", 0.0) is not None
        assert plan.link_flaky("A", "B", 0.2) is None

    def test_slow_factors_stack(self):
        plan = FaultPlan(
            [
                SlowLink("A", "B", factor=2.0, at=0.0, duration=1.0),
                SlowLink("A", "B", factor=3.0, at=0.5, duration=1.0),
            ]
        )
        assert plan.slow_factor("A", "B", 0.1) == pytest.approx(2.0)
        assert plan.slow_factor("A", "B", 0.7) == pytest.approx(6.0)
        assert plan.slow_factor("A", "B", 1.2) == pytest.approx(3.0)
        assert plan.slow_factor("A", "B", 2.0) == pytest.approx(1.0)
        assert plan.slow_factor("B", "A", 0.7) == pytest.approx(1.0)

    def test_bool_and_str(self):
        assert not FaultPlan()
        assert str(FaultPlan()) == "(no faults)"
        plan = FaultPlan([SiteCrash("X", at=0.25)])
        assert plan
        assert str(plan) == "crash:X@0.25"

    def test_random_is_deterministic(self):
        sites = ("A", "B", "C")
        one = FaultPlan.random(7, sites)
        two = FaultPlan.random(7, sites)
        assert one.events == two.events
        assert FaultPlan.random(8, sites).events != one.events

    def test_random_transient_only_draws_no_permanent_faults(self):
        sites = ("A", "B", "C", "D")
        for seed in range(30):
            plan = FaultPlan.random(seed, sites)
            assert plan.events
            assert all(
                isinstance(e, (FlakyLink, SlowLink)) for e in plan.events
            )

    def test_random_pairs_restrict_links(self):
        pairs = [("A", "B")]
        for seed in range(10):
            plan = FaultPlan.random(seed, ("A", "B", "C"), pairs=pairs)
            assert all((e.source, e.target) == ("A", "B") for e in plan.events)

    def test_random_single_site_is_empty(self):
        assert not FaultPlan.random(1, ("Solo",))


class TestParseFaultSpec:
    def test_grammar(self):
        plan = parse_fault_spec(
            "crash:Asia@0.5; drop:A->B@1+0.25; slow:A->B@0x4; flaky:B->A@0.1+0.2"
        )
        crash, drop, slow, flaky = plan.events
        assert crash == SiteCrash("Asia", at=0.5)
        assert drop == LinkDown("A", "B", at=1.0, duration=0.25)
        assert slow == SlowLink("A", "B", factor=4.0, at=0.0, duration=None)
        assert flaky == FlakyLink("B", "A", at=0.1, duration=0.2)

    def test_roundtrip_through_str(self):
        spec = "crash:Asia@0.5; drop:A->B@1+0.25; slow:A->B@0x4; flaky:B->A@0.1+0.2"
        plan = parse_fault_spec(spec)
        assert parse_fault_spec(str(plan)).events == plan.events

    def test_random_spec_needs_locations(self):
        with pytest.raises(ExecutionError, match="site list"):
            parse_fault_spec("random:42")
        plan = parse_fault_spec("random:42", locations=["A", "B", "C"])
        assert plan.events == FaultPlan.random(42, ["A", "B", "C"]).events

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:Asia@1",
            "drop:AB@1",
            "slow:A->B@1",  # missing xFACTOR
            "flaky:A->B@1",  # missing +DURATION
            "crash:Asia@oops",
        ],
    )
    def test_bad_events_raise(self, bad):
        with pytest.raises(ExecutionError, match="bad fault event"):
            parse_fault_spec(bad)

    def test_empty_segments_ignored(self):
        assert parse_fault_spec(" ; ;crash:X@1; ").events == [SiteCrash("X", at=1.0)]


@pytest.fixture()
def wan():
    base = NetworkModel()
    base.set_link("A", "B", alpha=0.1, beta=1e-6)
    base.set_link("B", "A", alpha=0.1, beta=1e-6)
    return base


class _RecordingGovernor:
    """A LinkGovernor that allows everything and logs what it is told."""

    def __init__(self):
        self.reports = []

    def allow(self, source, target, when):
        return True

    def record_success(self, source, target, when):
        self.reports.append(("success", source, target, when))

    def record_failure(self, source, target, when):
        self.reports.append(("failure", source, target, when))


@pytest.mark.parametrize("include_alpha", [True, False], ids=["alpha", "no-alpha"])
class TestFaultAwareNetwork:
    """``include_alpha`` is connection state (first send of a connection
    or not): it changes the price of a successful send and nothing else
    — fault classification and breaker reports are identical."""

    @staticmethod
    def healthy(wan, nbytes, include_alpha):
        cost = wan.link("A", "B")
        return (cost.alpha if include_alpha else 0.0) + cost.beta * nbytes

    def test_no_faults_matches_base(self, wan, include_alpha):
        net = FaultAwareNetwork(wan, FaultPlan())
        seconds = net.attempt_transfer("A", "B", 1000, 0.0, include_alpha=include_alpha)
        assert seconds == pytest.approx(self.healthy(wan, 1000, include_alpha))
        if include_alpha:
            # The default: a monolithic send is a whole connection.
            assert seconds == net.attempt_transfer("A", "B", 1000, 0.0)
            assert seconds == pytest.approx(wan.transfer_time("A", "B", 1000))

    def test_crashed_endpoint_raises(self, wan, include_alpha):
        net = FaultAwareNetwork(wan, FaultPlan([SiteCrash("B", at=1.0)]))
        net.attempt_transfer("A", "B", 10, 0.5, include_alpha=include_alpha)
        with pytest.raises(SiteUnavailableError) as excinfo:
            net.attempt_transfer("A", "B", 10, 1.5, include_alpha=include_alpha)
        assert excinfo.value.site == "B"

    def test_permanent_link_down_is_not_transient(self, wan, include_alpha):
        net = FaultAwareNetwork(wan, FaultPlan([LinkDown("A", "B", at=0.0)]))
        with pytest.raises(TransferError) as excinfo:
            net.attempt_transfer("A", "B", 10, 5.0, include_alpha=include_alpha)
        assert not excinfo.value.transient

    def test_bounded_link_down_is_transient(self, wan, include_alpha):
        net = FaultAwareNetwork(
            wan, FaultPlan([LinkDown("A", "B", at=0.0, duration=1.0)])
        )
        with pytest.raises(TransferError) as excinfo:
            net.attempt_transfer("A", "B", 10, 0.5, include_alpha=include_alpha)
        assert excinfo.value.transient
        net.attempt_transfer("A", "B", 10, 1.5, include_alpha=include_alpha)

    def test_flaky_is_transient_and_directed(self, wan, include_alpha):
        net = FaultAwareNetwork(
            wan, FaultPlan([FlakyLink("A", "B", at=0.0, duration=0.3)])
        )
        with pytest.raises(TransferError) as excinfo:
            net.attempt_transfer("A", "B", 10, 0.1, include_alpha=include_alpha)
        assert excinfo.value.transient
        # reverse direction is fine, and so is the link past the window
        net.attempt_transfer("B", "A", 10, 0.1, include_alpha=include_alpha)
        net.attempt_transfer("A", "B", 10, 0.31, include_alpha=include_alpha)

    def test_slow_link_multiplies_time(self, wan, include_alpha):
        net = FaultAwareNetwork(
            wan, FaultPlan([SlowLink("A", "B", factor=3.0, at=0.0, duration=1.0)])
        )
        healthy = self.healthy(wan, 1000, include_alpha)
        assert net.attempt_transfer(
            "A", "B", 1000, 0.5, include_alpha=include_alpha
        ) == pytest.approx(3 * healthy)
        assert net.attempt_transfer(
            "A", "B", 1000, 1.5, include_alpha=include_alpha
        ) == pytest.approx(healthy)

    def test_local_move_only_fails_when_site_down(self, wan, include_alpha):
        net = FaultAwareNetwork(
            wan,
            FaultPlan([LinkDown("A", "A", at=0.0), SiteCrash("A", at=1.0)]),
        )
        assert net.attempt_transfer("A", "A", 10, 0.5, include_alpha=include_alpha) == 0.0
        with pytest.raises(SiteUnavailableError):
            net.attempt_transfer("A", "A", 10, 1.5, include_alpha=include_alpha)

    def test_breaker_hears_every_wan_outcome_once(self, wan, include_alpha):
        governor = _RecordingGovernor()
        faults = FaultPlan(
            [
                FlakyLink("A", "B", at=0.0, duration=0.3),
                LinkDown("A", "B", at=1.0, duration=0.5),
                SiteCrash("B", at=5.0),
            ]
        )
        net = FaultAwareNetwork(wan, faults, breakers=governor)
        for when in (0.1, 1.2):
            with pytest.raises(TransferError):
                net.attempt_transfer("A", "B", 10, when, include_alpha=include_alpha)
        net.attempt_transfer("A", "B", 10, 2.0, include_alpha=include_alpha)
        net.attempt_transfer("A", "A", 10, 2.0, include_alpha=include_alpha)  # local
        with pytest.raises(SiteUnavailableError):  # a dead site is no link evidence
            net.attempt_transfer("A", "B", 10, 6.0, include_alpha=include_alpha)
        assert governor.reports == [
            ("failure", "A", "B", 0.1),
            ("failure", "A", "B", 1.2),
            ("success", "A", "B", 2.0),
        ]


class TestStableFraction:
    def test_deterministic_and_bounded(self):
        assert stable_fraction("a", 1) == stable_fraction("a", 1)
        assert stable_fraction("a", 1) != stable_fraction("a", 2)
        for i in range(100):
            assert 0.0 <= stable_fraction("x", i) < 1.0


class TestRetryPolicy:
    def test_backoff_grows_exponentially_with_bounded_jitter(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_multiplier=2.0, jitter=0.25)
        for n in (1, 2, 3, 4):
            base = 0.1 * 2 ** (n - 1)
            wait = policy.backoff(n, "f0", "A", "B")
            assert base <= wait < base * 1.25
        # Deterministic: identical transfer identity, identical schedule.
        assert policy.backoff(2, "f0", "A", "B") == policy.backoff(2, "f0", "A", "B")
        assert policy.backoff(2, "f0", "A", "B") != policy.backoff(2, "f1", "A", "B")

    def test_max_attempts(self):
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_seconds": -0.1},
            {"backoff_multiplier": 0.5},
            {"fragment_timeout": 0.0},
            {"fragment_timeout": -1.0},
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ExecutionError):
            RetryPolicy(**kwargs)
