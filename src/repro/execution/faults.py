"""Deterministic fault injection for the execution layer.

A :class:`FaultPlan` is a declarative schedule of WAN failures, each
with an onset on the *simulated* clock the fragment scheduler advances
(:mod:`repro.execution.scheduler`).  Because the clock is simulated and
every fault is specified ahead of time, a faulted run is exactly
reproducible: the same plan, data, and fault plan always produce the
same retries, failovers, and makespan — the property the chaos
equivalence suite relies on.

Four fault kinds:

* :class:`SiteCrash` — a site fails permanently at ``at`` seconds.
  Fragments placed there fail with
  :class:`~repro.errors.SiteUnavailableError` and are either re-placed
  within their execution traits ℰ (compliance-preserving failover, see
  :mod:`repro.execution.recovery`) or degrade the query to a typed
  partial-failure result.
* :class:`LinkDown` — a directed link drops at ``at`` (optionally
  recovering after ``duration``); transfer attempts in the outage raise
  :class:`~repro.errors.TransferError` (non-transient when permanent).
* :class:`SlowLink` — a directed link is degraded by ``factor`` from
  ``at`` (optionally for ``duration``); transfers succeed but take
  ``factor ×`` longer, inflating the makespan without any failure.
* :class:`FlakyLink` — a directed link fails *transiently* during
  ``[at, at + duration)``; attempts inside the window raise a transient
  :class:`~repro.errors.TransferError`, and retry backoff that pushes
  the next attempt past the window succeeds, leaving results
  row-identical to the fault-free run.

``parse_fault_spec`` reads the compact CLI syntax (``--faults``), and
:meth:`FaultPlan.random` draws a seeded random plan for chaos suites.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..errors import ExecutionError


@dataclass(frozen=True)
class SiteCrash:
    """Permanent failure of one site at ``at`` seconds (simulated)."""

    site: str
    at: float = 0.0

    def __str__(self) -> str:
        return f"crash:{self.site}@{self.at:g}"


@dataclass(frozen=True)
class LinkDown:
    """Directed link outage from ``at``; permanent when ``duration`` is
    ``None``, else the link recovers at ``at + duration``."""

    source: str
    target: str
    at: float = 0.0
    duration: float | None = None

    def active(self, when: float) -> bool:
        if when < self.at:
            return False
        return self.duration is None or when < self.at + self.duration

    def __str__(self) -> str:
        window = "" if self.duration is None else f"+{self.duration:g}"
        return f"drop:{self.source}->{self.target}@{self.at:g}{window}"


@dataclass(frozen=True)
class SlowLink:
    """Directed link degraded by ``factor`` from ``at`` (optionally for
    ``duration`` seconds); transfer times multiply, nothing fails."""

    source: str
    target: str
    factor: float
    at: float = 0.0
    duration: float | None = None

    def active(self, when: float) -> bool:
        if when < self.at:
            return False
        return self.duration is None or when < self.at + self.duration

    def __str__(self) -> str:
        window = "" if self.duration is None else f"+{self.duration:g}"
        return f"slow:{self.source}->{self.target}@{self.at:g}{window}x{self.factor:g}"


@dataclass(frozen=True)
class FlakyLink:
    """Directed link failing *transiently* during ``[at, at+duration)``.

    Attempts inside the window fail with a transient
    :class:`~repro.errors.TransferError`; retry backoff that lands past
    the window succeeds, so retried queries stay row-identical."""

    source: str
    target: str
    at: float = 0.0
    duration: float = 0.1

    def active(self, when: float) -> bool:
        return self.at <= when < self.at + self.duration

    def __str__(self) -> str:
        return f"flaky:{self.source}->{self.target}@{self.at:g}+{self.duration:g}"


FaultEvent = SiteCrash | LinkDown | SlowLink | FlakyLink


@dataclass
class FaultPlan:
    """A deterministic schedule of WAN faults on the simulated clock."""

    events: list[FaultEvent] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.events)

    def add(self, event: FaultEvent) -> "FaultPlan":
        self.events.append(event)
        return self

    # -- queries (all on the simulated clock) ----------------------------------

    def site_down(self, site: str, when: float) -> bool:
        """Is ``site`` crashed at simulated time ``when``?  Crashes are
        permanent: true for every instant at or after the onset."""
        return any(
            isinstance(e, SiteCrash) and e.site == site and when >= e.at
            for e in self.events
        )

    def crashed_sites(self, when: float) -> frozenset[str]:
        """All sites crashed at or before ``when``."""
        return frozenset(
            e.site
            for e in self.events
            if isinstance(e, SiteCrash) and when >= e.at
        )

    def link_down(self, source: str, target: str, when: float) -> LinkDown | None:
        """The active :class:`LinkDown` for this directed pair, if any."""
        for e in self.events:
            if (
                isinstance(e, LinkDown)
                and e.source == source
                and e.target == target
                and e.active(when)
            ):
                return e
        return None

    def link_flaky(self, source: str, target: str, when: float) -> FlakyLink | None:
        """The active :class:`FlakyLink` window for this pair, if any."""
        for e in self.events:
            if (
                isinstance(e, FlakyLink)
                and e.source == source
                and e.target == target
                and e.active(when)
            ):
                return e
        return None

    def slow_factor(self, source: str, target: str, when: float) -> float:
        """Combined slowdown multiplier for this pair at ``when`` (1.0
        when no :class:`SlowLink` is active; overlapping events stack)."""
        factor = 1.0
        for e in self.events:
            if (
                isinstance(e, SlowLink)
                and e.source == source
                and e.target == target
                and e.active(when)
            ):
                factor *= e.factor
        return factor

    # -- construction ----------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        sites: Sequence[str],
        transient_only: bool = True,
        max_events: int = 3,
        horizon: float = 0.25,
        pairs: Sequence[tuple[str, str]] | None = None,
    ) -> "FaultPlan":
        """Draw a seeded random fault plan over ``sites``.

        With ``transient_only`` (the default, used by the chaos
        equivalence suite) only :class:`FlakyLink` and :class:`SlowLink`
        events are drawn — faults a retrying executor must absorb with
        row-identical results.  Otherwise one :class:`SiteCrash` or
        permanent :class:`LinkDown` may be included as well.

        The default ``horizon`` matches the makespan scale of the
        benchmark plans under the synthetic α + β·bytes network (tens to
        hundreds of simulated milliseconds) so drawn onsets actually
        intersect executions.  Pass ``pairs`` (e.g. the (source, target)
        pairs a fault-free run actually shipped over) to restrict link
        events to links the plan uses — random site pairs mostly miss.
        """
        rng = random.Random(seed)
        ordered = sorted(sites)
        if len(ordered) < 2:
            return cls()
        link_pool = sorted(set(pairs)) if pairs else None
        plan = cls()
        for _ in range(rng.randint(1, max_events)):
            if link_pool:
                src, dst = link_pool[rng.randrange(len(link_pool))]
            else:
                src, dst = rng.sample(ordered, 2)
            # Transfers cluster near t = 0 on the simulated clock (every
            # leaf fragment starts immediately), so half the onsets land
            # exactly there — otherwise most drawn windows would cover
            # no attempt instant at all.
            onset = 0.0 if rng.random() < 0.5 else round(rng.uniform(0.0, horizon), 3)
            if rng.random() < 0.6:
                plan.add(
                    FlakyLink(
                        src, dst, at=onset, duration=round(rng.uniform(0.02, 0.2), 3)
                    )
                )
            else:
                plan.add(
                    SlowLink(
                        src,
                        dst,
                        factor=round(rng.uniform(1.5, 5.0), 2),
                        at=onset,
                        duration=round(rng.uniform(0.1, 0.5), 3),
                    )
                )
        if not transient_only and rng.random() < 0.5:
            plan.add(SiteCrash(rng.choice(ordered), at=round(rng.uniform(0.0, horizon), 3)))
        return plan

    def __str__(self) -> str:
        return "; ".join(str(e) for e in self.events) or "(no faults)"


def stable_fraction(*tokens: object) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from tokens — used
    for retry jitter so a transfer's schedule depends only on its
    identity (same approach as the synthetic network's layout)."""
    digest = hashlib.sha256(
        "\x1f".join(str(t) for t in tokens).encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def parse_fault_spec(spec: str, locations: Iterable[str] | None = None) -> FaultPlan:
    """Parse the CLI fault syntax into a :class:`FaultPlan`.

    Events are ``;``-separated.  Grammar per event::

        crash:SITE@T
        drop:SRC->DST@T[+DURATION]
        slow:SRC->DST@T[+DURATION]xFACTOR
        flaky:SRC->DST@T+DURATION
        random:SEED            (seeded transient plan over ``locations``)

    Examples: ``crash:Asia@0.5``, ``flaky:Europe->Asia@0+0.3``,
    ``slow:Europe->Asia@0x4``, ``random:42``.
    """
    plan = FaultPlan()
    for raw in spec.split(";"):
        part = raw.strip()
        if not part:
            continue
        kind, _, body = part.partition(":")
        try:
            if kind == "random":
                if locations is None:
                    raise ValueError("random fault plans need the site list")
                seed_plan = FaultPlan.random(int(body), sorted(locations))
                plan.events.extend(seed_plan.events)
                continue
            if kind == "crash":
                site, _, onset = body.partition("@")
                plan.add(SiteCrash(site, at=float(onset or 0.0)))
                continue
            pair, _, timing = body.partition("@")
            src, arrow, dst = pair.partition("->")
            if not arrow or not src or not dst:
                raise ValueError("expected SRC->DST")
            if kind == "drop":
                onset, _, duration = timing.partition("+")
                plan.add(
                    LinkDown(
                        src,
                        dst,
                        at=float(onset or 0.0),
                        duration=float(duration) if duration else None,
                    )
                )
            elif kind == "slow":
                window, x, factor = timing.rpartition("x")
                if not x:
                    raise ValueError("expected xFACTOR")
                onset, _, duration = window.partition("+")
                plan.add(
                    SlowLink(
                        src,
                        dst,
                        factor=float(factor),
                        at=float(onset or 0.0),
                        duration=float(duration) if duration else None,
                    )
                )
            elif kind == "flaky":
                onset, plus, duration = timing.partition("+")
                if not plus:
                    raise ValueError("expected @ONSET+DURATION")
                plan.add(
                    FlakyLink(src, dst, at=float(onset or 0.0), duration=float(duration))
                )
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        except ValueError as error:
            raise ExecutionError(f"bad fault event {part!r}: {error}") from None
    return plan
