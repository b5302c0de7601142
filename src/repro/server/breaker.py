"""Per-link circuit breakers on the simulated WAN clock.

A breaker guards one directed link and interposes on every transfer
attempt (:meth:`repro.geo.FaultAwareNetwork.attempt_transfer` consults
the registry through the :class:`~repro.geo.LinkGovernor` protocol).
The classic three-state machine:

.. code-block:: text

                 failure rate >= threshold
                 (over the rolling window,
                  once >= min_volume events)
       +--------+ ------------------------> +------+
       | CLOSED |                           | OPEN |
       +--------+ <----+             +----- +------+
           ^           |             | cooldown elapsed
           | probe     |             v
           | succeeds  |       +-----------+
           +-----------+------ | HALF-OPEN |
                       probe   +-----------+
                       fails -> OPEN (new cooldown)

* **closed** — attempts flow through; outcomes land in a rolling window
  of the last ``window`` events.  When the window holds at least
  ``min_volume`` events and its failure rate reaches
  ``failure_threshold``, the breaker opens at the instant of the
  tripping event.
* **open** — every attempt fast-fails (the network raises
  :class:`~repro.errors.CircuitOpenError`, never transient) until
  ``cooldown`` simulated seconds have elapsed.
* **half-open** — the next attempt is a probe: success closes the
  breaker (window reset), failure re-opens it with a fresh cooldown.

**Purity invariant** (locked down by the hypothesis suite in
``tests/server/test_breaker_property.py``): the state at any instant is
a pure function of the *time-ordered* event history and the clock —
never of wall-clock time or recording order.  The
breaker therefore stores timestamped events and *replays* them on every
query, so events recorded out of order (queries overlap on the
simulated clock but execute one after another in the server's event
loop) still yield the exact state their timeline implies.  Histories
are short (one event per real transfer attempt), so replay stays cheap.
"""

from __future__ import annotations

import enum
from bisect import insort
from dataclasses import dataclass
from typing import Iterator

from ..validation import validate_positive_int, validate_timeout


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of one circuit breaker (all validated up front)."""

    #: Failure fraction of the rolling window that trips the breaker.
    failure_threshold: float = 0.5
    #: Rolling-window length (most recent outcomes while closed).
    window: int = 8
    #: Minimum events in the window before the threshold can trip —
    #: a single early failure must not condemn a link.
    min_volume: int = 4
    #: Simulated seconds an open breaker waits before half-opening.
    cooldown: float = 0.5

    def __post_init__(self) -> None:
        from ..errors import InvalidParameterError

        if not 0.0 < self.failure_threshold <= 1.0:
            raise InvalidParameterError(
                f"failure_threshold must be in (0, 1], got {self.failure_threshold}"
            )
        validate_positive_int(self.window, "window")
        validate_positive_int(self.min_volume, "min_volume")
        validate_timeout(self.cooldown, "cooldown")


@dataclass(frozen=True)
class _Event:
    """One observed transfer outcome on the link."""

    when: float
    seq: int  # tie-break for same-instant events, in recording order
    ok: bool


class CircuitBreaker:
    """The state machine for one directed link."""

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config or BreakerConfig()
        self._events: list[_Event] = []  # kept sorted by (when, seq)
        self._seq = 0

    # -- recording -------------------------------------------------------------

    def record(self, when: float, ok: bool) -> None:
        """Record one attempt outcome at simulated instant ``when``.
        Outcomes may arrive out of time order (overlapping queries are
        executed sequentially by the server's event loop); the sorted
        history keeps the replay faithful to the timeline."""
        self._seq += 1
        insort(self._events, _Event(when, self._seq, ok), key=lambda e: (e.when, e.seq))

    # -- state replay ----------------------------------------------------------

    def transitions(self, when: float = float("inf")) -> list[tuple[float, BreakerState]]:
        """Every state transition up to ``when``, in time order —
        ``[(instant, new_state), ...]`` starting from the implicit
        ``(0, CLOSED)``.  This *is* the state machine: :meth:`state_at`
        and :meth:`allow` only read its last entry, so tests can assert
        on the exact transition sequence."""
        cfg = self.config
        out: list[tuple[float, BreakerState]] = []
        state = BreakerState.CLOSED
        opened_at = 0.0
        window: list[bool] = []
        for event in self._events:
            if event.when > when:
                break
            if state is BreakerState.OPEN:
                if event.when < opened_at + cfg.cooldown:
                    # An attempt the breaker should have fast-failed
                    # (e.g. recorded by a layer running without the
                    # registry); it carries no probe semantics.
                    continue
                state = BreakerState.HALF_OPEN
                out.append((opened_at + cfg.cooldown, state))
            if state is BreakerState.HALF_OPEN:
                # The probe decides: close on success, re-open on failure.
                if event.ok:
                    state = BreakerState.CLOSED
                    window = []
                else:
                    state = BreakerState.OPEN
                    opened_at = event.when
                out.append((event.when, state))
                continue
            window.append(event.ok)
            if len(window) > cfg.window:
                window.pop(0)
            failures = sum(1 for ok in window if not ok)
            if (
                len(window) >= cfg.min_volume
                and failures / len(window) >= cfg.failure_threshold
            ):
                state = BreakerState.OPEN
                opened_at = event.when
                window = []
                out.append((event.when, state))
        if state is BreakerState.OPEN and when >= opened_at + cfg.cooldown:
            out.append((opened_at + cfg.cooldown, BreakerState.HALF_OPEN))
        return out

    def state_at(self, when: float) -> BreakerState:
        """The breaker's state at simulated instant ``when`` — a pure
        function of (event history up to ``when``, ``when``)."""
        trace = self.transitions(when)
        return trace[-1][1] if trace else BreakerState.CLOSED

    def allow(self, when: float) -> bool:
        """May an attempt proceed at ``when``?  True while closed and
        for probes while half-open; False exactly while open."""
        return self.state_at(when) is not BreakerState.OPEN

    def trip_count(self, when: float = float("inf")) -> int:
        """How many times the breaker has opened up to ``when``."""
        return sum(1 for _, s in self.transitions(when) if s is BreakerState.OPEN)

    def events(self) -> Iterator[tuple[float, bool]]:
        """The recorded (instant, ok) history in time order."""
        return ((e.when, e.ok) for e in self._events)


class BreakerRegistry:
    """Per-link breakers, created on first use, shared by every query a
    server runs.  Implements the network layer's
    :class:`~repro.geo.LinkGovernor` protocol.

    All calls happen on the caller's thread (the server's event loop
    runs the fragment scheduler, which simulates every transfer), so no
    locking is needed; see ``docs/ROBUSTNESS.md`` §7.
    """

    def __init__(self, config: BreakerConfig | None = None) -> None:
        self.config = config or BreakerConfig()
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}

    def breaker(self, source: str, target: str) -> CircuitBreaker:
        key = (source, target)
        found = self._breakers.get(key)
        if found is None:
            found = self._breakers[key] = CircuitBreaker(self.config)
        return found

    # -- LinkGovernor protocol -------------------------------------------------

    def allow(self, source: str, target: str, when: float) -> bool:
        return self.breaker(source, target).allow(when)

    def record_success(self, source: str, target: str, when: float) -> None:
        self.breaker(source, target).record(when, ok=True)

    def record_failure(self, source: str, target: str, when: float) -> None:
        self.breaker(source, target).record(when, ok=False)

    # -- observability ---------------------------------------------------------

    def total_trips(self, when: float = float("inf")) -> int:
        return sum(b.trip_count(when) for b in self._breakers.values())

    def snapshot(self, when: float = float("inf")) -> dict[str, str]:
        """``"src->dst" -> state`` for every link seen so far."""
        return {
            f"{src}->{dst}": str(breaker.state_at(when))
            for (src, dst), breaker in sorted(self._breakers.items())
        }
