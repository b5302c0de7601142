"""Wide-area network model.

The paper (§7.4, citing Deshpande & Hellerstein's message cost model)
simulates a network where shipping ``b`` bytes from site *i* to site *j*
takes ``α_ij + β_ij · b`` time: ``α_ij`` is the per-message start-up cost
(obtained in the paper from ping round-trips) and ``β_ij`` the per-byte
cost (from measured transfer rates).

We have no WAN, so :func:`synthetic_network` builds a deterministic matrix
from location names: geographically "far" pairs get larger α and β.  Plan
*quality* in the paper is reported as cost *scaled* relative to the
traditional optimizer's plan, so only the relative magnitudes matter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Protocol

from ..errors import (
    CircuitOpenError,
    SiteUnavailableError,
    TransferError,
    UnknownLinkError,
)


@dataclass(frozen=True)
class LinkCost:
    """Cost coefficients for one directed site pair."""

    alpha: float  # start-up cost, seconds per message
    beta: float  # transfer cost, seconds per byte


class NetworkModel:
    """Directed ``(src, dst) -> LinkCost`` matrix with a local fast path.

    Transfers within one location are free (``alpha = beta = 0``), matching
    the paper where SHIP operators only appear between sites.

    With ``strict=True`` an unmodeled pair raises a typed
    :class:`~repro.errors.UnknownLinkError` instead of substituting the
    pessimistic default — every SHIP (the fragment scheduler's
    ``attempt_transfer``) is priced through :meth:`link`, so a
    mis-deployed catalog fails identically from either operator backend
    rather than surfacing as a bare lookup failure somewhere downstream.
    """

    def __init__(
        self,
        links: dict[tuple[str, str], LinkCost] | None = None,
        strict: bool = False,
    ) -> None:
        self._links: dict[tuple[str, str], LinkCost] = dict(links or {})
        self.strict = strict

    def set_link(self, src: str, dst: str, alpha: float, beta: float) -> None:
        self._links[(src, dst)] = LinkCost(alpha, beta)

    def has_link(self, src: str, dst: str) -> bool:
        """Whether ``(src, dst)`` is explicitly modeled (as opposed to
        falling back to the pessimistic default link)."""
        return (src, dst) in self._links

    def link(self, src: str, dst: str) -> LinkCost:
        if src == dst:
            return LinkCost(0.0, 0.0)
        cost = self._links.get((src, dst))
        if cost is None:
            if self.strict:
                raise UnknownLinkError(
                    f"no link modeled from {src!r} to {dst!r} "
                    f"(strict network model)",
                    source=src,
                    target=dst,
                )
            # Unknown pair: use a pessimistic default so plans do not get a
            # free ride over unmodeled links.
            return LinkCost(alpha=0.5, beta=2e-7)
        return cost

    def transfer_time(self, src: str, dst: str, nbytes: float) -> float:
        """Time (seconds) to ship ``nbytes`` from ``src`` to ``dst``."""
        cost = self.link(src, dst)
        if src == dst:
            return 0.0
        return cost.alpha + cost.beta * nbytes


class FaultModel(Protocol):
    """What a fault schedule must answer for the network layer.

    Implemented by :class:`repro.execution.faults.FaultPlan`; declared
    structurally here so ``geo`` stays independent of ``execution``."""

    def site_down(self, site: str, when: float) -> bool: ...

    def link_down(self, source: str, target: str, when: float) -> object | None: ...

    def link_flaky(self, source: str, target: str, when: float) -> object | None: ...

    def slow_factor(self, source: str, target: str, when: float) -> float: ...


class LinkGovernor(Protocol):
    """What a per-link circuit-breaker registry must answer for the
    network layer.

    Implemented by :class:`repro.server.BreakerRegistry`; declared
    structurally here so ``geo`` stays independent of ``server``."""

    def allow(self, source: str, target: str, when: float) -> bool: ...

    def record_success(self, source: str, target: str, when: float) -> None: ...

    def record_failure(self, source: str, target: str, when: float) -> None: ...


class FaultAwareNetwork:
    """Prices send attempts on a base :class:`NetworkModel` under a
    fault schedule.

    :meth:`attempt_transfer` is the runtime's only entry point: the
    transfer simulator (:func:`repro.execution.shipping.transfer`) calls
    it per attempt at a simulated instant, and it surfaces injected
    faults as the typed errors of :mod:`repro.errors`:

    * endpoint site crashed → :class:`SiteUnavailableError`;
    * link down → :class:`TransferError` (``transient`` only when the
      outage has a known end);
    * link flaky → transient :class:`TransferError`;
    * otherwise the attempt succeeds, taking the base transfer time
      multiplied by any active :class:`~repro.execution.faults.SlowLink`
      degradation.

    When constructed with a ``breakers`` registry (a :class:`LinkGovernor`,
    e.g. the query server's per-link circuit breakers), every cross-site
    attempt first asks the breaker for the link: an open breaker
    fast-fails the attempt with :class:`~repro.errors.CircuitOpenError`
    (never transient — the retry loop must not hammer a known-bad link),
    and every real attempt's outcome is reported back so the breaker's
    failure-rate window tracks the link's health on the simulated clock.

    Local moves (``src == dst``) never touch the WAN and only fail when
    the site itself is down.
    """

    def __init__(
        self,
        base: NetworkModel,
        faults: FaultModel,
        breakers: "LinkGovernor | None" = None,
    ) -> None:
        self.base = base
        self.faults = faults
        self.breakers = breakers

    def attempt_transfer(
        self,
        src: str,
        dst: str,
        nbytes: float,
        when: float,
        include_alpha: bool = True,
    ) -> float:
        """Simulate one send starting at simulated ``when``; returns its
        duration in seconds or raises a typed fault error.

        ``include_alpha`` is connection state, computed by the caller:
        the link's α start-up is the cost of *establishing* a
        connection, so a monolithic transfer (one send per connection)
        always pays it, while a streamed transfer pays it on its first
        chunk — and again on the first chunk after a fault broke the
        connection — and ``β·bytes`` alone on every other chunk.  A
        fault-free streamed transfer therefore bills exactly
        ``α + β·wire_bytes``, never ``K·α``."""
        for site in (src, dst):
            if self.faults.site_down(site, when):
                raise SiteUnavailableError(
                    f"site {site!r} is down at t={when:.3f}s", site=site
                )
        if src == dst:
            return 0.0
        if self.breakers is not None and not self.breakers.allow(src, dst, when):
            raise CircuitOpenError(
                f"circuit breaker for {src} -> {dst} is open at t={when:.3f}s",
                source=src,
                target=dst,
            )
        outage = self.faults.link_down(src, dst, when)
        if outage is not None:
            if self.breakers is not None:
                self.breakers.record_failure(src, dst, when)
            transient = getattr(outage, "duration", None) is not None
            raise TransferError(
                f"link {src} -> {dst} is down at t={when:.3f}s",
                source=src,
                target=dst,
                transient=transient,
            )
        if self.faults.link_flaky(src, dst, when) is not None:
            if self.breakers is not None:
                self.breakers.record_failure(src, dst, when)
            raise TransferError(
                f"transient failure on {src} -> {dst} at t={when:.3f}s",
                source=src,
                target=dst,
                transient=True,
            )
        # Price before reporting: a strict model raises UnknownLinkError
        # here, and an unpriceable send must not reach the link's
        # breaker as a success.
        cost = self.base.link(src, dst)
        seconds = (cost.alpha if include_alpha else 0.0) + cost.beta * nbytes
        if self.breakers is not None:
            self.breakers.record_success(src, dst, when)
        return seconds * self.faults.slow_factor(src, dst, when)


def _stable_fraction(token: str) -> float:
    """Deterministic pseudo-random fraction in [0, 1) from a string."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def synthetic_network(
    locations: Iterable[str],
    base_alpha: float = 0.02,
    alpha_per_unit: float = 0.15,
    base_beta: float = 1e-8,
    beta_per_unit: float = 8e-8,
) -> NetworkModel:
    """Build a deterministic, *metric* WAN matrix over ``locations``.

    Each location gets a stable position on the unit circle (derived from
    its name); link costs grow with euclidean distance:
    ``α = base_alpha + alpha_per_unit · d`` (ping-like 20–320 ms RTTs) and
    ``β = base_beta + beta_per_unit · d`` (≈100 Mbit/s down to ≈6 MB/s).
    Because distance is a metric and the bases are positive, relaying a
    transfer through a third site never beats the direct link — as on a
    real WAN, where the paper derived α from pings and β from measured
    transfers (§7.4).
    """
    import math

    network = NetworkModel()
    locs = list(locations)
    positions = {
        name: (
            math.cos(2 * math.pi * _stable_fraction("pos:" + name)),
            math.sin(2 * math.pi * _stable_fraction("pos:" + name)),
        )
        for name in locs
    }
    for i, src in enumerate(locs):
        for j, dst in enumerate(locs):
            if i == j:
                continue
            (x1, y1), (x2, y2) = positions[src], positions[dst]
            distance = math.hypot(x1 - x2, y1 - y2) / 2.0  # normalize to [0,1]
            network.set_link(
                src,
                dst,
                alpha=base_alpha + alpha_per_unit * distance,
                beta=base_beta + beta_per_unit * distance,
            )
    return network
