"""The SHIP boundary: what happens to a batch when it leaves a site.

Every SHIP edge is a cut between two fragments.  This module is the
transfer simulator the fragment scheduler
(:mod:`repro.execution.scheduler`) drives once per delivery: it encodes
a producer's output for the wire and decodes it again for the consumer
(:func:`wire_round_trip`), sends it as a stream of units against the
fault-aware network with retry, backoff and the fragment timeout
(:func:`transfer`), and traces every attempt (:func:`attempt_tracer`).
It keeps no state between calls: delivered units are acknowledged in
the :class:`~repro.execution.recovery.ChunkLedger` the caller passes.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from ..errors import (
    CircuitOpenError,
    FaultError,
    FragmentTimeoutError,
    SiteUnavailableError,
    TransferError,
)
from ..geo import FaultAwareNetwork
from ..trace import ChunkEvent, ShipEvent, TraceRecorder
from .operators import RowBatch
from .recovery import ChunkLedger, RetryPolicy
from .vectorized import ColumnBatch
from .wire import ShipConfig, ShipTransfer, encode_columns

#: ``trace(unit, attempt, outcome, at, seconds=None)``: one attempt on
#: send unit ``unit`` (``None`` for a streamed transfer's roll-up).
TraceAttempt = Callable[..., None]


def wire_round_trip(
    batch: RowBatch | ColumnBatch, config: ShipConfig
) -> tuple[ShipTransfer, ColumnBatch]:
    """Encode a batch for the wire and decode it again: the transfer's
    wire form (its ``logical_bytes`` measured by the encoder's own
    sizing pass) plus the columns the far side reads.  Every consumer
    of a shipped batch is handed the *decoded* data, so the codec sits
    on the data path — a round-trip bug diverges rows, not just byte
    counts."""
    wire = encode_columns(batch.columns, batch.data, batch.nrows, config)
    return wire, ColumnBatch(list(batch.columns), wire.decode_columns(), batch.nrows)


def logical_bytes(batch: RowBatch | ColumnBatch, wire: ShipTransfer | None) -> int:
    """Logical size of a producer's output: the encoder's sizing pass
    already measured a wired batch; otherwise the batch measures (and
    caches) itself, so re-deliveries of the same output are O(1)."""
    return batch.nbytes if wire is None else wire.logical_bytes


def unit_instants(first: float, ready: float, total: int) -> list[float]:
    """Simulated instant each of a producer's ``total`` send units
    exists at its site.  A pipelined producer emits units evenly between
    its first-output instant ``first`` and its fully-ready instant
    ``ready``; the last unit (and the only unit of a monolithic
    transfer) never precedes ``ready`` — the full result must exist
    before the final chunk is sealed."""
    return [
        ready if k >= total - 1 else first + (ready - first) * (k / (total - 1))
        for k in range(total)
    ]


def failed_outcome(error: FaultError, retries_left: bool) -> str:
    """Trace outcome of a failed send; only ``"transient"`` is retried."""
    if isinstance(error, SiteUnavailableError):
        return "site_down"
    if isinstance(error, CircuitOpenError):
        # Fast-fail: no backoff, no retries — the breaker already knows
        # the link is bad.
        return "circuit_open"
    if not error.transient:
        return "link_down"
    return "transient" if retries_left else "retry_exhausted"


class Delivery(NamedTuple):
    """A completed transfer, read off its ledger."""

    first: float  # instant the first unit landed
    delivered: float  # instant the last unit landed
    seconds: float  # billed transfer time of the successful sends
    attempts: int
    retry_wait_seconds: float


def transfer(
    producer: int,
    consumer: int,
    source: str,
    target: str,
    sizes: Sequence[int],
    instants: Sequence[float],
    begin: float,
    ledger: ChunkLedger,
    network: FaultAwareNetwork,
    retry: RetryPolicy,
    trace: TraceAttempt,
    chunked: bool,
) -> Delivery:
    """Deliver ``producer``'s output from ``source`` to ``target`` as a
    stream of send units on one connection: repeated attempts per unit
    against the fault-aware network with exponential backoff, bounded by
    the retry budget and the fragment timeout (counted from ``begin``).

    Unit ``k`` (``sizes[k]`` bytes on the wire) leaves no earlier than
    ``instants[k]`` — the instant the producer has it — and no earlier
    than the link is free: sends are serialized in unit order.  The
    link's α is paid once per connection — re-paid after any fault broke
    it and on every resumed transfer.  Every delivered unit is
    acknowledged in ``ledger`` under ``(producer, target)``, so only the
    pending suffix is ever sent and no unit is billed twice; attempts
    and backoff accumulate there too.

    A streamed transfer (``chunked``) sends one unit per wire chunk and
    passes the run-wide ledger, so retries and failover re-deliveries
    resume where the last call stopped; a monolithic one sends a single
    unit with a throwaway ledger, so a re-admitted consumer is
    re-shipped.  Every attempt is reported to ``trace``, and a streamed
    transfer's completion once more as unit ``None``.  A failure that
    retrying cannot fix raises its typed :class:`~repro.errors.FaultError`
    (a :class:`~repro.errors.FragmentTimeoutError` past the timeout),
    with ``at`` set to the simulated instant."""
    key = (producer, target)
    link = f"{source} -> {target}"
    timeout = retry.fragment_timeout
    now = begin
    connected = False
    for k in ledger.pending(*key, len(sizes)):
        unit = f"chunk {k} of {link}" if chunked else link
        jitter = (producer, source, target) + ((k,) if chunked else ())
        now = max(now, instants[k])
        attempt = 0
        while True:
            attempt += 1
            ledger.note_attempt(*key)
            try:
                seconds = network.attempt_transfer(
                    source, target, sizes[k], now, include_alpha=not connected
                )
            except (TransferError, SiteUnavailableError) as error:
                connected = False
                error.at = now
                outcome = failed_outcome(error, attempt < retry.max_attempts)
                if outcome != "transient":
                    # Permanent for this placement: the scheduler
                    # consults failover next.
                    trace(k, attempt, outcome, now)
                    raise
                pause = retry.backoff(attempt, *jitter)
                if timeout is not None and (now + pause) - begin > timeout:
                    trace(k, attempt, "timeout", now)
                    raise _timed_out(
                        f"inputs of fragment f{consumer} exceeded the "
                        f"{timeout:g}s fragment timeout while retrying {unit}",
                        consumer,
                        now,
                    ) from error
                trace(k, attempt, "transient", now)
                ledger.note_wait(*key, pause)
                now += pause
                continue
            arrived = now + seconds
            if timeout is not None and arrived - begin > timeout:
                trace(k, attempt, "timeout", now, seconds)
                took = f"{arrived - begin:.3f}s"
                late = (
                    f"{unit} would land {took} after the transfer began"
                    if chunked
                    else f"delivery {unit} took {took}"
                )
                raise _timed_out(
                    f"{late}, exceeding the {timeout:g}s fragment timeout",
                    consumer,
                    arrived,
                )
            trace(k, attempt, "delivered", now, seconds)
            ledger.ack(*key, k, arrived, seconds, sizes[k])
            connected = True
            now = arrived  # the link frees up when this send lands
            break
    acks = ledger.acked(*key).values()
    done = Delivery(
        first=min(ack.at_seconds for ack in acks),
        delivered=max(ack.at_seconds for ack in acks),
        seconds=sum(ack.seconds for ack in acks),
        attempts=ledger.attempts(*key),
        retry_wait_seconds=ledger.wait_seconds(*key),
    )
    if chunked:
        # Exactly one payload-carrying descriptor per logical transfer,
        # stamped at the delivery instant.
        trace(None, done.attempts, "delivered", done.delivered, done.seconds)
    return done


def _timed_out(message: str, consumer: int, at: float) -> FragmentTimeoutError:
    error = FragmentTimeoutError(message, fragment_index=consumer)
    error.at = at
    return error


def attempt_tracer(
    recorder: TraceRecorder | None,
    producer: int,
    consumer: int,
    source: str,
    target: str,
    batch: RowBatch | ColumnBatch,
    wire: ShipTransfer | None,
    chunked: bool,
    payload: tuple[dict, float | None] | None,
) -> TraceAttempt:
    """The ``trace`` callback of one transfer.  A streamed transfer's
    attempts are payload-less chunk events and its roll-up (unit
    ``None``) is the one payload-carrying ship event; every attempt of a
    monolithic transfer is itself a ship event.  ``payload`` is the
    producer's payload descriptor and the worst staleness its reads saw
    (``None`` exactly when tracing is off)."""
    if recorder is None:
        return lambda *_args: None
    descriptor, staleness = payload

    def trace(
        unit: int | None,
        attempt: int,
        outcome: str,
        at: float,
        seconds: float | None = None,
    ) -> None:
        if chunked and unit is not None:
            chunk = wire.chunks[unit]
            recorder.emit(
                ChunkEvent(
                    at=at,
                    source=source,
                    target=target,
                    chunk=chunk.index,
                    of=len(wire.chunks),
                    rows=chunk.rows,
                    bytes=chunk.nbytes,
                    attempt=attempt,
                    outcome=outcome,
                    seconds=seconds,
                    producer=producer,
                    consumer=consumer,
                )
            )
            return
        recorder.emit(
            ShipEvent(
                at=at,
                source=source,
                target=target,
                rows=batch.nrows,
                bytes=logical_bytes(batch, wire),
                attempt=attempt,
                outcome=outcome,
                seconds=seconds,
                producer=producer,
                consumer=consumer,
                columns=list(batch.columns),
                payload=descriptor,
                staleness_at_read=staleness,
                wire_bytes=None if wire is None else wire.wire_bytes,
                chunks=None if wire is None else len(wire.chunks),
            )
        )

    return trace
