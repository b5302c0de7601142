"""The SHIP boundary: what happens to a batch when it leaves a site.

One place encodes a batch for the wire and decodes it again, and one
place accounts a sequential executor's SHIP — so the row executor, the
batch executor, and the fragment scheduler cannot drift apart on what
a transfer ships, bills, or traces.
"""

from __future__ import annotations

from typing import Callable

from ..geo import NetworkModel
from ..plan import Ship
from ..trace import current_recorder
from .metrics import ExecutionMetrics, ShipRecord
from .wire import ShipConfig, ShipTransfer, encode_ship


def wire_round_trip(
    columns: list[str], rows: list[tuple], nbytes: int, config: ShipConfig
) -> tuple[ShipTransfer, list[tuple]]:
    """Encode a batch for the wire and decode it again: the transfer's
    wire form plus the rows the far side reads.  Every consumer of a
    shipped batch is handed the *decoded* rows, so the codec sits on the
    data path — a round-trip bug diverges rows, not just byte counts."""
    wire = encode_ship(columns, rows, logical_bytes=nbytes, config=config)
    return wire, wire.decode_rows()


def ship_boundary(
    node: Ship,
    columns: list[str],
    nrows: int,
    nbytes: int,
    rows: Callable[[], list[tuple]],
    network: NetworkModel,
    metrics: ExecutionMetrics,
    config: ShipConfig,
) -> list[tuple] | None:
    """A sequential executor's SHIP: wire round trip (active configs
    only), one :class:`ShipRecord`, one trace event — priced once.

    The row and batch executors differ only in how they hold the
    child's output, so ``rows`` is a thunk: the batch executor
    transposes its columns only when a wire config actually needs row
    tuples.  Returns the decoded rows the consumer must read, or
    ``None`` when the config is inactive and the caller's own batch
    passes through untouched.  ``nbytes`` is always the logical size."""
    decoded = wire_bytes = chunks = None
    if config.active:
        wire, decoded = wire_round_trip(columns, rows(), nbytes, config)
        wire_bytes, chunks = wire.wire_bytes, len(wire.chunks)
    seconds = network.transfer_time(
        node.source, node.target, nbytes if wire_bytes is None else wire_bytes
    )
    metrics.ships.append(
        ShipRecord(
            node.source,
            node.target,
            nrows,
            nbytes,
            seconds,
            wire_bytes=wire_bytes,
            chunks=1 if chunks is None else chunks,
        )
    )
    recorder = current_recorder()
    if recorder is not None:
        recorder.record_local_ship(
            node,
            rows=nrows,
            nbytes=nbytes,
            columns=columns,
            seconds=seconds,
            wire_bytes=wire_bytes,
            chunks=chunks,
        )
    return decoded
