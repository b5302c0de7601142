"""The SHIP boundary: what happens to a batch when it leaves a site.

One place encodes a batch for the wire and decodes it again, and one
place accounts a sequential executor's SHIP — so the row executor, the
batch executor, and the fragment scheduler cannot drift apart on what
a transfer ships, bills, or traces.
"""

from __future__ import annotations

from typing import Any, Sequence

from ..geo import NetworkModel
from ..plan import Ship
from ..trace import current_recorder
from .metrics import ExecutionMetrics, ShipRecord
from .wire import ShipConfig, ShipTransfer, encode_columns


def wire_round_trip(
    columns: Sequence[str], data: Sequence[Sequence[Any]], nrows: int, config: ShipConfig
) -> tuple[ShipTransfer, list[list]]:
    """Encode a column batch for the wire and decode it again: the
    transfer's wire form (its ``logical_bytes`` measured by the encoder's
    own sizing pass) plus the columns the far side reads.  Every
    consumer of a shipped batch is handed the *decoded* data, so the
    codec sits on the data path — a round-trip bug diverges rows, not
    just byte counts."""
    wire = encode_columns(columns, data, nrows, config)
    return wire, wire.decode_columns()


def ship_boundary(
    node: Ship,
    batch: Any,
    network: NetworkModel,
    metrics: ExecutionMetrics,
    config: ShipConfig,
) -> list[list] | None:
    """A sequential executor's SHIP: wire round trip (active configs
    only), one :class:`ShipRecord`, one trace event — priced once.

    ``batch`` is the child's output in either backend's layout — a
    ``RowBatch`` or a ``ColumnBatch``; both expose ``columns``,
    ``nrows``, ``nbytes`` and column ``data``, and only an active wire
    config reads ``data`` (for the row backend, the one transpose).
    Returns the decoded columns the consumer must read, or ``None`` when
    the config is inactive and the caller's own batch passes through
    untouched.  The logical size is the encoder's measurement when the
    codec runs and ``batch.nbytes`` otherwise."""
    columns, nrows = batch.columns, batch.nrows
    decoded = wire_bytes = chunks = None
    if config.active:
        wire, decoded = wire_round_trip(columns, batch.data, nrows, config)
        nbytes, wire_bytes, chunks = wire.logical_bytes, wire.wire_bytes, len(wire.chunks)
    else:
        nbytes = batch.nbytes
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
