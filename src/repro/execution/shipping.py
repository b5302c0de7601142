"""The SHIP boundary: what happens to a batch when it leaves a site.

Every SHIP edge is a cut between two fragments, priced and traced once,
by the fragment scheduler's transfer loop
(:mod:`repro.execution.scheduler`).  This module is the one place that
encodes a producer's output for the wire and decodes it again for the
consumer.
"""

from __future__ import annotations

from typing import Any, Sequence

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
