"""Compressed columnar wire format for SHIP transfers.

A SHIP edge logically moves a batch, but what crosses the simulated WAN
is a :class:`ShipTransfer`: the batch split into fixed-size row chunks,
each chunk encoded column-wise with the cheapest of three per-column
encodings (``plain``, ``dict``, ``rle``).  Billed ``β·bytes`` then
reflect the *wire* size while compliance accounting keeps the *logical*
size — both are recorded, never conflated.

SHIP-boundary conversion rule — the codec is column-native end to end:
:func:`encode_columns` slices each column per chunk and
:meth:`ShipTransfer.decode_columns` hands columns back, so a columnar
producer and consumer never build a row tuple.  :func:`encode_ship` and
:meth:`ShipTransfer.decode_rows` are the one-transpose wrappers for row
callers.

One size model, measured once.  :func:`column_nbytes` is the only sizing
routine (``operators.actual_bytes`` and ``vectorized.column_bytes``
delegate to it).  It dispatches on the exact types present in a column:
``None``/``bool`` = 1 byte per value, ``int``/``float``/``datetime`` =
8, ``date`` = 4, ``str`` = ``len``; a column holding any other type (a
subclass such as ``IntEnum``, ``Decimal``, an arbitrary object) is
measured value by value with :func:`_value_nbytes`, the per-value
statement of the same rules.  Encoding overhead: a dictionary column
pays one copy of each distinct value and a 1/2/4-byte code per row
(cardinality ≤ 256 / ≤ 65536 / beyond); a run-length column pays each
run's value once plus a fixed 4-byte run length.  The three candidate
*sizes* come from that one sizing pass plus the distinct values and the
run heads; only the winning encoding is built, and a transfer's logical
size is the sum of its chunks' plain sizes — no separate walk.

Round-trips are exact by construction: ``plain`` passes the original
objects through by reference (chunk slices of the column); dictionary
and run grouping never merge ``1``/``1.0``/``True`` or ``-0.0``/``0.0``
— a column of one exact built-in type groups on the values themselves
(floats by ``repr`` when both zeros occur), any other column on
``(type, value)`` with floats by ``repr``; and a column holding a value
that is not self-equal (NaN) or not hashable falls back to ``plain``.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, filterfalse, islice, repeat
from operator import ne, sub
from typing import Any, Callable, Iterable, Sequence

ENCODINGS = ("plain", "dict", "rle")
COMPRESSION_MODES = ("none", "auto")

#: Default chunk granularity for the CLI's streaming mode.
DEFAULT_CHUNK_ROWS = 256

#: Bytes billed per dictionary code at a given cardinality.
_DICT_CODE_WIDTHS = ((256, 1), (65536, 2))
#: Bytes billed per run-length counter.
_RLE_RUN_OVERHEAD = 4

#: Bytes per value of each exact type with a fixed wire width.
_FIXED_WIDTHS = {
    type(None): 1,
    bool: 1,
    int: 8,
    float: 8,
    datetime.datetime: 8,
    datetime.date: 4,
}
#: Exact types whose ``==`` cannot merge distinct values inside a column
#: of that one type (float once NaN and mixed zero signs are ruled out).
_VALUE_KEYED = frozenset(_FIXED_WIDTHS) | {str}


class WireFormatError(ValueError):
    """A malformed wire configuration or encoded column."""


def _check_compression(compression: str) -> None:
    if compression not in COMPRESSION_MODES:
        raise WireFormatError(
            f"compression must be one of {COMPRESSION_MODES}, got {compression!r}"
        )


@dataclass(frozen=True)
class ShipConfig:
    """How SHIP edges move batches over the simulated WAN.

    The default — no chunking, no compression — is byte-for-byte the
    legacy monolithic transfer, so existing callers and recorded traces
    are unaffected unless a caller opts in.
    """

    #: Rows per streamed chunk; ``None`` keeps monolithic transfers.
    chunk_rows: int | None = None
    #: ``"none"`` ships plain columns; ``"auto"`` picks the cheapest
    #: of plain/dict/rle per column per chunk.
    compression: str = "none"

    def __post_init__(self) -> None:
        size = self.chunk_rows
        if size is not None and (
            not isinstance(size, int) or isinstance(size, bool) or size <= 0
        ):
            raise WireFormatError(
                f"chunk_rows must be a positive integer, got {size!r}"
            )
        _check_compression(self.compression)

    @property
    def streaming(self) -> bool:
        """Is chunked (pipelined) transfer enabled?"""
        return self.chunk_rows is not None

    @property
    def active(self) -> bool:
        """Does this config change anything over the legacy path?"""
        return self.streaming or self.compression != "none"


def _value_nbytes(value: Any) -> int:
    """Measured wire size of one value: the per-value statement of the
    size model and :func:`column_nbytes`'s fallback for types outside
    the exact built-ins (``datetime`` before ``date``, ``bool`` before
    ``int`` — each is a subclass of the other)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, datetime.datetime):
        return 8
    if isinstance(value, datetime.date):
        return 4
    return 8


def _exact_kind(values: Iterable[Any]) -> type | None:
    """The one exact type every value has, or ``None`` (mixed, empty)."""
    kinds = set(map(type, values))
    return kinds.pop() if len(kinds) == 1 else None


def _sized(values: Any, kind: type | None) -> int:
    """Plain size of a sized iterable of values whose one exact type is
    ``kind`` (``None``: mixed or unknown)."""
    width = _FIXED_WIDTHS.get(kind)
    if width is not None:
        return width * len(values)
    if kind is str:
        return sum(map(len, values))
    return sum(map(_value_nbytes, values))


def column_nbytes(column: Sequence[Any]) -> int:
    """Measured (uncompressed) wire size of one column — one pass, at C
    speed for columns of the exact built-in types."""
    return _sized(column, _exact_kind(column))


def _group_key(value: Any) -> tuple:
    """Type-strict grouping key: ``1``, ``1.0`` and ``True`` stay
    distinct, and floats key by ``repr`` so ``-0.0 != 0.0``."""
    if isinstance(value, float):
        return (float, repr(value))
    return (value.__class__, value)


def _group_keys(column: tuple, kind: type | None) -> tuple | None:
    """Per-row keys under which equal keys mean interchangeable values
    (``column`` itself when the values can stand as their own keys), or
    ``None`` when some value is not self-equal (NaN-like) and only
    reference-passing is exact."""
    if kind is float:
        if any(map(math.isnan, column)):
            return None
        zeros = filterfalse(None, column)  # the falsy floats: 0.0 and -0.0
        if len(set(map(math.copysign, repeat(1.0), zeros))) == 2:
            return tuple(map(repr, column))  # both signs occur
        return column
    if kind in _VALUE_KEYED:
        return column
    for value in column:
        if value != value:
            return None
    return tuple(map(_group_key, column))


def _dict_code_width(cardinality: int) -> int:
    for bound, width in _DICT_CODE_WIDTHS:
        if cardinality <= bound:
            return width
    return 4


@dataclass(frozen=True)
class EncodedColumn:
    """One column of one chunk in its wire encoding.

    ``values``/``codes`` hold, per encoding:

    - ``plain`` — every value in row order; ``codes`` is empty.
    - ``dict``  — the distinct values in first-occurrence order;
      ``codes`` is one dictionary index per row.
    - ``rle``   — one value per run; ``codes`` is the run lengths.
    """

    encoding: str
    values: tuple
    codes: tuple
    nbytes: int

    def decoded(self) -> Iterable[Any]:
        """The column's values in row order, not yet materialised."""
        if self.encoding == "plain":
            return self.values
        if self.encoding == "dict":
            return map(self.values.__getitem__, self.codes)
        if self.encoding == "rle":
            return chain.from_iterable(map(repeat, self.values, self.codes))
        raise WireFormatError(f"unknown column encoding {self.encoding!r}")

    def decode(self) -> list:
        """Reconstruct the column's values in row order."""
        return list(self.decoded())


def _encode(column: tuple, compression: str) -> tuple[EncodedColumn, int]:
    """Encode one column under a validated mode; also returns its plain
    (logical) size, which the same sizing pass produced.

    Every candidate's *size* is derived before anything is built: the
    plain size, the distinct keys (``dict.fromkeys``) and the run heads
    (rows whose key differs from the previous row's) are each one
    C-speed pass; only the winner's ``values``/``codes`` are then
    materialised."""
    kind = _exact_kind(column)
    plain_nbytes = _sized(column, kind)
    plain = (EncodedColumn("plain", column, (), plain_nbytes), plain_nbytes)
    if compression == "none" or not column:
        return plain
    try:
        keys = _group_keys(column, kind)
        if keys is None:
            return plain
        distinct = dict.fromkeys(keys)
    except TypeError:  # unhashable value somewhere in the column
        return plain
    rows = len(column)
    if len(distinct) == rows:
        return plain  # all distinct: dict and rle each add bytes per row
    if keys is column:
        dict_values: Any = distinct
    else:
        # Keys stand in for the values: a group is represented by its
        # first occurrence.
        first: dict = {}
        for key, value in zip(keys, column):
            first.setdefault(key, value)
        dict_values = first.values()
    run_starts = tuple(chain((True,), map(ne, keys, islice(keys, 1, None))))
    run_values = tuple(compress(column, run_starts))
    dict_nbytes = _sized(dict_values, kind) + rows * _dict_code_width(len(distinct))
    rle_nbytes = _sized(run_values, kind) + _RLE_RUN_OVERHEAD * len(run_values)

    # Cheapest wins; plain, then dict, on ties.
    if rle_nbytes < min(plain_nbytes, dict_nbytes):
        heads = tuple(compress(range(rows), run_starts))
        run_lengths = tuple(map(sub, chain(islice(heads, 1, None), (rows,)), heads))
        return EncodedColumn("rle", run_values, run_lengths, rle_nbytes), plain_nbytes
    if dict_nbytes < plain_nbytes:
        code_of = dict(zip(distinct, range(len(distinct))))
        codes = tuple(map(code_of.__getitem__, keys))
        return EncodedColumn("dict", tuple(dict_values), codes, dict_nbytes), plain_nbytes
    return plain


def encode_column(values: Sequence[Any], compression: str = "none") -> EncodedColumn:
    """Encode one column, picking the cheapest eligible encoding.

    ``compression="none"`` always returns ``plain``.  ``"auto"``
    compares exact plain/dict/rle wire sizes and keeps the smallest,
    preferring ``plain`` (then ``dict``) on ties so fault-free wire
    bytes never exceed the uncompressed size.
    """
    _check_compression(compression)
    return _encode(tuple(values), compression)[0]


@dataclass(frozen=True)
class WireChunk:
    """One fixed-size slice of a transfer, encoded column-wise."""

    index: int
    rows: int
    columns: tuple[EncodedColumn, ...]

    @cached_property
    def nbytes(self) -> int:
        """Wire size of the chunk — what β multiplies on this send."""
        return sum(column.nbytes for column in self.columns)

    def decode_rows(self) -> list[tuple]:
        """Reconstruct the chunk's rows in order."""
        return rows_of([column.decode() for column in self.columns], self.rows)


@dataclass(frozen=True)
class ShipTransfer:
    """A full logical SHIP payload in wire form.

    ``logical_bytes`` is the uncompressed batch size (what compliance
    accounting and the monolithic/streamed byte-equivalence compare);
    :attr:`wire_bytes` is what actually crosses the link.  The wire
    sizes are fixed once per transfer: retries and per-chunk trace
    events read them many times.
    """

    columns: tuple[str, ...]
    chunks: tuple[WireChunk, ...]
    rows: int
    logical_bytes: int

    @cached_property
    def chunk_sizes(self) -> tuple[int, ...]:
        return tuple(chunk.nbytes for chunk in self.chunks)

    @cached_property
    def wire_bytes(self) -> int:
        return sum(self.chunk_sizes)

    def decode_columns(self) -> list[list]:
        """Reconstruct the original columns, chunk by chunk, in order."""
        data: list[list] = [[] for _ in self.columns]
        for chunk in self.chunks:
            for out, column in zip(data, chunk.columns):
                out.extend(column.decoded())
        return data

    def decode_rows(self) -> list[tuple]:
        """Reconstruct the original rows, chunk by chunk, in order (each
        chunk transposed while its values are still cache-hot)."""
        rows: list[tuple] = []
        for chunk in self.chunks:
            rows.extend(chunk.decode_rows())
        return rows


def columns_of(rows: Sequence[tuple], width: int) -> list[tuple]:
    """Transpose row tuples into ``width`` columns (an empty batch still
    has one empty column per field)."""
    return list(zip(*rows)) if rows else [()] * width


def rows_of(data: Sequence[Sequence[Any]], nrows: int) -> list[tuple]:
    """Transpose columns into ``nrows`` row tuples (a batch without
    fields still has one empty tuple per row)."""
    return list(zip(*data)) if data else [()] * nrows


def _encode_chunks(
    names: Sequence[str],
    nrows: int,
    parts: Callable[[int, int], Iterable[Sequence[Any]]],
    logical_bytes: int | None,
    config: ShipConfig | None,
) -> ShipTransfer:
    """The chunk loop behind both entries: ``parts(start, stop)`` yields
    the column slices of rows ``start:stop`` in the caller's layout.

    Without chunking the whole batch is one chunk (an empty batch still
    produces one empty chunk so the link's α latency is billed exactly
    as the monolithic path bills it).  The logical size falls out of
    the encoder's own sizing pass unless the caller passes one it has
    already measured (``encode_ship``'s ``logical_bytes``).
    """
    config = config or ShipConfig()
    compression = config.compression
    size = config.chunk_rows or nrows
    measured = 0
    chunks = []
    for index, start in enumerate(range(0, nrows, size) if nrows else (0,)):
        stop = min(start + size, nrows)
        encoded = []
        for part in parts(start, stop):
            column, plain_nbytes = _encode(tuple(part), compression)
            encoded.append(column)
            measured += plain_nbytes
        chunks.append(WireChunk(index=index, rows=stop - start, columns=tuple(encoded)))
    return ShipTransfer(
        columns=tuple(names),
        chunks=tuple(chunks),
        rows=nrows,
        logical_bytes=measured if logical_bytes is None else logical_bytes,
    )


def encode_columns(
    names: Sequence[str],
    data: Sequence[Sequence[Any]],
    nrows: int,
    config: ShipConfig | None = None,
) -> ShipTransfer:
    """Encode a column batch (one sequence of ``nrows`` values per
    name) for the wire under ``config``: each column sliced per chunk,
    no row tuple built."""
    return _encode_chunks(
        names, nrows, lambda start, stop: [column[start:stop] for column in data], None, config
    )


def encode_ship(
    columns: Sequence[str],
    rows: Iterable[tuple],
    logical_bytes: int | None = None,
    config: ShipConfig | None = None,
) -> ShipTransfer:
    """Encode a row batch for the wire: the row wrapper of
    :func:`encode_columns`, transposing each value once — chunk by
    chunk, so the encoder reads a chunk's values while they are still
    cache-hot from the transpose."""
    row_list = rows if isinstance(rows, list) else list(rows)
    width = len(columns)
    return _encode_chunks(
        columns,
        len(row_list),
        lambda start, stop: columns_of(row_list[start:stop], width),
        logical_bytes,
        config,
    )
