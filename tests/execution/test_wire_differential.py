"""Differential and property tests for the column-native SHIP codec.

The production encoder derives the three candidate sizes from one
sizing pass and builds only the winner; ``reference_codec.py`` is the
frozen per-value encoder it replaced.  The codec's *choice* is the
oracle — same encoding, same ``values``/``codes``, same ``nbytes`` —
because wire bytes, chunk sizes and every recorded trace hang off it.

Also here: the one-size-model property (``column_nbytes``,
``actual_bytes`` and ``column_bytes`` agree with the per-value rule on
heterogeneous columns), the column entry equalling the row wrapper for
every chunking, and the scheduler-level guarantee that a batch-backend
streamed run ships columns without ever transposing a producer's output.
"""

from __future__ import annotations

import datetime
import enum
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution import ExecutionEngine, actual_bytes, column_bytes
from repro.execution.vectorized import ColumnBatch
from repro.execution.wire import (
    ShipConfig,
    _value_nbytes,
    column_nbytes,
    columns_of,
    encode_column,
    encode_columns,
    encode_ship,
)
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, curated_policies
from repro.trace import TraceRecorder, tracing

from .reference_codec import encode_column as reference_encode_column


class Flag(enum.IntEnum):
    OFF = 0
    ON = 1


class Tag(str):
    """A ``str`` subclass: not the exact type, so it takes the
    per-value path."""


_OBJECTS = [object(), object()]

_dates = st.dates(
    min_value=datetime.date(1992, 1, 1), max_value=datetime.date(1992, 1, 6)
)
_datetimes = st.datetimes(
    min_value=datetime.datetime(1992, 1, 1), max_value=datetime.datetime(1992, 1, 6)
)

#: Anything a column can hold, hashable or not.
_any_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, 1.0, 1, True, 0, False]),
    st.text(max_size=6),
    _dates,
    _datetimes,
    st.sampled_from(list(Flag)),
    st.sampled_from([Tag("a"), Tag("bb"), "a"]),
    st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("NaN"), Decimal("2.50")]),
    st.sampled_from(_OBJECTS),
    st.lists(st.integers(0, 2), max_size=2),  # unhashable
)


def _runs(values: st.SearchStrategy) -> st.SearchStrategy:
    """Columns built from runs, so RLE and dict are real contenders and
    exact plain/dict/RLE ties occur (e.g. ``["ab", "ab"]`` ties plain
    with dict, ``[5] * 4`` ties dict with RLE)."""
    return st.lists(
        st.tuples(values, st.integers(min_value=1, max_value=6)), max_size=12
    ).map(lambda runs: [value for value, count in runs for _ in range(count)])


def _homogeneous(values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.lists(values, max_size=40), _runs(values))


_columns = st.one_of(
    # One exact type per column: the value-keyed fast path.
    _homogeneous(st.integers(min_value=-2, max_value=2)),
    _homogeneous(st.booleans()),
    _homogeneous(st.none()),
    _homogeneous(st.sampled_from(["", "a", "ab", "abcd", "MACHINERY"])),
    _homogeneous(_dates),
    _homogeneous(_datetimes),
    _homogeneous(st.sampled_from([0.0, -0.0, 1.5, float("inf")])),
    _homogeneous(st.floats(allow_nan=True, width=64)),
    # One non-built-in type per column: the per-value path.
    _homogeneous(st.sampled_from(list(Flag))),
    _homogeneous(st.sampled_from([Decimal("1"), Decimal("1.0"), Decimal("7")])),
    _homogeneous(st.sampled_from(_OBJECTS)),
    # Mixed columns: type-strict keys.
    _homogeneous(st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False])),
    _homogeneous(st.one_of(st.none(), st.integers(min_value=0, max_value=2))),
    _homogeneous(st.one_of(st.none(), st.sampled_from(["x", "yy"]))),
    _homogeneous(st.one_of(_dates, _datetimes)),
    _homogeneous(_any_value),
)


def identical(a, b) -> bool:
    """Stricter than ``==``: same object, or same exact type, equal and
    same ``repr`` (so ``-0.0`` is not ``0.0`` and ``1`` is not ``True``)."""
    return a is b or (type(a) is type(b) and a == b and repr(a) == repr(b))


def assert_same_encoding(new, reference) -> None:
    assert new.encoding == reference.encoding
    assert new.nbytes == reference.nbytes
    assert new.codes == reference.codes
    assert type(new.values) is type(reference.values) is tuple
    assert len(new.values) == len(reference.values)
    assert all(map(identical, new.values, reference.values))


# -- the encoder's choice against the frozen reference ------------------------------


@settings(max_examples=300)
@given(column=_columns, compression=st.sampled_from(["none", "auto"]))
def test_encoder_matches_frozen_reference(column, compression):
    assert_same_encoding(
        encode_column(column, compression), reference_encode_column(column, compression)
    )


@pytest.mark.parametrize(
    "column",
    [
        [],
        [7],
        ["only-run"] * 9,
        ["ab", "ab"],  # plain == dict < rle: plain
        [5, 5, 5, 5],  # dict == rle < plain: dict
        ["abcd", "abcd", "abcd", "abcd", "abcdefgh", "abcdefgh"],  # dict == rle
        ["abcdefgh", "abcdefgh"],  # plain > rle == 12 > dict
        [True, True, True, True, True, True],  # rle 5 < plain 6 < dict 7
        [0.0, -0.0, 0.0, -0.0, 0.0, 0.0],
        [-0.0] * 8,
        [float("nan")] * 8,
        [1, 1.0, True] * 6,
        [None, 3, None, 3, 3, 3, None, None],
        [datetime.date(1992, 1, 1), datetime.datetime(1992, 1, 1)] * 5,
        [[1], [1], [1], [1]],
        [Flag.ON, 1, Flag.ON, 1, True, True],
    ],
    ids=repr,
)
def test_deterministic_shapes_match_reference(column):
    assert_same_encoding(
        encode_column(column, "auto"), reference_encode_column(column, "auto")
    )


@pytest.mark.parametrize(
    "distinct, width", [(300, 2), (70_000, 4)], ids=["2-byte-codes", "4-byte-codes"]
)
def test_wide_dictionary_codes_match_reference(distinct, width):
    """More than 256 / 65 536 distinct values: dict still wins on long
    strings, paying 2 / 4 bytes per code."""
    values = [f"value-{i:014d}" for i in range(distinct)]
    column = values + values  # no run longer than 1
    new = encode_column(column, "auto")
    assert new.encoding == "dict"
    assert new.nbytes == 20 * distinct + width * len(column)
    assert_same_encoding(new, reference_encode_column(column, "auto"))
    assert new.decode() == column


# -- one size model ------------------------------------------------------------------


@given(column=st.lists(_any_value, max_size=40))
def test_one_size_model(column):
    """``column_nbytes``, ``actual_bytes`` and ``column_bytes`` all equal
    the per-value rule — ``bool`` is not ``int``, ``datetime`` is not
    ``date``, subclasses and unknown objects take the fallback."""
    expected = sum(_value_nbytes(value) for value in column)
    assert column_nbytes(column) == expected
    assert column_nbytes(tuple(column)) == expected
    assert column_bytes([column, column]) == 2 * expected
    assert actual_bytes([(value, value) for value in column]) == 2 * expected


def test_size_model_per_type():
    sizes = [
        (None, 1),
        (True, 1),
        (7, 8),
        (2**80, 8),
        (2.5, 8),
        ("héllo", 5),
        (datetime.datetime(2020, 1, 2, 3, 4), 8),
        (datetime.date(2020, 1, 2), 4),
        (Flag.ON, 8),
        (Tag("abc"), 3),
        (Decimal("1.5"), 8),
    ]
    for value, size in sizes:
        assert column_nbytes([value] * 3) == 3 * size, value
    assert column_nbytes([object(), None]) == 9
    assert column_nbytes([]) == 0
    assert actual_bytes([]) == 0
    assert column_bytes([]) == 0


# -- the column entry equals the row wrapper -----------------------------------------

_cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.sampled_from([0.0, -0.0, 1.5]),
    st.sampled_from(["", "a", "MACHINERY"]),
    _dates,
)


@settings(max_examples=60)
@given(
    rows=st.lists(
        st.tuples(_cells, st.sampled_from(["x", "y"]), st.integers(0, 1)), max_size=40
    ),
    chunk_rows=st.sampled_from([None, 1, 2, 256]),
    compression=st.sampled_from(["none", "auto"]),
)
def test_encode_columns_equals_encode_ship(rows, chunk_rows, compression):
    names = ["a", "b", "c"]
    config = ShipConfig(chunk_rows=chunk_rows, compression=compression)
    by_rows = encode_ship(names, rows, config=config)
    by_columns = encode_columns(names, columns_of(rows, 3), len(rows), config=config)
    assert by_columns == by_rows
    assert by_columns.logical_bytes == sum(_value_nbytes(v) for row in rows for v in row)
    assert by_columns.decode_rows() == rows
    assert by_columns.decode_columns() == [list(c) for c in columns_of(rows, 3)]
    # Every chunk's columns are the reference encoder's, slice by slice.
    size = chunk_rows or max(len(rows), 1)
    for chunk in by_columns.chunks:
        part = rows[chunk.index * size : (chunk.index + 1) * size]
        for encoded, column in zip(chunk.columns, columns_of(part, 3)):
            assert_same_encoding(encoded, reference_encode_column(column, compression))


@pytest.mark.parametrize("chunk_rows", [None, 1, 2, 256])
def test_empty_batch_is_one_empty_chunk_either_entry(chunk_rows):
    config = ShipConfig(chunk_rows=chunk_rows, compression="auto")
    by_columns = encode_columns(["a", "b"], [(), ()], 0, config=config)
    assert by_columns == encode_ship(["a", "b"], [], config=config)
    (chunk,) = by_columns.chunks
    assert (chunk.rows, chunk.nbytes, len(chunk.columns)) == (0, 0, 2)
    assert by_columns.logical_bytes == by_columns.wire_bytes == 0
    assert by_columns.decode_columns() == [[], []]
    assert by_columns.decode_rows() == []


def test_plain_passes_the_original_objects_by_reference():
    marker = object()
    nan = float("nan")
    data = [(marker, nan, marker), ("s", "t", "u")]
    wire = encode_columns(["o", "s"], data, 3, config=ShipConfig(2, "auto"))
    assert [c.encoding for chunk in wire.chunks for c in chunk.columns] == ["plain"] * 4
    decoded = wire.decode_columns()
    assert decoded[0][0] is marker and decoded[0][2] is marker
    assert decoded[0][1] is nan


def test_wire_sizes_are_fixed_once():
    """``nbytes`` / ``wire_bytes`` / ``chunk_sizes`` are computed once
    per object, and the cache is invisible to equality."""
    rows = [(i % 3, "x") for i in range(10)]
    config = ShipConfig(chunk_rows=4, compression="auto")
    read, unread = encode_ship(["k", "v"], rows, config=config), encode_ship(
        ["k", "v"], rows, config=config
    )
    assert read.chunk_sizes is read.chunk_sizes
    assert read.wire_bytes == sum(read.chunk_sizes) == sum(c.nbytes for c in read.chunks)
    assert read == unread and read.chunks[0] == unread.chunks[0]


# -- the scheduler ships columns -----------------------------------------------------


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR"), tpch_network
    )
    return database, tpch_network, optimizer


def _traced(engine, plan):
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    transfers = [e for e in recorder.events() if e.kind in ("ship", "chunk")]
    return result, transfers


@pytest.mark.parametrize("name", ["Q3", "Q5", "Q10"])
def test_batch_backend_ships_columns_without_transposing(world, name, monkeypatch):
    database, network, optimizer = world
    plan = optimizer.optimize(QUERIES[name]).plan
    stream = ShipConfig(chunk_rows=64, compression="auto")

    def engine(executor):
        return ExecutionEngine(
            database, network, max_workers=2, executor=executor, ship=stream
        )

    by_rows, row_transfers = _traced(engine("row"), plan)

    transposed = []
    to_rows = ColumnBatch.to_rows

    def counting_to_rows(self):
        transposed.append(self)
        return to_rows(self)

    monkeypatch.setattr(ColumnBatch, "to_rows", counting_to_rows)
    by_columns, column_transfers = _traced(engine("batch"), plan)

    assert len(by_columns.metrics.fragments) > 1  # there are SHIP edges to cross
    # Only the root fragment's output — the final result — became rows.
    assert len(transposed) == 1
    assert to_rows(transposed[0]) == by_columns.rows
    assert by_columns.rows == by_rows.rows
    assert all(type(row) is tuple for row in by_columns.rows)
    assert by_columns.metrics.ships == by_rows.metrics.ships
    assert column_transfers == row_transfers
