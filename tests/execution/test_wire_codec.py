"""Property suite for the compressed columnar SHIP wire format.

The codec sits on the data path (the scheduler hands *decoded* rows to
consumer fragments), so round-trip exactness is a correctness property,
not an optimization detail.  Hypothesis fuzzes columns over every dtype
the executor ships — ints, floats (NaN and signed zeros included),
bools, strings, dates, timestamps, NULLs, and mixed columns — and the
chunked transfer encoder over varied chunk sizes, asserting:

* ``decode(encode(x)) == x`` value-for-value (NaN by identity: the
  plain fallback passes the original objects through by reference);
* ``auto`` never produces more wire bytes than ``plain``;
* chunk row counts tile the batch exactly, in order;
* the declared ``nbytes`` equals the independently recomputed size
  model for whichever encoding was chosen.

Plus deterministic cases: empty and single-row chunks, dictionary and
RLE selection on shaped inputs, type-strict grouping (``1`` vs ``1.0``
vs ``True``), and real low-cardinality TPC-H columns compressing.
"""

from __future__ import annotations

import datetime
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.execution.wire import (
    DEFAULT_CHUNK_ROWS,
    EncodedColumn,
    ShipConfig,
    WireFormatError,
    _value_nbytes,
    encode_column,
    encode_ship,
)

# -- value strategies ----------------------------------------------------------

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.text(max_size=12),
    st.dates(
        min_value=datetime.date(1992, 1, 1), max_value=datetime.date(2000, 1, 1)
    ),
    st.datetimes(
        min_value=datetime.datetime(1992, 1, 1),
        max_value=datetime.datetime(2000, 1, 1),
    ),
)

#: Low-cardinality strategies — these make dict/RLE actually win.
_low_card = st.one_of(
    st.sampled_from(["BUILDING", "MACHINERY", "AUTOMOBILE"]),
    st.sampled_from([0, 1, 2]),
    st.booleans(),
)

_columns = st.one_of(
    st.lists(_scalars, max_size=80),
    st.lists(_low_card, max_size=80),
)


def values_equal(a, b) -> bool:
    """Exact equality with NaN-by-identity (plain passes references)."""
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
        return repr(a) == repr(b)  # -0.0 stays distinct from 0.0
    return type(a) is type(b) and a == b


# -- column round-trips --------------------------------------------------------

@given(column=_columns, compression=st.sampled_from(["none", "auto"]))
def test_column_round_trip(column, compression):
    encoded = encode_column(column, compression)
    decoded = encoded.decode()
    assert len(decoded) == len(column)
    for original, restored in zip(column, decoded):
        assert values_equal(original, restored), (original, restored)


@given(column=_columns)
def test_auto_never_exceeds_plain(column):
    plain = encode_column(column, "none")
    auto = encode_column(column, "auto")
    assert plain.encoding == "plain"
    assert auto.nbytes <= plain.nbytes
    assert plain.nbytes == sum(_value_nbytes(v) for v in column)


@given(column=_columns)
def test_declared_nbytes_matches_size_model(column):
    encoded = encode_column(column, "auto")
    if encoded.encoding == "plain":
        expected = sum(_value_nbytes(v) for v in encoded.values)
    elif encoded.encoding == "dict":
        width = 1 if len(encoded.values) <= 256 else 2
        expected = (
            sum(_value_nbytes(v) for v in encoded.values)
            + len(encoded.codes) * width
        )
    else:  # rle
        expected = sum(_value_nbytes(v) for v in encoded.values) + 4 * len(
            encoded.values
        )
    assert encoded.nbytes == expected


# -- chunked transfer round-trips ----------------------------------------------

@settings(max_examples=60)
@given(
    rows=st.lists(
        st.tuples(_scalars, _low_card, _scalars),
        max_size=60,
    ),
    chunk_rows=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
    compression=st.sampled_from(["none", "auto"]),
)
def test_transfer_round_trip(rows, chunk_rows, compression):
    config = ShipConfig(chunk_rows=chunk_rows, compression=compression)
    wire = encode_ship(["a", "b", "c"], rows, config=config)
    decoded = wire.decode_rows()
    assert len(decoded) == len(rows) == wire.rows
    for original, restored in zip(rows, decoded):
        assert len(restored) == len(original)
        for x, y in zip(original, restored):
            assert values_equal(x, y), (x, y)
    # Chunks tile the batch exactly: sizes per chunk sum to the total,
    # every chunk but the last holds exactly chunk_rows rows.
    assert sum(chunk.rows for chunk in wire.chunks) == len(rows)
    if chunk_rows is None or not rows:
        assert len(wire.chunks) == 1
    else:
        assert len(wire.chunks) == -(-len(rows) // chunk_rows)
        assert all(c.rows == chunk_rows for c in wire.chunks[:-1])
    assert wire.wire_bytes == sum(wire.chunk_sizes)
    if compression == "auto":
        plain = encode_ship(
            ["a", "b", "c"], rows, config=ShipConfig(chunk_rows=chunk_rows)
        )
        assert wire.wire_bytes <= plain.wire_bytes


# -- deterministic shapes ------------------------------------------------------

def test_empty_batch_is_one_empty_chunk():
    """An empty SHIP still sends one (empty) chunk so the link's α
    latency is billed exactly like the monolithic path."""
    wire = encode_ship(["a", "b"], [], config=ShipConfig(chunk_rows=4))
    assert len(wire.chunks) == 1
    assert wire.chunks[0].rows == 0
    assert wire.wire_bytes == 0
    assert wire.decode_rows() == []


def test_single_row_chunks():
    rows = [(i, "x") for i in range(5)]
    wire = encode_ship(["k", "v"], rows, config=ShipConfig(chunk_rows=1))
    assert len(wire.chunks) == 5
    assert [c.rows for c in wire.chunks] == [1] * 5
    assert wire.decode_rows() == rows


def test_zero_column_rows_round_trip():
    wire = encode_ship([], [(), (), ()], config=ShipConfig(chunk_rows=2))
    assert wire.decode_rows() == [(), (), ()]
    assert wire.wire_bytes == 0


def test_dict_encoding_wins_on_low_cardinality_strings():
    column = ["BUILDING", "MACHINERY"] * 50
    encoded = encode_column(column, "auto")
    assert encoded.encoding == "dict"
    # Size model: one copy of each distinct string + 1 byte per row.
    assert encoded.nbytes == len("BUILDING") + len("MACHINERY") + 100
    assert encoded.decode() == column


def test_rle_encoding_wins_on_runs():
    column = ["AAAA"] * 60 + ["BBBB"] * 40
    encoded = encode_column(column, "auto")
    assert encoded.encoding == "rle"
    assert encoded.nbytes == 4 + 4 + 2 * 4  # two run values + two counters
    assert encoded.decode() == column


def test_high_cardinality_stays_plain():
    column = [f"unique-{i:06d}" for i in range(50)]
    encoded = encode_column(column, "auto")
    assert encoded.encoding == "plain"


def test_type_strict_grouping_never_collapses():
    column = [1, 1.0, True, 1, 1.0, True] * 10
    encoded = encode_column(column, "auto")
    decoded = encoded.decode()
    assert [type(v) for v in decoded] == [type(v) for v in column]
    assert all(values_equal(a, b) for a, b in zip(column, decoded))


def test_nan_column_falls_back_to_plain():
    nan = float("nan")
    column = [nan, nan, 1.5, nan] * 10
    encoded = encode_column(column, "auto")
    assert encoded.encoding == "plain"
    decoded = encoded.decode()
    assert decoded[0] is nan  # reference-passing exactness


def test_unhashable_column_falls_back_to_plain():
    column = [[1, 2], [1, 2], [3]] * 5
    encoded = encode_column(column, "auto")
    assert encoded.encoding == "plain"
    assert encoded.decode() == column


def test_signed_zero_stays_distinct():
    column = [0.0, -0.0] * 30
    encoded = encode_column(column, "auto")
    decoded = encoded.decode()
    assert [repr(v) for v in decoded] == [repr(v) for v in column]


def test_ship_config_validation():
    with pytest.raises(WireFormatError):
        ShipConfig(chunk_rows=0)
    with pytest.raises(WireFormatError):
        ShipConfig(chunk_rows=-5)
    with pytest.raises(WireFormatError):
        ShipConfig(compression="zstd")
    with pytest.raises(WireFormatError):
        encode_column([1, 2], "gzip")
    assert not ShipConfig().active
    assert ShipConfig(compression="auto").active
    streaming = ShipConfig(chunk_rows=DEFAULT_CHUNK_ROWS)
    assert streaming.streaming and streaming.active


def test_unknown_compression_rejected_on_an_empty_column():
    """The mode is validated before the empty-column early return:
    ``encode_column((), "gzip")`` used to come back ``plain``."""
    for empty in ((), [], iter(())):
        with pytest.raises(WireFormatError, match="compression must be one of"):
            encode_column(empty, "gzip")
    assert encode_column((), "auto") == EncodedColumn("plain", (), (), 0)


@pytest.mark.parametrize("chunk_rows", [2.5, 4.0, True, False, "8"])
def test_non_integer_chunk_rows_rejected_at_construction(chunk_rows):
    """A float used to survive until ``range()`` raised a raw
    ``TypeError`` at the first encode; ``True`` silently meant 1."""
    with pytest.raises(WireFormatError, match="chunk_rows must be a positive integer"):
        ShipConfig(chunk_rows=chunk_rows)


def test_unknown_encoding_rejected_on_decode():
    with pytest.raises(WireFormatError):
        EncodedColumn("delta", (1, 2), (), 16).decode()


# -- real TPC-H columns --------------------------------------------------------

def test_low_cardinality_tpch_columns_compress(tpch_small):
    """The columns the paper's workload actually ships include
    low-cardinality ones (flags, segments, priorities); ``auto`` must
    beat plain on each of them and round-trip exactly."""
    catalog, database = tpch_small
    cases = [
        ("customer", "c_mktsegment"),
        ("orders", "o_orderpriority"),
        ("lineitem", "l_quantity"),
        # Single-character flags are already 1 byte/row — plain is
        # optimal there, and auto must not make them bigger.
        ("orders", "o_orderstatus"),
        ("lineitem", "l_returnflag"),
        ("lineitem", "l_linestatus"),
    ]
    compressed = 0
    for table, column_name in cases:
        for fragment in catalog.table(table).fragments:
            schema = fragment.schema
            position = [c.name for c in schema.columns].index(column_name)
            column = [
                row[position] for row in database.rows(fragment.database, table)
            ]
            assert len(column) > 0
            plain = encode_column(column, "none")
            auto = encode_column(column, "auto")
            assert auto.decode() == column
            assert auto.nbytes <= plain.nbytes
            compressed += auto.nbytes < plain.nbytes
    assert compressed >= 3  # the real data genuinely compresses
