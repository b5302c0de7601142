"""Frozen reference encoder for the SHIP wire codec (test-only).

A verbatim copy of ``repro.execution.wire.encode_column`` — with the
helpers it calls — as it stood before the codec became column-native
(commit ``f4aea0e``): every value sized per candidate through the
``isinstance`` ladder, all three candidates materialised, then two
thrown away.  The production encoder must pick the same encoding with
the same ``values``/``codes``/``nbytes`` on every column;
``test_wire_differential.py`` fuzzes that.  Never imported from
``src/`` and never "improved": it is the oracle.
"""

from __future__ import annotations

import datetime
from typing import Any, Sequence

from repro.execution.wire import COMPRESSION_MODES, EncodedColumn, WireFormatError

#: Bytes billed per dictionary code at a given cardinality.
_DICT_CODE_WIDTHS = ((256, 1), (65536, 2))
#: Bytes billed per run-length counter.
_RLE_RUN_OVERHEAD = 4


def _value_nbytes(value: Any) -> int:
    """Measured wire size of one value (same rules as ``actual_bytes``;
    ``datetime`` before ``date``, ``bool`` before ``int``)."""
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


def _group_key(value: Any) -> tuple:
    """Type-strict grouping key: ``1``, ``1.0`` and ``True`` stay
    distinct, and floats key by ``repr`` so ``-0.0 != 0.0``."""
    if isinstance(value, float):
        return (float, repr(value))
    return (value.__class__, value)


def _dict_code_width(cardinality: int) -> int:
    for bound, width in _DICT_CODE_WIDTHS:
        if cardinality <= bound:
            return width
    return 4


def encode_column(values: Sequence[Any], compression: str = "none") -> EncodedColumn:
    """Encode one column, picking the cheapest eligible encoding.

    ``compression="none"`` always returns ``plain``.  ``"auto"``
    compares exact plain/dict/rle wire sizes and keeps the smallest,
    preferring ``plain`` (then ``dict``) on ties so fault-free wire
    bytes never exceed the uncompressed size.
    """
    column = tuple(values)
    plain_nbytes = sum(_value_nbytes(v) for v in column)
    plain = EncodedColumn("plain", column, (), plain_nbytes)
    if compression == "none" or not column:
        return plain
    if compression != "auto":
        raise WireFormatError(
            f"compression must be one of {COMPRESSION_MODES}, got {compression!r}"
        )
    try:
        keys = [_group_key(v) for v in column]
        for value in column:
            if value != value:  # NaN-like: only reference-passing is exact
                return plain
        distinct: dict[tuple, Any] = {}
        for key, value in zip(keys, column):
            if key not in distinct:
                distinct[key] = value
    except TypeError:  # unhashable value somewhere in the column
        return plain
    dict_values = tuple(distinct.values())
    code_of = {key: i for i, key in enumerate(distinct)}
    width = _dict_code_width(len(dict_values))
    dict_nbytes = sum(_value_nbytes(v) for v in dict_values) + len(column) * width

    run_values: list = []
    run_counts: list[int] = []
    previous: tuple | None = None
    for key, value in zip(keys, column):
        if run_counts and key == previous:
            run_counts[-1] += 1
        else:
            run_values.append(value)
            run_counts.append(1)
            previous = key
    rle_nbytes = sum(_value_nbytes(v) for v in run_values) + _RLE_RUN_OVERHEAD * len(
        run_values
    )

    best = plain
    if dict_nbytes < best.nbytes:
        best = EncodedColumn("dict", dict_values, tuple(code_of[k] for k in keys), dict_nbytes)
    if rle_nbytes < best.nbytes:
        best = EncodedColumn("rle", tuple(run_values), tuple(run_counts), rle_nbytes)
    return best
