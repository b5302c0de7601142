"""Shared parameter validators for tuning knobs.

Every sizing/timeout knob in the system — worker counts, retry budgets,
fragment timeouts, staleness bounds, and the query server's
``--concurrency`` / ``--queue-depth`` / ``--deadline`` flags — funnels
through these helpers, so an out-of-range value always fails with the
same typed :class:`~repro.errors.InvalidParameterError` and the same
message shape ("<name> must be ..., got <value>") instead of an opaque
crash deep inside a layer, a bare ``argparse`` type error, or a
silently-accepted nonsense value.
"""

from __future__ import annotations

from .errors import InvalidParameterError


def validate_positive_int(value: object, name: str) -> int:
    """``value`` as an ``int >= 1``; bools and non-integers are rejected
    (``True`` is a valid ``int`` to Python but never a sane knob)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(
            f"{name} must be a positive integer, got {value!r}"
        )
    if value < 1:
        raise InvalidParameterError(
            f"{name} must be a positive integer, got {value}"
        )
    return value


def validate_non_negative_int(value: object, name: str) -> int:
    """``value`` as an ``int >= 0`` (retry budgets: 0 disables)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(
            f"{name} must be a non-negative integer, got {value!r}"
        )
    if value < 0:
        raise InvalidParameterError(
            f"{name} must be a non-negative integer, got {value}"
        )
    return value


def validate_timeout(value: object, name: str) -> float | None:
    """``value`` as a strictly positive number of (simulated) seconds,
    or ``None`` meaning "no limit".  Zero is rejected rather than being
    a surprising alias for either extreme."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(
            f"{name} must be a positive number of seconds, got {value!r}"
        )
    if value != value or value <= 0:  # NaN or non-positive
        raise InvalidParameterError(
            f"{name} must be a positive number of seconds, got {value}"
        )
    return float(value)


def validate_staleness_bound(value: object, name: str) -> float | None:
    """``value`` as a non-negative number of seconds, or ``None`` meaning
    "no bound".  NaN is rejected: every comparison against it is false,
    so it would silently admit no replica at plan time and every read at
    run time."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidParameterError(f"{name} must be >= 0 seconds, got {value!r}")
    if value != value or value < 0:  # NaN or negative
        raise InvalidParameterError(f"{name} must be >= 0 seconds, got {value}")
    return value
