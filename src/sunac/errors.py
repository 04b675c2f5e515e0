"""Exception types shared across the package, and its argument rules."""

import contextlib
import math
import numbers

import numpy as np

__all__ = [
    "SunacError",
    "InvalidArgumentError",
    "ContractViolationError",
    "NumericError",
    "ConfigError",
    "CorruptStreamError",
]


class SunacError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidArgumentError(SunacError, ValueError):
    """An argument value violates an operation's preconditions."""


class ContractViolationError(SunacError, ValueError):
    """Inputs are mutually inconsistent: shapes, lengths, or rates disagree."""


class NumericError(SunacError, ArithmeticError):
    """A computation produced non-finite values."""


class ConfigError(SunacError, ValueError):
    """A model, fixture, or analyzer configuration is structurally invalid."""


class CorruptStreamError(SunacError, ValueError):
    """A serialized stream or weight file failed validation on read."""


def integer(name: str, value, lo=-math.inf, hi=math.inf) -> int:
    """`value` as a Python int when it is an integral real number in
    [lo, hi]: an int, a numpy integer, or an integral float such as 2.0.
    Anything else (a bool, text, None, a fraction, NaN, an infinity, or a
    value out of range) raises InvalidArgumentError."""
    if (isinstance(value, numbers.Real)
            and not isinstance(value, (bool, np.bool_))):
        try:
            as_int = int(value)
        except (ValueError, OverflowError):  # NaN, inf
            as_int = None
        if as_int == value and lo <= as_int <= hi:
            return as_int
    raise InvalidArgumentError(
        f"{name} must be an integer in [{lo}, {hi}], got {value!r}")


def samples(duration_s, rate: int, lo: int, hi: int) -> int:
    """round(duration_s * rate), the sample count of a real, positive and
    finite duration, when it lies in [lo, hi].  Anything else (a bool, text,
    NaN, an infinity, too short or too long a duration) raises
    InvalidArgumentError."""
    if (isinstance(duration_s, numbers.Real)
            and not isinstance(duration_s, (bool, np.bool_))):
        with contextlib.suppress(OverflowError):  # beyond the float range
            total = float(duration_s) * rate
            if 0 < total <= hi and round(total) >= lo:
                return round(total)
    raise InvalidArgumentError(f"duration_s must give {lo} to {hi} samples "
                               f"at {rate} Hz, got {duration_s!r}")


def real_array(name: str, value, dtype) -> np.ndarray:
    """`value` as an array of `dtype` if it holds integers, or floats where
    `dtype` is a float type.  Anything else (bools, complex numbers, text,
    bytes, objects, dates, records, or what np.asarray cannot make one array
    of) raises InvalidArgumentError.  Overflow in the cast is quiet: a value
    too large for `dtype` becomes +-inf for the caller's finiteness check."""
    floats = np.dtype(dtype).kind == "f"
    try:
        array = np.asarray(value)
    except (ValueError, TypeError, OverflowError):  # ragged, or not an array
        array = np.empty(0, dtype=object)
    if array.dtype.kind not in ("iuf" if floats else "iu"):
        raise InvalidArgumentError(
            f"{name} must be {'real numbers' if floats else 'integers'}, "
            f"got dtype {array.dtype}")
    with np.errstate(over="ignore"):
        return array.astype(dtype, copy=False)
