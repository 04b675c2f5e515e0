"""Exception types shared across the package, and its argument rules."""

import contextlib
import dataclasses
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


def sequence(name: str, value) -> list:
    """The items of `value` as a list.  Anything that cannot be iterated
    (None, a number) raises InvalidArgumentError."""
    try:
        items = iter(value)
    except TypeError:
        raise InvalidArgumentError(
            f"{name} must be a sequence, got {value!r}") from None
    return list(items)


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


def real_array(name: str, value, dtype=None) -> np.ndarray:
    """`value` as an array of `dtype` if it holds integers, or floats where
    `dtype` is a float type; with no `dtype`, integers in their own dtype,
    so a range check sees the values as given.  Anything else (bools,
    complex numbers, text, bytes, objects, dates, records, or what
    np.asarray cannot make one array of) raises InvalidArgumentError.
    Overflow in the cast is quiet: a value too large for `dtype` becomes
    +-inf for the caller's finiteness check."""
    floats = dtype is not None and np.dtype(dtype).kind == "f"
    try:
        array = np.asarray(value)
    except (ValueError, TypeError, OverflowError):  # ragged, or not an array
        array = np.empty(0, dtype=object)
    if array.dtype.kind not in ("iuf" if floats else "iu"):
        raise InvalidArgumentError(
            f"{name} must be {'real numbers' if floats else 'integers'}, "
            f"got dtype {array.dtype}")
    if dtype is None:
        return array
    with np.errstate(over="ignore"):
        return array.astype(dtype, copy=False)


def weight_fields(holder, shapes: str) -> dict:
    """Read the array fields of the frozen dataclass `holder` (all but an int
    field) in order as float32 through real_array, and store them back.
    `shapes` has one word per field and one letter per axis, a letter standing
    for the first size it meets; a word led by "+" is a non-empty sequence of
    such arrays.  Any other rank or size raises ContractViolationError naming
    the class and the field.  Returns the letter sizes."""
    sizes = {}
    names = [f.name for f in dataclasses.fields(holder) if f.type != "int"]
    for name, word in zip(names, shapes.split(), strict=True):
        label, axes = f"{type(holder).__name__}.{name}", word.lstrip("+")
        value = getattr(holder, name)
        arrays = [real_array(label, item, np.float32) for item in
                  (sequence(label, value) if axes != word else [value])]
        if not arrays:
            raise ContractViolationError(f"{label} holds no arrays")
        for array in arrays:
            if array.ndim != len(axes) or any(sizes.setdefault(a, n) != n
                                              for a, n in zip(axes, array.shape)):
                raise ContractViolationError(
                    f"{label} has shape {array.shape}, expected "
                    f"({', '.join(axes)}{',' * (len(axes) == 1)}) with {sizes}")
        object.__setattr__(holder, name, arrays[0] if axes == word else tuple(arrays))
    return sizes
