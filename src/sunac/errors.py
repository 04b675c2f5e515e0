"""Exception types shared across the package, and its argument rules: an
integer, a sequence, a duration (`samples`), an object's class (`instance`),
an array's dtype (`real_array`) and shape (`shape`), and a weight holder's
arrays (`weight_fields`), each refused with a typed error naming it."""

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


def instance(name: str, value, classes):
    """`value` when it is an instance of `classes`; anything else raises
    InvalidArgumentError naming the class wanted, or of a tuple of classes
    the first ("bytes" for bytes, bytearray and memoryview)."""
    if isinstance(value, classes):
        return value
    wanted = classes[0].__name__ if isinstance(classes, tuple) else (
        f"{'an' if classes.__name__[0] in 'AEIOU' else 'a'} {classes.__name__}")
    raise InvalidArgumentError(f"{name} must be {wanted}, got {type(value).__name__}")


def real_array(name: str, value, dtype=None) -> np.ndarray:
    """`value` as an array of `dtype` if it holds integers, or floats where
    `dtype` is a float type (and complex numbers where it is complex); with
    no `dtype`, integers in their own dtype, so a range check sees the values
    as given.  Anything else (bools, complex numbers, text, bytes, objects,
    dates, records, or what np.asarray cannot make one array of) raises
    InvalidArgumentError.  Overflow in the cast is quiet: a value too large
    for `dtype` becomes +-inf for the caller's finiteness check."""
    kinds, what = {"f": ("iuf", "real numbers"), "c": ("iufc", "numbers")}.get(
        None if dtype is None else np.dtype(dtype).kind, ("iu", "integers"))
    try:
        array = np.asarray(value)
    except (ValueError, TypeError, OverflowError):  # ragged, or not an array
        array = np.empty(0, dtype=object)
    if array.dtype.kind not in kinds:
        raise InvalidArgumentError(
            f"{name} must be {what}, got dtype {array.dtype}")
    if dtype is None:
        return array
    with np.errstate(over="ignore"):
        return array.astype(dtype, copy=False)


def shape(owner: str, field: str, array: np.ndarray, axes, sizes: dict) -> dict:
    """Check the shape of `array`, the argument `field` of `owner`, against
    `axes`: a word, or a tuple of words of different lengths for a site
    that takes more than one rank, with one letter per axis.  A letter in
    `sizes` must match that size; otherwise the first size it meets sets it
    in `sizes`, which is returned.  Any other rank or size raises
    ContractViolationError naming the owner and the field."""
    words = (axes,) if isinstance(axes, str) else axes
    word = next((w for w in words if len(w) == array.ndim), None)
    if word is None or any(sizes.setdefault(a, n) != n
                           for a, n in zip(word, array.shape)):
        wanted = " or ".join(
            f"({', '.join(str(sizes.get(a, a)) for a in w)}{',' * (len(w) == 1)})"
            for w in words)
        raise ContractViolationError(
            f"{owner} wants a {wanted} {field}, got {array.shape}")
    return sizes


def weight_fields(holder, shapes: str, **sizes) -> dict:
    """Read the array fields of the frozen dataclass `holder` (all but an int
    field) in order as float32 through real_array, and store them back.
    `shapes` has one `shape` word per field, its letters shared by all the
    fields and preset by `sizes`; a word led by "+" is a non-empty sequence
    of such arrays.  Any other rank or size raises ContractViolationError
    naming the class and the field.  Returns the letter sizes."""
    names = [f.name for f in dataclasses.fields(holder) if f.type != "int"]
    for name, word in zip(names, shapes.split(), strict=True):
        label, axes = f"{type(holder).__name__}.{name}", word.lstrip("+")
        value = getattr(holder, name)
        arrays = [real_array(label, item, np.float32) for item in
                  (sequence(label, value) if axes != word else [value])]
        if not arrays:
            raise ContractViolationError(f"{label} holds no arrays")
        for array in arrays:
            shape(label, "array", array, axes, sizes)
        object.__setattr__(holder, name, arrays[0] if axes == word else tuple(arrays))
    return sizes
