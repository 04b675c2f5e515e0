"""Exception types shared across the package, and the one integer rule."""

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
