"""Exception types shared across the package."""

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
