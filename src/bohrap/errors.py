"""Exception hierarchy shared across the toolkit, the type checks of JSON
config fields, and the one check of integer arguments.

Exit codes used by the CLI are attached to the classes so the dispatcher
does not need a mapping table.
"""

import numbers
import sys


class BohrapError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ValidationError(BohrapError):
    """Invalid input: malformed config, bad frequency text, illegal parameters."""

    exit_code = 2


class BasisMismatchError(ValidationError):
    """Operands reference different symbol bases."""


class BudgetError(BohrapError):
    """A computation would exceed its configured budget."""

    exit_code = 3


class SupportCapError(BudgetError):
    """Polynomial support would grow past the configured cap."""


class InternalInconsistencyError(BohrapError):
    """An exact invariant failed; this signals a bug, not bad input."""

    exit_code = 4


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else TypeError: ``true``, ``2.9``
    and ``"3"`` are refused, not coerced."""
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, not {type(value).__name__}")
    return value


def json_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, else TypeError or
    ValueError: ``true`` and ``"1.0"`` are refused, not coerced, and so are
    ``NaN``, ``Infinity`` and integers past the float range."""
    if type(value) not in (int, float):
        raise TypeError(f"{what} must be a JSON number, not {type(value).__name__}")
    if not -sys.float_info.max <= value <= sys.float_info.max:  # false for NaN
        raise ValueError(f"{what} must be a finite number")
    return float(value)


def json_array(value, what: str) -> list:
    """``value`` if it is a JSON array, else TypeError: a string is refused,
    not read character by character."""
    if type(value) is not list:
        raise TypeError(f"{what} must be a JSON array, not {type(value).__name__}")
    return value


def check_int(value, what: str, least: int = 0) -> int:
    """``value`` as a Python int if it is an integer (numpy integers pass) of
    at least ``least``, else ValidationError: 2.5 and 1e5 are not truncated,
    and ``True`` is not 1."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValidationError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)
