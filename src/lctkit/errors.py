"""Exception types shared across the package.

The command line layer maps these onto exit codes: invalid input exits
with 1, insufficient data with 2, and internal consistency failures with 3.

Inputs are refused by require_int, require_real, require_instance and require_items, not assert.
"""

import math
from fractions import Fraction
from typing import Optional, Union


class LctError(Exception):
    """Base class for all package errors."""


class InvalidInputError(LctError, ValueError):
    """Raised when arguments violate a documented precondition."""


class NotFanoError(InvalidInputError):
    """Raised when an operation needs k > d but the weight system has k <= d."""


class InsufficientDataError(LctError):
    """Raised when an estimate cannot be formed from the data that survived."""


class InternalError(LctError):
    """Raised when a result breaks an invariant the package guarantees.

    An explicit raise rather than ``assert``, so the check survives
    ``python -O``.
    """


def _size(value: Union[int, Fraction]) -> str:
    """An exact number named by its size in bits, for one too long to print."""
    if value.denominator == 1:
        bits = value.numerator.bit_length()
        return f"{'a negative' if value < 0 else 'an'} integer of {bits} bits"
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    return f"{'a negative' if value < 0 else 'a'} fraction of {bits} bits"


def exact_text(value: Union[int, Fraction]) -> str:
    """``str(value)`` of an int or Fraction.  Python refuses to write an int
    of more than 4300 digits (its int-to-str limit), and such a value is
    refused with InvalidInputError naming its size in bits."""
    try:
        return str(value)
    except ValueError:
        raise InvalidInputError(f"{_size(value)} is too long to print") from None


def require_int(value, minimum: Optional[int], message: str) -> int:
    """Return ``value`` if it is an int (not a bool) and at least
    ``minimum`` (no bound when None); otherwise raise InvalidInputError
    with ``message.format(value=value)``.  Formatting only on failure
    keeps the check cheap on hot constructors.  An int too long to print
    (see :func:`exact_text`) is shown by its size."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        try:
            text = message.format(value=value)
        except ValueError:
            text = message.replace("{value!r}", "{value}").format(value=_size(value))
        raise InvalidInputError(text)
    return value


def require_real(value, message: str, low: float = -math.inf, high: float = math.inf) -> float:
    """Return ``value`` as a float if it is an int or a float (not a bool)
    strictly between ``low`` and ``high``, which by default refuse only
    infinities and NaN; otherwise raise InvalidInputError with
    ``message.format(value=value)``.  An int past the float range is
    reported as +-inf: it is one, as a float, and its repr may not print."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = value = math.inf if value > 0 else -math.inf
        if low < real < high:
            return real
    raise InvalidInputError(message.format(value=value))


def require_instance(value, kinds, message: str):
    """``value`` if ``isinstance(value, kinds)``, ``kinds`` a class or a tuple of them (``bool``,
    ``collections.abc.Callable``); else InvalidInputError with ``message.format(kind=...)``."""
    if isinstance(value, kinds):
        return value
    raise InvalidInputError(message.format(kind=type(value).__name__))


def require_items(value, message: str) -> tuple:
    """``tuple(value)`` of any iterable, a str too; else InvalidInputError as
    :func:`require_instance` raises it.  An error while iterating passes through."""
    try:
        items = iter(value)
    except TypeError:
        raise InvalidInputError(message.format(kind=type(value).__name__)) from None
    return tuple(items)
