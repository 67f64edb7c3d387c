"""Exact rational arithmetic extended with a point at +infinity.

Thresholds of identically-zero data and Arnold multiplicities of smooth
points are genuinely infinite, so the value space here is Q union {+inf}
rather than floats.  Finite values are stored as ``fractions.Fraction``
(arbitrary precision, always in lowest terms with positive denominator);
infinity is an explicit variant, not a sentinel float.

Conventions, fixed once for the whole package:

* ``finite + inf == inf`` and ``inf + inf == inf``;
* ``reciprocal(0) == inf`` and ``reciprocal(inf) == 0``;
* ``0 * inf == 0`` (scaling by an empty factor wins, which is the right
  reading for scaled multiplicities).
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Union

from .errors import InvalidInputError

_INF_TOKENS = frozenset({"inf", "+inf", "infinity", "+infinity", "oo"})

RationalLike = Union["ExtRational", Fraction, int, str]


@functools.total_ordering
class ExtRational:
    """An exact rational or +infinity.  Immutable and totally ordered."""

    __slots__ = ("_value",)

    _value: Fraction | None  # None encodes +infinity

    def __init__(self, value: RationalLike = 0):
        if isinstance(value, ExtRational):
            exact = value._value
        elif isinstance(value, str):
            if value.strip().lower() in _INF_TOKENS:
                exact = None
            else:
                try:
                    exact = Fraction(value)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInputError(f"not a rational literal: {value!r}") from exc
        elif isinstance(value, (int, Fraction)):
            exact = Fraction(value)
        else:
            raise InvalidInputError(
                f"cannot build an exact rational from {type(value).__name__}"
            )
        object.__setattr__(self, "_value", exact)

    @classmethod
    def _exact(cls, value: Fraction | None) -> "ExtRational":
        """Wrap a value that is already exact (None for +infinity)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_value", value)
        return obj

    def __setattr__(self, name, val):  # pragma: no cover - defensive
        raise AttributeError("ExtRational is immutable")

    @classmethod
    def infinity(cls) -> "ExtRational":
        return cls._exact(None)

    # -- predicates and accessors -------------------------------------

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def is_infinite(self) -> bool:
        return self._value is None

    def as_fraction(self) -> Fraction:
        if self._value is None:
            raise InvalidInputError("value is infinite, no finite fraction exists")
        return self._value

    @property
    def numerator(self) -> int:
        return self.as_fraction().numerator

    @property
    def denominator(self) -> int:
        return self.as_fraction().denominator

    # -- arithmetic ----------------------------------------------------

    def reciprocal(self) -> "ExtRational":
        """1/x with reciprocal(0) = inf and reciprocal(inf) = 0."""
        if self._value is None:
            return ExtRational._exact(Fraction(0))
        if self._value == 0:
            return ExtRational._exact(None)
        if self._value < 0:
            raise InvalidInputError("reciprocal of a negative value is not used here")
        return ExtRational._exact(1 / self._value)

    def __add__(self, other: RationalLike) -> "ExtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return ExtRational._exact(None)
        return ExtRational._exact(self._value + other._value)

    __radd__ = __add__

    def __mul__(self, other: RationalLike) -> "ExtRational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            finite = other._value if other._value is not None else self._value
            if finite is not None and finite < 0:
                raise InvalidInputError("negative multiples of infinity are undefined")
            # 0 * inf == 0 by convention; any positive multiple stays infinite.
            return ExtRational._exact(finite if finite == 0 else None)
        return ExtRational._exact(self._value * other._value)

    __rmul__ = __mul__

    # -- order (total_ordering derives <=, > and >=) ---------------------

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        return other._value is None or self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)  # None hashes fine and only equals itself

    # -- rendering -------------------------------------------------------

    def __float__(self) -> float:
        return float("inf") if self._value is None else float(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"ExtRational({str(self)!r})"


def _coerce(value) -> "ExtRational":
    if isinstance(value, ExtRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ExtRational._exact(Fraction(value))
    return NotImplemented


#: Shared +infinity constant.
INFINITY = ExtRational.infinity()
