"""Exact singularity exponents for computable classes.

Covers the cases where the complex singularity exponent (log canonical
threshold) has a closed form: thresholds read off a log resolution,
principal monomials, diagonal monomial ideals, and direct/separated sums
of those.  Everything here is exact rational arithmetic; nothing samples
or estimates.  Arbitrary polynomials are out of scope by design, the
Monte-Carlo oracle in :mod:`lctkit.volume` handles those numerically.

Spec grammar accepted by :func:`parse_spec`::

    mono:3,2                 principal monomial z1^3 z2^2
    diag:2,3                 diagonal ideal (z1^2, z2^3)
    dsum(<spec>;<spec>)      ideal sum on disjoint variable blocks
    ssum(<spec>;<spec>)      function sum f(z) + g(w), disjoint variables
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInputError, require_int
from .extrational import ExtRational, INFINITY


# ---------------------------------------------------------------------------
# resolution data


@dataclass(frozen=True)
class DivisorRecord:
    """One exceptional/strict-transform divisor on a log resolution.

    ``a`` is the discrepancy, ``b`` the multiplicity of the pulled-back
    ideal along the divisor, ``meets_k`` whether the divisor image meets
    the compact set where the exponent is taken.
    """

    a: int
    b: int
    meets_k: bool = True

    def __post_init__(self):
        require_int(self.a, 0, "discrepancy must be a nonnegative integer, got {value!r}")
        require_int(self.b, 0, "multiplicity must be a nonnegative integer, got {value!r}")
        if self.a == 0 and self.b == 0:
            raise InvalidInputError("record with a=0 and b=0 carries no information")
        if not isinstance(self.meets_k, bool):
            raise InvalidInputError("meets_k must be a boolean")


@dataclass(frozen=True)
class ResolutionData:
    """Ordered list of divisor records describing a log resolution."""

    divisors: tuple[DivisorRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "divisors", tuple(self.divisors))

    @classmethod
    def from_json(cls, document: Union[str, bytes, dict]) -> "ResolutionData":
        """Load from ``{"divisors":[{"a":0,"b":2,"meets_k":true},...]}``."""
        if isinstance(document, (str, bytes)):
            # ValueError: bad JSON, undecodable bytes, int()'s digit limit
            try:
                document = json.loads(document)
            except (ValueError, RecursionError) as exc:
                raise InvalidInputError(f"resolution data is not valid JSON: {exc}") from exc
        if not isinstance(document, dict) or "divisors" not in document:
            raise InvalidInputError('resolution JSON must be an object with a "divisors" list')
        rows = document["divisors"]
        if not isinstance(rows, list):
            raise InvalidInputError('"divisors" must be a list')
        records = []
        for row in rows:
            if not isinstance(row, dict):
                raise InvalidInputError(f"divisor entry must be an object, got {row!r}")
            unknown = set(row) - {"a", "b", "meets_k"}
            if unknown:
                raise InvalidInputError(f"unknown divisor fields: {sorted(unknown)}")
            try:
                records.append(DivisorRecord(row["a"], row["b"], row.get("meets_k", True)))
            except KeyError as exc:
                raise InvalidInputError(f"divisor entry missing field {exc}") from exc
        return cls(tuple(records))


def lct_from_resolution(data: ResolutionData) -> ExtRational:
    """Exponent read off a log resolution: min (a+1)/b over divisors that
    meet K and actually occur in the pulled-back ideal (b > 0).

    Divisors with b = 0 never constrain the minimum.  Returns infinity
    when no qualifying divisor exists (nothing forces non-integrability).
    """
    if not isinstance(data, ResolutionData):
        raise InvalidInputError("expected ResolutionData")
    if not data.divisors:
        raise InvalidInputError("resolution data has no divisor records")
    best = min(
        (Fraction(rec.a + 1, rec.b) for rec in data.divisors if rec.meets_k and rec.b > 0),
        default=None,
    )
    return INFINITY if best is None else ExtRational(best)


# ---------------------------------------------------------------------------
# monomial ideal specs


@dataclass(frozen=True)
class PrincipalMonomial:
    """The function z^alpha = z1^a1 ... zn^an; threshold min 1/ai over ai > 0."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            require_int(e, 0, "exponents must be nonnegative integers, got {value!r}")
        if not any(e > 0 for e in self.exponents):
            raise InvalidInputError("principal monomial needs at least one positive exponent")

    @property
    def nvars(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class Diagonal:
    """The ideal (z1^m1, ..., zn^mn); threshold sum of 1/mi."""

    orders: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        if not self.orders:
            raise InvalidInputError("diagonal ideal needs at least one order")
        for m in self.orders:
            require_int(m, 1, "diagonal orders must be integers >= 1, got {value!r}")

    @property
    def nvars(self) -> int:
        return len(self.orders)


@dataclass(frozen=True)
class _BlockSum:
    """Two specs on disjoint variable blocks, the left block first."""

    left: "MonomialIdealSpec"
    right: "MonomialIdealSpec"

    def __post_init__(self):
        _require_spec(self.left)
        _require_spec(self.right)

    @property
    def nvars(self) -> int:
        return self.left.nvars + self.right.nvars


@dataclass(frozen=True)
class DirectSum(_BlockSum):
    """Ideal sum I + J on disjoint variable blocks; thresholds add."""


@dataclass(frozen=True)
class SeparatedSum(_BlockSum):
    """Function sum f(z) + g(w) on disjoint variable blocks; threshold
    min(1, c(f) + c(g))."""


MonomialIdealSpec = Union[PrincipalMonomial, Diagonal, DirectSum, SeparatedSum]

_SPEC_TYPES = (PrincipalMonomial, Diagonal, DirectSum, SeparatedSum)


def _require_spec(obj) -> None:
    if not isinstance(obj, _SPEC_TYPES):
        raise InvalidInputError(f"expected a monomial ideal spec, got {type(obj).__name__}")


def lct_monomial(spec: MonomialIdealSpec) -> ExtRational:
    """Exact threshold of a computable monomial-class spec."""
    _require_spec(spec)
    if isinstance(spec, PrincipalMonomial):
        # Identity map is already a log resolution of the normal-crossing
        # divisor z^alpha: discrepancies 0, multiplicities alpha_i.
        return ExtRational(min(Fraction(1, e) for e in spec.exponents if e > 0))
    if isinstance(spec, Diagonal):
        return ExtRational(sum(Fraction(1, m) for m in spec.orders))
    # thresholds of blocks add; for f+g in disjoint variables, capped at 1
    total = lct_monomial(spec.left) + lct_monomial(spec.right)
    return total if isinstance(spec, DirectSum) else min(ExtRational(1), total)


# ---------------------------------------------------------------------------
# scalar operations on exponents


def arnold_multiplicity(c: Union[ExtRational, Fraction, int, str]) -> ExtRational:
    """Reciprocal of the exponent: lambda = 1/c, with 1/0 = inf, 1/inf = 0."""
    c = ExtRational(c)
    if c.is_finite and c.as_fraction() < 0:
        raise InvalidInputError("singularity exponents are nonnegative")
    return c.reciprocal()


def scale_arnold(
    lam: Union[ExtRational, Fraction, int, str],
    alpha: Union[Fraction, int, str],
) -> ExtRational:
    """alpha * lambda, the multiplicity of alpha*phi.  Convention 0*inf = 0."""
    lam = ExtRational(lam)
    alpha = ExtRational(alpha)
    if not alpha.is_finite:
        raise InvalidInputError("scaling factor must be finite")
    if alpha.as_fraction() < 0:
        raise InvalidInputError("scaling factor must be nonnegative")
    return lam * alpha


def truncation_gap_bound(n: int, k: int) -> ExtRational:
    """Bound n/(k+1) on |c0(f) - c0(p_k)| for the degree-k Taylor
    truncation p_k of any holomorphic f in n variables."""
    require_int(n, 1, "dimension n must be a positive integer")
    require_int(k, 0, "truncation degree k must be a nonnegative integer")
    return ExtRational(Fraction(n, k + 1))


def lelong_sandwich(
    nu: Union[Fraction, int, str], n: int
) -> tuple[ExtRational, ExtRational]:
    """Enclosure (nu/n, nu) for the Arnold multiplicity given the Lelong
    number nu at the point, in dimension n."""
    nu = ExtRational(nu)
    if not nu.is_finite:
        raise InvalidInputError("Lelong number must be finite")
    if nu.as_fraction() < 0:
        raise InvalidInputError("Lelong number must be nonnegative")
    require_int(n, 1, "dimension n must be a positive integer")
    return ExtRational(nu.as_fraction() / n), nu


# ---------------------------------------------------------------------------
# text grammar


# Most dsum(/ssum( levels a spec may nest.  Parsing, lct_monomial,
# spec_to_text and the volume evaluators all recurse once or twice per
# level, which keeps them far inside Python's default recursion limit.
_MAX_SPEC_DEPTH = 32

_LEAF_HEADS = {"mono:": PrincipalMonomial, "diag:": Diagonal}
_SUM_HEADS = {"dsum(": DirectSum, "ssum(": SeparatedSum}


class _SpecParser:
    """Recursive-descent parser for the compact spec grammar."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def parse(self) -> MonomialIdealSpec:
        spec = self._spec()
        self._skip_ws()
        if self.pos != len(self.text):
            raise InvalidInputError(
                f"trailing characters at position {self.pos}: {self.text[self.pos:]!r}"
            )
        return spec

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _spec(self, depth: int = 0) -> MonomialIdealSpec:
        self._skip_ws()
        for head, leaf in _LEAF_HEADS.items():
            if self.text.startswith(head, self.pos):
                self.pos += len(head)
                return leaf(self._int_list())
        for head, block_sum in _SUM_HEADS.items():
            if self.text.startswith(head, self.pos):
                if depth == _MAX_SPEC_DEPTH:
                    raise InvalidInputError(
                        f"spec nests more than {_MAX_SPEC_DEPTH} dsum(/ssum( levels"
                    )
                self.pos += len(head)
                left = self._spec(depth + 1)
                self._expect(";")
                right = self._spec(depth + 1)
                self._expect(")")
                return block_sum(left, right)
        raise InvalidInputError(
            f"expected mono:/diag:/dsum(/ssum( at position {self.pos} in {self.text!r}"
        )

    def _expect(self, token: str) -> None:
        self._skip_ws()
        if not self.text.startswith(token, self.pos):
            raise InvalidInputError(f"expected {token!r} at position {self.pos} in {self.text!r}")
        self.pos += len(token)

    def _int_list(self) -> tuple[int, ...]:
        values = [self._int()]
        self._skip_ws()
        while self.text.startswith(",", self.pos):
            self.pos += 1
            values.append(self._int())
            self._skip_ws()
        return tuple(values)

    def _int(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            # int() refuses some digits, such as superscripts, and more
            # than sys.get_int_max_str_digits() of them
            return int(self.text[start : self.pos])
        except ValueError as exc:
            raise InvalidInputError(
                f"expected an integer at position {start} in {self.text!r}"
            ) from exc


def parse_spec(text: str) -> MonomialIdealSpec:
    """Parse the compact grammar, e.g. ``mono:3,2`` or ``dsum(diag:2;diag:3)``."""
    if not isinstance(text, str):
        raise InvalidInputError("spec must be a string")
    return _SpecParser(text).parse()


def spec_to_text(spec: MonomialIdealSpec) -> str:
    """Inverse of :func:`parse_spec` (canonical form, no whitespace)."""
    _require_spec(spec)
    if isinstance(spec, PrincipalMonomial):
        return "mono:" + ",".join(map(str, spec.exponents))
    if isinstance(spec, Diagonal):
        return "diag:" + ",".join(map(str, spec.orders))
    tag = "dsum" if isinstance(spec, DirectSum) else "ssum"
    return f"{tag}({spec_to_text(spec.left)};{spec_to_text(spec.right)})"
