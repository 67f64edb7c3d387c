"""Closed-form radial Bergman approximation on the unit disk.

For the weight phi(z) = c log|z| (c >= 0 rational) the weighted Bergman
space H_{m phi} of the disk has an analytic orthonormal basis of
monomials: the squared norm of z^k against the weight e^{-2m phi} is

    integral_disk |z|^{2k} |z|^{-2mc} dV = pi / (k + 1 - mc),

finite exactly when k + 1 - mc > 0.  Hence g_k(z) = sqrt((k+1-mc)/pi) z^k
for k >= k_min = floor(mc), and the m-th Bergman approximant of phi,

    psi_m(z) = (1/2m) log sum_k |g_k(z)|^2,

is an explicit log of a power series.  This makes the approximation
bounds (Lelong sandwich, pointwise lower bound) machine-checkable with
no quadrature.  The restriction to one radial variable is deliberate:
it is the largest class where the basis stays analytic.

When mc is an integer the borderline monomial k = mc - 1 is excluded:
its norm integral diverges, so k_min = mc exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InternalError, InvalidInputError, require_instance, require_int, require_real
from .extrational import ExtRational

DEFAULT_TABLE_MARGIN = 64  # default K_max = k_min + this
MIN_TABLE_MARGIN = 8  # build_approx requires K_max >= k_min + this
MAX_TABLE_LENGTH = 1 << 16  # build_approx refuses K_max - k_min >= this: ~6 MiB of entries


@dataclass(frozen=True)
class RadialWeight:
    """The weight phi(z) = c log|z| on the unit disk, c a rational >= 0."""

    c: Fraction

    def __post_init__(self):
        try:
            object.__setattr__(self, "c", Fraction(self.c))
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"weight coefficient must be rational, got {self.c!r}") from exc
        if self.c < 0:
            raise InvalidInputError("weight coefficient must be nonnegative")


@dataclass(frozen=True)
class BergmanApprox:
    """Finite coefficient table for psi_m = (1/2m) log sum sigma_k |z|^{2k}.

    ``pi_sigma[j]`` holds the exact rational pi * sigma_{k_min+j}
    = k_min + j + 1 - mc; the transcendental 1/pi factor is applied only
    at float evaluation time.
    """

    weight: RadialWeight
    m: int
    k_min: int
    k_max: int
    pi_sigma: tuple[Fraction, ...]

    def sigma_float(self, k: int) -> float:
        """sigma_k = (k+1-mc)/pi as a float, for k_min <= k <= k_max."""
        if not self.k_min <= k <= self.k_max:
            raise InvalidInputError(f"k={k} outside table range [{self.k_min}, {self.k_max}]")
        return float(self.pi_sigma[k - self.k_min]) / math.pi


def minimal_degree(w: RadialWeight, m: int) -> int:
    """Smallest k with k + 1 - mc > 0, i.e. floor(mc)."""
    require_instance(w, RadialWeight, "expected a RadialWeight, got {kind}")
    return math.floor(w.c * require_int(m, 1, "m must be a positive integer"))


def build_approx(w: RadialWeight, m: int, k_max: Union[int, None] = None) -> BergmanApprox:
    """Coefficient table of the m-th approximant, up to degree k_max."""
    if not isinstance(w, RadialWeight):
        w = RadialWeight(w)
    require_int(m, 1, "m must be a positive integer")
    require_real(2 * m, "2*m must fit a float, got {value!r}")  # psi_m divides by 2m
    k_min = minimal_degree(w, m)
    require_real(k_min, "m*c must fit a float, got {value!r}")
    if k_max is None:
        k_max = k_min + DEFAULT_TABLE_MARGIN
    require_int(k_max, None, "k_max must be an integer")
    if k_max < k_min + MIN_TABLE_MARGIN:
        raise InvalidInputError(
            f"k_max too small: need at least k_min + {MIN_TABLE_MARGIN} = "
            f"{k_min + MIN_TABLE_MARGIN}"
        )
    if k_max - k_min >= MAX_TABLE_LENGTH:
        raise InvalidInputError(
            f"k_max too large: a table holds at most {MAX_TABLE_LENGTH} entries, up to "
            f"k_min + {MAX_TABLE_LENGTH - 1} = {k_min + MAX_TABLE_LENGTH - 1}"
        )
    mc = w.c * m
    table = tuple(Fraction(k + 1) - mc for k in range(k_min, k_max + 1))
    if not all(v > 0 for v in table):
        raise InternalError(f"nonpositive basis norm in the table for c={w.c}, m={m}")
    return BergmanApprox(weight=w, m=m, k_min=k_min, k_max=k_max, pi_sigma=table)


def _log_series(ap: BergmanApprox, z_abs: float) -> tuple[float, float]:
    """log of the truncated series sum sigma_k z^{2k}, split as
    (k_min * log x, log of the shifted polynomial part), x = z_abs^2.

    The split keeps tiny |z| exact in log space instead of underflowing;
    below the normal floats x is too coarse, so log x is 2 log z_abs there.
    """
    x = z_abs * z_abs
    log_x = math.log(x) if x >= sys.float_info.min else 2.0 * math.log(z_abs)
    powers = []
    xj = 1.0
    for coeff in ap.pi_sigma:
        powers.append(float(coeff) * xj)
        xj *= x
    poly = math.fsum(powers) / math.pi
    return ap.k_min * log_x, math.log(poly)


def eval_psi_m(ap: BergmanApprox, z_abs: float) -> float:
    """psi_m(z) = (1/2m) log sum_{k_min}^{k_max} sigma_k |z|^{2k}."""
    require_instance(ap, BergmanApprox, "expected a BergmanApprox")
    require_real(z_abs, "z_abs must be a number in (0, 1), got {value!r}", 0.0, 1.0)
    lead, poly = _log_series(ap, z_abs)
    return (lead + poly) / (2 * ap.m)


def eval_tail_bound(ap: BergmanApprox, z_abs: float) -> float:
    """Upper bound on the increase of psi_m if the series ran to infinity.

    Uses sigma_k <= (k+1)/pi and the closed form of the geometric tail
    sum_{k > K} (k+1) x^k = x^{K+1} ((K+2)(1-x) + x) / (1-x)^2,
    then log(S + T) - log S <= T/S.
    """
    require_instance(ap, BergmanApprox, "expected a BergmanApprox")
    require_real(z_abs, "z_abs must be a number in (0, 1), got {value!r}", 0.0, 1.0)
    x = z_abs * z_abs
    K = ap.k_max
    shift = K + 1 - ap.k_min  # tail power relative to the factored x^{k_min}
    tail = (x**shift) * ((K + 2) * (1 - x) + x) / ((1 - x) ** 2) / math.pi
    _, poly = _log_series(ap, z_abs)
    series = math.exp(poly)
    return tail / series / (2 * ap.m)


def lelong_of_psi_m(ap: BergmanApprox) -> ExtRational:
    """Lelong number of psi_m at 0: the lowest degree over m, k_min/m."""
    require_instance(ap, BergmanApprox, "expected a BergmanApprox")
    return ExtRational(Fraction(ap.k_min, ap.m))


def lower_bound_constant(ap: BergmanApprox) -> float:
    """The explicit model constant C1 in psi_m >= phi - C1/m.

    Keeping only the k = k_min term gives psi_m(z) >= (k_min/m) log|z|
    + (1/2m) log sigma_{k_min} >= phi(z) - (1/2m) log(1/sigma_{k_min}),
    since k_min/m <= c and log|z| < 0.  So C1 = (1/2) log(pi/(k_min+1-mc)).
    Always positive: k_min + 1 - mc lies in (0, 1].
    """
    require_instance(ap, BergmanApprox, "expected a BergmanApprox")
    return 0.5 * math.log(math.pi / float(ap.pi_sigma[0]))
