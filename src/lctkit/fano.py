"""Kahler-Einstein certificates for weighted Del Pezzo hypersurfaces.

A degree-d hypersurface X in the weighted projective 3-space
P(a0,a1,a2,a3) is a Del Pezzo orbifold when the weights are coprime in
triples and the monomial-existence conditions of Fletcher hold; it is
Fano when k = a0+a1+a2+a3 exceeds d.  For such X the tangent-bundle
twist argument yields a purely arithmetic sufficient criterion for the
existence of a Kahler-Einstein metric:

    a0*a1 > (2/3) d (k-d)^2        (no bad curve can exist)
    rho   = (4/3) delta d (k-d) (k-a0-a2) / (a0 a1 a2 a3) < 1

with delta = a3, except delta = a2 when a3 | d (a generic member then
misses the coordinate point of maximal isotropy).  A refined variant
replaces (k-a0-a2) by (k-a1-a2) but is only valid after a by-hand check
of the tangent bundle along the components of the curve (x0 = 0); it is
therefore reported as a separate, flagged verdict, and only granted for
systems whose curve verification is recorded in
:data:`REFINED_CURVE_CHECKS` (the inequality alone proves nothing).

Everything is exact integer/rational arithmetic; floats appear only in
display renderings.  A box scan builds only the systems that satisfy
cond (i) for x3 (solving it for a3) and prefilters them in two stages:
cond (i) for x0, x1, x2 vectorized over all of them, then triple
coprimality and cond (ii)/(iv) by closed-form pair tests on each system
left.  Survivors are re-checked exactly, so no stage changes the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, NotFanoError, exact_text, require_instance, require_int
from .errors import require_items

KE_CERTIFIED = "KE_CERTIFIED"
KE_CERTIFIED_REFINED = "KE_CERTIFIED_REFINED"
INCONCLUSIVE = "INCONCLUSIVE"
NOT_ORBIFOLD = "NOT_ORBIFOLD"
NOT_FANO = "NOT_FANO"

# Largest box a scan accepts, counted as C(max_a3 - min_a0 + 4, 4): just
# above the a3 <= 256 box.  The scan never allocates the box: it builds
# (a0, a1, a2) triples in blocks of a fixed number of a0 values and solves
# cond (i) for a3, with no sort, so a fano-scan process peaks at about
# 48 MiB at a3 <= 128, a0 >= 3 and 62 MiB at a3 <= 256 (index 1; 2-core
# x86-64, numpy 2.4).  The limit bounds the scan's time, which still grows
# like the number of triples.
MAX_BOX_SYSTEMS = 2 * 10**8

# Most (e0, e1, e2) steps weighted_monomials may take, by its closed-form
# bound: just above the 3.14e6 of (1,1,1,261) at d = 263, the costliest
# system in a box MAX_BOX_SYSTEMS accepts.  Where nearly every step is a
# monomial, as on (1,1,1,1) at d = 262, the list takes about 1 s and
# 290 MiB, and `fano-monomials --format json` 8 s and 680 MiB peak RSS.
_MAX_MONOMIAL_STEPS = 32 * 10**5

# Systems whose twisted tangent bundle has been verified nef along every
# component of the curve (x0 = 0) by an explicit by-hand computation.
# That verification is the missing premise of the refined criterion and
# is not mechanized, so KE_CERTIFIED_REFINED is only granted to systems
# recorded here; rho_refined < 1 alone never upgrades a verdict.
REFINED_CURVE_CHECKS: frozenset[tuple[tuple[int, int, int, int], int]] = frozenset(
    {
        ((9, 15, 17, 20), 60),
    }
)

Monomial = tuple[int, int, int, int]

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


@dataclass(frozen=True)
class WeightSystem:
    """Weights a0 <= a1 <= a2 <= a3 and a hypersurface degree d."""

    a: tuple[int, int, int, int]
    d: int

    def __post_init__(self):
        a = require_items(self.a, "weights must be a sequence of integers, got {kind}")
        if len(a) != 4:
            raise InvalidInputError("exactly four weights required")
        for x in a:
            require_int(x, 1, "weights must be positive integers, got {value!r}")
        if list(a) != sorted(a):
            raise InvalidInputError(f"weights must be nondecreasing, got {a}")
        require_int(self.d, 1, "degree must be a positive integer, got {value!r}")
        object.__setattr__(self, "a", a)

    @property
    def k(self) -> int:
        return sum(self.a)

    @property
    def fano_index(self) -> int:
        return self.k - self.d


def weighted_monomials(w: WeightSystem) -> list[Monomial]:
    """All exponent vectors alpha with sum alpha_i a_i = d, lex order.

    The loop visits each (e0, e1, e2) with a0 e0 + a1 e1 + a2 e2 <= d.  The
    unit cubes at those points lie in the simplex a.y <= d + a0 + a1 + a2,
    so there are at most (d + a0 + a1 + a2)^3 / (6 a0 a1 a2) of them; a
    system whose bound passes _MAX_MONOMIAL_STEPS is refused before the loop.
    """
    _require_weight_system(w)
    a0, a1, a2, a3 = w.a
    d = w.d
    if (d + a0 + a1 + a2) ** 3 > 6 * a0 * a1 * a2 * _MAX_MONOMIAL_STEPS:
        raise InvalidInputError(
            f"degree {d} on weights {w.a} may take more than {_MAX_MONOMIAL_STEPS} "
            "enumeration steps"
        )
    out: list[Monomial] = []
    for e0 in range(d // a0 + 1):
        r0 = d - e0 * a0
        for e1 in range(r0 // a1 + 1):
            r1 = r0 - e1 * a1
            for e2 in range(r1 // a2 + 1):
                r2 = r1 - e2 * a2
                if r2 % a3 == 0:
                    out.append((e0, e1, e2, r2 // a3))
    return out


# ---------------------------------------------------------------------------
# Fletcher conditions


@dataclass(frozen=True, eq=True)
class FletcherReport:
    """Witnessed evaluation of the orbifold monomial conditions.

    cond_i: per variable j, a monomial x_j^m x_k (k possibly j, the other
        exponent exactly 1 when k != j) of degree d, or None.
    cond_ii: per pair j < k, either a 1-tuple (monomial supported on
        {j,k}) or a 2-tuple of monomials x_j^m x_k^p x_l with distinct
        third variables l, or None.
    cond_iii: per variable j, a monomial with exponent 0 on j, or None.
    cond_iv: per pair j < k with gcd(a_j, a_k) > 1, cond (ii)'s witness
        for the pair when it is a 1-tuple (a monomial supported on {j,k}),
        or None; coprime pairs are vacuous and not listed.
    """

    cond_i: dict[int, Optional[Monomial]]
    cond_ii: dict[tuple[int, int], Optional[tuple[Monomial, ...]]]
    cond_iii: dict[int, Optional[Monomial]]
    cond_iv: dict[tuple[int, int], Optional[Monomial]]
    triple_coprime: bool

    @property
    def cond_i_ok(self) -> bool:
        return all(v is not None for v in self.cond_i.values())

    @property
    def cond_ii_ok(self) -> bool:
        return all(v is not None for v in self.cond_ii.values())

    @property
    def cond_iii_ok(self) -> bool:
        return all(v is not None for v in self.cond_iii.values())

    @property
    def cond_iv_ok(self) -> bool:
        return all(v is not None for v in self.cond_iv.values())

    @property
    def passes(self) -> bool:
        return (
            self.cond_i_ok
            and self.cond_ii_ok
            and self.cond_iii_ok
            and self.cond_iv_ok
            and self.triple_coprime
        )

    def to_json_dict(self) -> dict:
        def mono(m):
            return None if m is None else list(m)

        return {
            "pass": self.passes,
            "cond_i": {str(j): mono(v) for j, v in self.cond_i.items()},
            "cond_ii": {
                f"{j},{k}": (None if v is None else [list(m) for m in v])
                for (j, k), v in self.cond_ii.items()
            },
            "cond_iii": {str(j): mono(v) for j, v in self.cond_iii.items()},
            "cond_iv": {f"{j},{k}": mono(v) for (j, k), v in self.cond_iv.items()},
            "triple_coprime": self.triple_coprime,
        }


def _triple_coprime(a: Sequence[int]) -> bool:
    """No three of the four weights share a common factor."""
    return all(math.gcd(a[i], a[j], a[l]) == 1 for i, j, l in _TRIPLES)


def _fletcher_from(w: WeightSystem, monos: list[Monomial]) -> FletcherReport:
    """One pass over the lex-ordered monomials, keeping for each condition
    the first monomial that meets it."""
    cond_i: dict[int, Monomial] = {}
    cond_iii: dict[int, Monomial] = {}
    pure: dict[tuple[int, int], Monomial] = {}
    by_third: dict[tuple[int, int], dict[int, Monomial]] = {pair: {} for pair in _PAIRS}
    for mono in monos:
        supp = {i for i in range(4) if mono[i]}
        for j in range(4):
            if j not in supp:
                cond_iii.setdefault(j, mono)
            elif len(supp) == 1 or (len(supp) == 2 and mono[sum(supp) - j] == 1):
                cond_i.setdefault(j, mono)  # x_j^m, or x_j^m x_k with k = sum(supp) - j
        for pair in _PAIRS:
            extra = supp.difference(pair)
            if not extra:
                pure.setdefault(pair, mono)  # on the pair: cond (ii) and (iv)
            elif len(extra) == 1:
                (l,) = extra
                if mono[l] == 1:
                    by_third[pair].setdefault(l, mono)  # x_j^m x_k^p x_l

    cond_ii: dict[tuple[int, int], Optional[tuple[Monomial, ...]]] = {}
    for pair, third in by_third.items():
        if pair in pure:
            cond_ii[pair] = (pure[pair],)
        else:
            picked = tuple(third[l] for l in sorted(third)[:2])
            cond_ii[pair] = picked if len(picked) == 2 else None

    return FletcherReport(
        cond_i={j: cond_i.get(j) for j in range(4)},
        cond_ii=cond_ii,
        cond_iii={j: cond_iii.get(j) for j in range(4)},
        cond_iv={
            (j, k): pure.get((j, k)) for j, k in _PAIRS if math.gcd(w.a[j], w.a[k]) > 1
        },
        triple_coprime=_triple_coprime(w.a),
    )


def _require_weight_system(w) -> None:
    require_instance(w, WeightSystem, "expected a WeightSystem, got {kind}")


def fletcher_check(w: WeightSystem) -> FletcherReport:
    """Evaluate the orbifold conditions against the full monomial list."""
    _require_weight_system(w)
    return _fletcher_from(w, weighted_monomials(w))


# ---------------------------------------------------------------------------
# anticanonical arithmetic


def _index(w: WeightSystem, failure: str) -> int:
    """The Fano index k-d; NotFanoError, ending in failure, when k <= d."""
    if w.k <= w.d:
        raise NotFanoError(f"k={w.k} <= d={w.d}: {failure}")
    return w.k - w.d


def anticanonical_data(w: WeightSystem) -> tuple[int, Fraction]:
    """Fano index k-d and anticanonical self-intersection
    d (k-d)^2 / (a0 a1 a2 a3), in lowest terms."""
    _require_weight_system(w)
    index = _index(w, "anticanonical class is not ample")
    return index, Fraction(w.d * index * index, math.prod(w.a))


def curve_bound_check(w: WeightSystem) -> bool:
    """Exact test of a0 a1 > (2/3) d (k-d)^2, the condition excluding the
    low-degree curve obstruction."""
    _require_weight_system(w)
    a0, a1 = w.a[0], w.a[1]
    index = w.k - w.d
    return 3 * a0 * a1 > 2 * w.d * index * index


def _delta(w: WeightSystem) -> int:
    """Index i of the isotropy order delta = a_i entering rho: 3,
    downgraded to 2 when a3 | d."""
    return 2 if w.d % w.a[3] == 0 else 3


def _rho_with_factor(w: WeightSystem, factor: int) -> Fraction:
    index = _index(w, "rho is undefined")
    return Fraction(4 * w.a[_delta(w)] * w.d * index * factor, 3 * math.prod(w.a))


def rho(w: WeightSystem) -> Fraction:
    """The base criterion number; < 1 certifies a Kahler-Einstein metric
    (given the orbifold conditions and the curve bound)."""
    _require_weight_system(w)
    return _rho_with_factor(w, w.k - w.a[0] - w.a[2])


def rho_refined(w: WeightSystem) -> Fraction:
    """Variant with (k-a1-a2) in place of (k-a0-a2).  Using it requires
    the by-hand nef verification along the curve (x0 = 0); certificates
    carry that caveat."""
    _require_weight_system(w)
    return _rho_with_factor(w, w.k - w.a[1] - w.a[2])


# ---------------------------------------------------------------------------
# certificates


def _frac_str(q: Optional[Fraction]) -> Optional[str]:
    return None if q is None else f"{exact_text(q.numerator)}/{exact_text(q.denominator)}"


def display_float(q: Optional[Fraction]) -> Optional[float]:
    """q rounded to 6 places for display, None for None; a q past the float
    range has no display float and is refused."""
    try:
        return None if q is None else round(float(q), 6)
    except OverflowError:
        raise InvalidInputError("a certificate value past the float range has no float") from None


@dataclass(frozen=True)
class Certificate:
    """Full record of one weight system's checks and verdict.

    Numeric fields are None when k <= d (the formulas need an ample
    anticanonical class).  rho/rho_refined are reported even when the
    orbifold conditions fail; the verdict carries the validity caveat.

    line_condition_ok: cond (ii)'s witness on (x2, x3) is a 1-tuple, a
        degree-d monomial supported on {x2, x3}, so a generic member
        avoids the coordinate line (x0 = x1 = 0).  The base nef twist
        argument assumes that line is not on the surface, so
        KE_CERTIFIED additionally requires this.
    """

    weights: WeightSystem
    fletcher: FletcherReport
    monomial_count: int
    anticanonical_square: Optional[Fraction]
    curve_bound_ok: Optional[bool]
    line_condition_ok: Optional[bool]
    rho: Optional[Fraction]
    rho_refined: Optional[Fraction]
    delta_note: Optional[str]
    verdict: str

    @property
    def curve_check_recorded(self) -> bool:
        """The (x0 = 0)-curve verification for this system is on file (see
        REFINED_CURVE_CHECKS); without it a passing refined inequality
        leaves the verdict INCONCLUSIVE."""
        return (self.weights.a, self.weights.d) in REFINED_CURVE_CHECKS

    @property
    def refined_needs_curve_check(self) -> bool:
        """The verdict is refined, so it rests on the recorded curve check."""
        return self.verdict == KE_CERTIFIED_REFINED

    def to_json_dict(self) -> dict:
        w = self.weights
        return {
            "weights": list(w.a),
            "degree": w.d,
            "k": w.k,
            "fano_index": w.k - w.d,
            "verdict": self.verdict,
            "monomial_count": self.monomial_count,
            "fletcher": self.fletcher.to_json_dict(),
            "anticanonical_square": _frac_str(self.anticanonical_square),
            "anticanonical_square_float": display_float(self.anticanonical_square),
            "curve_bound_ok": self.curve_bound_ok,
            "line_condition_ok": self.line_condition_ok,
            "rho": _frac_str(self.rho),
            "rho_float": display_float(self.rho),
            "rho_refined": _frac_str(self.rho_refined),
            "rho_refined_float": display_float(self.rho_refined),
            "delta_note": self.delta_note,
            "curve_check_recorded": self.curve_check_recorded,
            "refined_needs_curve_check": self.refined_needs_curve_check,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


def certify(w: WeightSystem, allow_refined: bool = True) -> Certificate:
    """Run every check on one weight system; always returns a verdict.

    allow_refined=False restricts the outcome to the base criterion
    (scans keep refined verdicts opt-in that way).  Even when allowed,
    KE_CERTIFIED_REFINED needs the system's curve verification recorded
    in REFINED_CURVE_CHECKS; rho_refined < 1 by itself proves nothing
    about the components of (x0 = 0) and leaves INCONCLUSIVE.
    """
    _require_weight_system(w)
    require_instance(allow_refined, bool, "allow_refined must be True or False")
    monos = weighted_monomials(w)
    fletcher = _fletcher_from(w, monos)

    square: Optional[Fraction] = None
    curve_ok: Optional[bool] = None
    line_ok: Optional[bool] = None
    rho_val: Optional[Fraction] = None
    rho_ref: Optional[Fraction] = None
    delta_note: Optional[str] = None

    fano = w.k > w.d
    if fano:
        _, square = anticanonical_data(w)
        curve_ok = curve_bound_check(w)
        line_witness = fletcher.cond_ii[(2, 3)]
        line_ok = line_witness is not None and len(line_witness) == 1
        rho_val = rho(w)
        rho_ref = rho_refined(w)
        i = _delta(w)
        delta_note = f"delta=a{i}={w.a[i]}: " + (
            f"a3={w.a[3]} divides d, generic member misses the maximal-isotropy coordinate point"
            if i == 2
            else "a3 does not divide d"
        )

    if not fletcher.passes:
        verdict = NOT_ORBIFOLD
    elif not fano:
        verdict = NOT_FANO
    else:
        # Twist parameter of the nef bundle must be nonnegative for the
        # criterion to apply: a = (d-a0-a2)/(k-d) for the base form,
        # (d-a1-a2)/(k-d) refined.
        base_applicable = curve_ok and line_ok and w.d >= w.a[0] + w.a[2]
        refined_applicable = (
            allow_refined
            and (w.a, w.d) in REFINED_CURVE_CHECKS
            and curve_ok
            and w.d >= w.a[1] + w.a[2]
        )
        if base_applicable and rho_val < 1:
            verdict = KE_CERTIFIED
        elif refined_applicable and rho_val >= 1 and rho_ref < 1:
            verdict = KE_CERTIFIED_REFINED
        else:
            verdict = INCONCLUSIVE

    return Certificate(
        weights=w,
        fletcher=fletcher,
        monomial_count=len(monos),
        anticanonical_square=square,
        curve_bound_ok=curve_ok,
        line_condition_ok=line_ok,
        rho=rho_val,
        rho_refined=rho_ref,
        delta_note=delta_note,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# weight-system scan


@dataclass(frozen=True)
class ScanConfig:
    """Box and conventions for a weight-system scan.

    The degree is tied to the weights by d = k - fano_index; the index
    is configurable because the classical examples all sit at index 1
    but nothing forces that choice.
    """

    max_a3: int
    fano_index: int = 1
    min_a0: int = 1
    require_refined: bool = False

    def __post_init__(self):
        for name in ("max_a3", "min_a0", "fano_index"):
            require_int(getattr(self, name), 1, f"{name} must be a positive integer")
        require_instance(self.require_refined, bool, "require_refined must be True or False")
        if self.max_a3 < self.min_a0:
            raise InvalidInputError("max_a3 must be >= min_a0")
        size = self.box_systems
        if size > MAX_BOX_SYSTEMS:
            raise InvalidInputError(
                f"box a0>={exact_text(self.min_a0)}, a3<={exact_text(self.max_a3)} "
                f"holds {exact_text(size)} weight systems; "
                f"a scan takes at most {MAX_BOX_SYSTEMS}"
            )

    @property
    def box_systems(self) -> int:
        """Number of a0 <= a1 <= a2 <= a3 systems in the box, in closed form."""
        return math.comb(self.max_a3 - self.min_a0 + 4, 4)


@dataclass(frozen=True)
class ScanReport:
    """Fletcher-passing systems in the box, sorted by rho ascending.

    examined counts every system of the box, C(max_a3 - min_a0 + 4, 4),
    not the far fewer candidates the scan actually enumerates; the box
    is covered all the same, because every system left out fails cond (i).
    """

    config: ScanConfig
    entries: tuple[Certificate, ...]
    examined: int
    prefilter_survivors: int

    @property
    def certified(self) -> tuple[Certificate, ...]:
        return tuple(c for c in self.entries if c.verdict == KE_CERTIFIED)

    @property
    def certified_refined(self) -> tuple[Certificate, ...]:
        return tuple(c for c in self.entries if c.verdict == KE_CERTIFIED_REFINED)

    @property
    def max_a0(self) -> Optional[int]:
        if not self.entries:
            return None
        return max(c.weights.a[0] for c in self.entries)

    def to_csv(self) -> str:
        lines = ["a0,a1,a2,a3,d,fletcher,rho_num,rho_den,rho_float,verdict"]
        for cert in self.entries:
            a = cert.weights.a
            q = cert.rho
            lines.append(
                f"{a[0]},{a[1]},{a[2]},{a[3]},{cert.weights.d},pass,"
                f"{q.numerator},{q.denominator},{float(q):.6f},{cert.verdict}"
            )
        return "\n".join(lines) + "\n"


def _extend(cols: list[np.ndarray], hi: int) -> list[np.ndarray]:
    """Repeat each row once per value v in [last column, hi] and append v
    as a new nondecreasing column (the repeat/arange trick)."""
    last = cols[-1]
    counts = (hi - last + 1).astype(np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    new = (np.arange(int(counts.sum()), dtype=np.int64) - offsets).astype(np.int32)
    new += np.repeat(last, counts)
    return [np.repeat(c, counts) for c in cols] + [new]


# Most (a0, a1, a2) triples a scan builds at once.  The prefilter walks
# the box in runs of a0 holding at most this many triples, so its
# temporaries stay a few tens of MiB whatever the box size.
_BLOCK_TRIPLES = 1 << 18


def _a0_blocks(config: ScanConfig) -> list[tuple[int, int]]:
    """Split [min_a0, max_a3] into runs of a fixed number of a0 values.
    The first a0 has the most triples a0 <= a1 <= a2 <= max_a3, so each
    run holds at most _BLOCK_TRIPLES of them (or is a single a0)."""
    lo, hi = config.min_a0, config.max_a3
    step = max(1, _BLOCK_TRIPLES // math.comb(hi - lo + 2, 2))
    return [(a0, min(a0 + step - 1, hi)) for a0 in range(lo, hi + 1, step)]


def _box_arrays(
    config: ScanConfig, a0_range: Optional[tuple[int, int]] = None
) -> tuple[np.ndarray, ...]:
    """The systems of the box (or of its a0_range slice) that satisfy
    cond (i) for x3, as flat int32 columns in no particular order.  A
    system that meets it in several ways appears once per way.

    Cond (i) for x3 asks for x3^m or x3^m x_k (m >= 1) of degree
    d = k - index.  Writing s = a0 + a1 + a2 and r = s - index or
    r = s - a_k - index, that is r = (m - 1) a3, and d < 4 a3 leaves
    m - 1 in {0, 1, 2}.  So only the triples a0 <= a1 <= a2 are built:
    each gives a3 = r / (m - 1) for m - 1 in {1, 2}, and a triple with
    some r == 0 (m = 1) leaves a3 free over [a2, max_a3].  Every other
    system of the box fails cond (i) for x3, so the prefilter loses
    nothing; the box itself is never allocated.
    """
    hi = config.max_a3
    lo, top = a0_range or (config.min_a0, hi)
    a0, a1, a2 = _extend(_extend([np.arange(lo, top + 1, dtype=np.int32)], hi), hi)
    s = a0 + a1 + a2 - np.int32(config.fano_index)

    # each hit is a (triple row, a3) pair
    hits, a3s = [], []
    free = np.zeros(a0.size, dtype=bool)
    for r in (s, s - a0, s - a1, s - a2):
        free |= r == 0
        # m - 1 = 1, then m - 1 = 2; a3 >= a2 >= 1 also rules out r <= 0
        for a3, exact in ((r, True), (r >> 1, (r & 1) == 0)):
            hit = np.flatnonzero(exact & (a3 >= a2) & (a3 <= hi))
            hits.append(hit)
            a3s.append(a3[hit])
    # m = 1 with r == 0: a3 runs over [a2, hi]
    hit, _, f3 = _extend([np.flatnonzero(free), a2[free]], hi)
    hits.append(hit)
    a3s.append(f3)

    rows = np.concatenate(hits)
    return a0[rows], a1[rows], a2[rows], np.concatenate(a3s)


def _representable(t: int, a: int, b: int) -> bool:
    """Is t = m*a + p*b with m, p >= 0?  After dividing out gcd(a, b), the
    least m >= 0 with b | t - m*a is t * a^-1 mod b; it must have m*a <= t."""
    g = math.gcd(a, b)
    if t % g:
        return False
    t, a, b = t // g, a // g, b // g
    return t >= a * (t * pow(a, -1, b) % b)


def _pairs_ok(a: Sequence[int], d: int) -> bool:
    """Triple coprimality and Fletcher's cond (ii)/(iv), as fletcher_check
    decides them: for each pair j < k, a degree-d monomial on {x_j, x_k},
    or, when gcd(a_j, a_k) = 1, x_j^m x_k^p x_l of degree d for both other l."""
    return _triple_coprime(a) and all(
        _representable(d, a[j], a[k])
        or (
            math.gcd(a[j], a[k]) == 1
            and all(_representable(d - a[l], a[j], a[k]) for l in {0, 1, 2, 3} - {j, k})
        )
        for j, k in _PAIRS
    )


def _prefilter(config: ScanConfig) -> list[tuple[tuple[int, int, int, int], int]]:
    """Necessary conditions on the candidates of :func:`_box_arrays`, one
    block of a0 values at a time: cond (i) for x0, x1, x2, vectorized over
    the many candidates, then :func:`_pairs_ok` on each of the few left.
    Sound pruning only; survivors still get the exact check.  Returns
    the distinct (weights, d) rows in lexicographic order: the set drops
    the systems :func:`_box_arrays` yields more than once."""
    rows = set()
    for block in _a0_blocks(config):
        cols = _box_arrays(config, block)
        # int32 is safe throughout: weights <= max_a3 and degrees <= 4*max_a3
        d = cols[0] + cols[1] + cols[2] + cols[3] - np.int32(config.fano_index)

        # cond (i): some x_j^m (m>=1) or x_j^m x_k (m>=1) reaches degree d.
        # Every row of _box_arrays meets it for x3 and has d = s + a3 >= 1
        # (s = a0 + a1 + a2 - index): an exact row has s >= r >= a2 >= 1, a
        # free row s >= 0 and a3 >= 1.  So neither d > 0 nor j = 3 is checked.
        keep = np.ones(d.size, dtype=bool)
        for j in range(3):
            ok = (d % cols[j] == 0) & (d >= cols[j])
            for k in range(4):
                if k == j:
                    continue
                t = d - cols[k]
                ok |= (t >= cols[j]) & (t % cols[j] == 0)
            keep &= ok

        for *a, dd in zip(*(c[keep].tolist() for c in (*cols, d))):
            if _pairs_ok(a, dd):
                rows.add((tuple(a), dd))
    return sorted(rows)


def scan(config: ScanConfig) -> ScanReport:
    """Certify every weight system in the box with d = k - fano_index.

    Returns the Fletcher-passing systems sorted by rho (ties by weights).
    Refined verdicts are opt-in: with require_refined=False every entry
    is judged by the base criterion alone; with it True, systems whose
    curve verification is recorded may appear as KE_CERTIFIED_REFINED.
    """
    require_instance(config, ScanConfig, "expected a ScanConfig, got {kind}")
    # d = k - index <= 4 max_a3 - index, so an index of 4 max_a3 or more
    # leaves no system with d > 0 (and need not fit in int32 columns)
    rows = _prefilter(config) if config.fano_index < 4 * config.max_a3 else []
    certs = [certify(WeightSystem(a, d), allow_refined=config.require_refined) for a, d in rows]
    entries = [c for c in certs if c.fletcher.passes]
    entries.sort(key=lambda c: (c.rho, c.weights.a))
    return ScanReport(
        config=config,
        entries=tuple(entries),
        examined=config.box_systems,
        prefilter_survivors=len(rows),
    )
