"""Seeded Monte-Carlo estimation of sublevel-set volumes and exponent fits.

The singularity exponent c of a potential phi controls the growth of the
sublevel volume mu({phi < log r}) ~ r^{2c} (up to a |log r|^(n-1) factor
on the upper side).  This module estimates those volumes by uniform
sampling on a polydisk and recovers c by a log-log regression, serving
as an independent numerical oracle for the exact values of
:mod:`lctkit.lct`, and as the engine for desk-scale semicontinuity
experiments.

Estimates are deterministic for a fixed seed: sampling is partitioned
into fixed-size chunks with per-chunk seeds derived by SeedSequence
spawning.  The chunks run on min(workers, CPU count) threads (1 by
default, which is the calling thread), and the merged counts are
independent of chunk scheduling.  Each thread draws its chunks into
buffers it reuses for the whole call, and evaluates and counts a chunk in
fixed row blocks, so a chunk's temporaries are those of one block.
One common sample set is counted against every radius of a fit grid
(common random numbers), which makes the volume curve exactly monotone
in r and keeps the fitted slope variance small.

Every potential has one form, phi(sq, theta) of the squared moduli and
the angles.  Each chunk first draws u uniform on [0, 1)^n, and the
squared moduli |z_i|^2 = R_i^2 u_i are area-uniform on the polydisk; the
angles theta_i = 2 pi v_i are drawn after u, and only in a chunk that has
a potential of the angles.  Potentials of the moduli alone (principal
monomials, diagonal ideals and direct sums of those) are called with
theta None; the binomial family's member at t = 0 is the potential of
the spec mono:m,0.  A separated sum of principal monomials (and the
family's other members) evaluates log|f| from the moduli and phases of
its terms, with no complex arithmetic; a potential given on coordinates
builds |z_i| cos theta_i, |z_i| sin theta_i from them.  Every potential reads
the same draws, so its counts do not depend on which other potentials
share its chunk.  phi must be pointwise (row i of its value depends only
on row i of its arguments): it is called on the row blocks of a chunk,
and its counts are those of the whole chunk.

Principal monomials, diagonal ideals and their direct sums have one form
of the moduli, log sum_j |g_j| over the generators g_j of the ideal: a
monomial is one generator, a diagonal ideal one pure power per variable,
and a direct sum the generators of its blocks, with a separated-sum block
as one more whose log is that block's phi.  With l_j the log of |g_j| and
l the largest, phi = l + log sum_j exp(l_j - l), which forms no power, so
nothing overflows or underflows.

A potential may carry a floor, a lower bound of phi from the squared
moduli alone; a separated sum of two monomials carries log|a - b|, and
the form of two or more generators its largest l_j, which phi is never
below in floats (a separated-sum block bounds by its floor, which passes
its phi by a few units in the last place at most).  On each row block
the sampler computes the floor first and evaluates phi only on the rows
whose floor is below the largest threshold plus a margin far above
rounding, gathered into new arrays: a row it skips has phi above every
threshold, so no count changes, and the cosines of the rows far from the
zero set of f and the exponentials of the rows whose largest generator
is above every threshold are never taken.

Every fit goes through one path, which fits a list of potentials on one
shared sample set: each chunk is drawn once per polydisk, and the
potentials on it are evaluated and counted in turn.  A volume fit is the
list of one potential, a semicontinuity run the list of its members.
Since a fit draws from the seed alone, its counts are those of its
potential fitted alone at the same seed.  Its settings are a FitConfig,
which refuses a bad value when it is built, before any draw, and
fit_exponent(p, **settings) takes FitConfig's fields as its keywords.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InsufficientDataError, InternalError, InvalidInputError
from .errors import require_instance, require_int, require_items, require_real
from .lct import (
    Diagonal,
    DirectSum,
    MonomialIdealSpec,
    PrincipalMonomial,
    SeparatedSum,
)

#: Fixed default seed; golden outputs must never depend on wall-clock time.
DEFAULT_SEED = 1414213562

_CHUNK = 1 << 17  # samples per chunk; fixed so results never depend on worker count

# Rows of a chunk evaluated and counted at once.  A block's temporaries take
# 256 KiB per column, which the heap hands to the next block again, where a
# whole chunk's were given back to the kernel and faulted in afresh each
# chunk; a block is still long enough that the per-block Python work stays
# small against the numpy work.
_BLOCK = 1 << 15

# Bytes a chunk's draws and a fit's radius grid may take; a 2^17-sample
# chunk and 12 radii in 2 variables take 4 MiB on the path of the moduli.
_CHUNK_BYTES = 1 << 27

# Bytes charged per sample and variable while a full chunk is drawn and
# evaluated: its draw buffers hold 8 per array drawn (the squared moduli,
# and the angles when a potential reads them), and one row block's
# evaluation the rest.  A potential of the angles is charged what one given
# on coordinates takes, which tracemalloc measures at 24-30 (draws,
# interleaved coordinates and a complex copy in the evaluator); separated
# sums take 19-25, the most where a binomial's floor keeps nearly every
# row and the kept rows are gathered, and potentials of the moduli 11-15:
# 12.0 for one variable, 14.2 for a diagonal of 9 columns and 14.0 for a
# nested direct sum, and 15.0 for diag:2,3, each the most on a grid to
# r = 0.999, where a floor keeps most rows and they are gathered.
_COORDINATE_BYTES = 32
_MODULI_BYTES = 16

# Bytes charged per grid radius: a chunk's count arrays and the fit's result
# rows, up to its JSON rendering, which tracemalloc measures at about 430.
_RADIUS_BYTES = 512

# Log units a row's floor must pass the largest threshold by before its phi
# is skipped.  A floor shares its potential's float operations up to the
# last few, so it passes phi by rounding alone: a few units in the last
# place of phi, about 1e-15 at |phi| = 2.3 and 1e-13 at log of the
# smallest positive float, -745, the lowest threshold a fit takes.  1e-9
# is far above that; a row whose floor lies less than 1e-9 above the
# largest threshold is evaluated, not skipped.
_FLOOR_MARGIN = 1e-9

# _count_below's two ways to count a row block, measured on 2^15 rows and
# on 50 to 8000 (2-vCPU Xeon, numpy 2.4): one compare pass over phi costs
# about 2.3 us plus 0.13 ns a row, and compressing phi to the rows below the
# largest threshold, then searchsorted and bincount, about 12 us plus 45 ns
# a row below.  So a row below costs what 350 rows of one pass do, and a
# pass's fixed cost is that of 18000 rows: it counts by one pass per
# threshold where rows below * 350 > thresholds * (rows + 18000).  On a
# block of 2^15 rows that is where more than 5% of them are below 12
# thresholds (measured 5-6%), 2% below 4 (1-2%) and 22% below 50 (15-20%).
_PASS_ROWS_PER_ROW_BELOW = 350
_PASS_FIXED_ROWS = 18000

# Chunks one sampling call may spawn seeds for, 2^32 samples: every chunk
# holds a list entry and a SeedSequence (about 450 bytes) from the start.
_MAX_CHUNKS = 1 << 15


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class SampledPotential:
    """A potential phi on a polydisk, evaluated on batches of points.

    ``phi(sq, theta)`` maps the (N, n) array of squared moduli |z_i|^2
    and the (N, n) array of angles theta_i, with z_i = |z_i| exp(i theta_i),
    to an (N,) array of phi values; -inf is allowed (log of a vanishing
    modulus).  It must be deterministic and total on the closed polydisk.
    With ``angles`` False, phi depends on the moduli alone: it is called
    with theta None, and sampling draws no angles for it.  A potential on
    the coordinates (Re z1, Im z1, ..., Re zn, Im zn) is built by
    :meth:`from_evaluator`.

    phi must be pointwise: row i of its value depends only on row i of
    ``sq`` and ``theta``, because sampling calls it on row blocks of a
    chunk, and a value of the wrong shape is refused with the number of
    rows it was given.  phi may not modify its arguments, nor keep them:
    sampling passes them read-only, because every potential counted on a
    chunk reads the same arrays, and draws the next chunk into the same
    buffers.

    ``floor`` is internal: :func:`potential_from_spec` and
    :func:`binomial_family` set it on separated sums of two monomials, and
    potential_from_spec on the moduli form of two or more generators with a
    generator of the moduli or a block with a floor; a potential built by
    hand leaves it None.
    ``floor(sq)`` maps the squared moduli alone to an (N,) array of lower
    bounds of phi as computed in floats, up to a few units in the last
    place; NaN bounds nothing.  Sampling calls it on each row block, and
    calls phi only on the rows whose floor is not at or above the largest
    threshold plus _FLOOR_MARGIN, gathered into new read-only arrays: a row
    it skips has phi above every threshold and counts nowhere.  Nothing checks that a
    floor is a lower bound, and one that is not drops rows that count, so
    the only floors set are those the library derives and tests.
    """

    phi: Callable[[np.ndarray, Optional[np.ndarray]], np.ndarray]
    dimension: int
    radius: tuple[float, ...] = (1.0,)
    angles: bool = True
    floor: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        require_int(self.dimension, 1, "dimension must be a positive integer")
        require_instance(self.phi, Callable, "phi must be callable")
        require_instance(self.floor, (Callable, type(None)), "floor must be callable or None")
        require_instance(self.angles, bool, "angles must be True or False")
        r = self.radius if isinstance(self.radius, (tuple, list, np.ndarray)) else (self.radius,)
        positive = "polydisk radii must be numbers in (0, inf), got {value!r}"
        r = tuple(require_real(x, positive, 0.0) for x in r)
        if len(r) == 1:
            r *= self.dimension
        if len(r) != self.dimension:
            raise InvalidInputError("need one polydisk radius per coordinate")
        object.__setattr__(self, "radius", r)

    @classmethod
    def from_evaluator(
        cls,
        evaluator: Callable[[np.ndarray], np.ndarray],
        dimension: int,
        radius: Union[float, Sequence[float]] = 1.0,
    ) -> SampledPotential:
        """The potential whose ``evaluator`` maps an (N, 2n) array of
        interleaved real coordinates to an (N,) array of phi values.  Its
        phi builds those coordinates, read-only, and evaluates them, so the
        evaluator sees the row blocks of a chunk and must be pointwise too."""
        require_instance(evaluator, Callable, "evaluator must be callable")

        def phi(sq: np.ndarray, theta: np.ndarray) -> np.ndarray:
            rad = np.sqrt(sq)
            coords = np.empty((sq.shape[0], 2 * sq.shape[1]))
            part = np.cos(theta)
            part *= rad
            coords[:, 0::2] = part
            part = np.sin(theta, out=part)
            part *= rad
            coords[:, 1::2] = part
            del rad, part  # freed before the evaluator's own arrays
            coords.flags.writeable = False
            return evaluator(coords)

        return cls(phi, dimension, radius)

    def evaluator(self, coords: np.ndarray) -> np.ndarray:
        """phi on an (N, 2n) array of interleaved real coordinates."""
        x, y = coords[:, 0::2], coords[:, 1::2]
        return self.phi(x**2 + y**2, np.arctan2(y, x) if self.angles else None)

    @property
    def polydisk_volume(self) -> float:
        """Lebesgue volume of the sampling polydisk, prod pi*R_i^2."""
        vol = 1.0
        for r in self.radius:
            vol *= math.pi * r * r
        return vol


def _floats(exponents: Sequence[int]) -> np.ndarray:
    """The exponents of a spec as a float array, refusing one past the
    float range."""
    message = "exponents must fit a float, got {value!r}"
    return np.array([require_real(a, message) for a in exponents])


def _column_sum(x: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """sum_i w_i x[:, i] over the nonzero weights, so a column of weight 0
    adds nothing even where it is infinite."""
    out = None
    for i, w in enumerate(weights):
        if not w:
            continue
        if out is None:
            out = np.multiply(x[:, i], w)
        else:
            out += w * x[:, i]
    return np.zeros(x.shape[0]) if out is None else out


def _term_logs(sq: np.ndarray, halves: np.ndarray) -> list[np.ndarray]:
    """Per row h of ``halves``, its term's log-modulus sum_i h_i log|z_i|^2,
    from one log of the squared moduli; a weight of 0 adds nothing."""
    with np.errstate(divide="ignore"):
        log_sq = np.log(sq)
    return [_column_sum(log_sq, half) for half in halves]


def _shift_by_largest(logs: list[np.ndarray]) -> np.ndarray:
    """The largest l of the log-moduli ``logs``, each of which becomes
    l_j - l in place; where l is -inf every term vanishes, and its logs stay
    -inf, whose exp is 0."""
    big = logs[0].copy()  # a running maximum: no (k, N) copy of the logs
    for log_j in logs[1:]:
        np.maximum(big, log_j, out=big)
    some = big > -np.inf
    for log_j in logs:
        np.subtract(log_j, big, out=log_j, where=some)
    return big


def _binomial_polar(
    rows: np.ndarray, c: float
) -> tuple[Callable[[np.ndarray, np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The polar form of log|z^alpha + c z^beta|, c != 0, and its floor,
    with alpha and beta the two exponent rows over all the variables.

    With a = |z^alpha|, b = |c z^beta| and h half the difference of their
    phases, |z^alpha + c z^beta|^2 = (a - b)^2 + 4ab cos^2 h, where c < 0
    turns cos^2 h into sin^2 h.  Both terms are nonnegative, so nothing
    cancels.  They are divided by the square of the larger modulus, which
    is computed by its log, so no square underflows: with rho the ratio of
    the smaller modulus to the larger, phi = log max(a, b)
    + log((1 - rho)^2 + 4 rho cos^2 h) / 2.  The floor drops the second
    term: log|a - b| = log max(a, b) + log(1 - rho), from the same log
    max(a, b) and 1 - rho as phi.  (log1p(-rho) is no closer in floats
    than the 1 - rho phi squares, and numpy runs it as scalar code, about
    8 times as slow as log.)"""
    halves = rows / 2.0
    log_c = math.log(abs(c))
    trig = np.cos if c > 0 else np.sin
    half_gap = halves[0] - halves[1]

    def moduli(sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log max(a, b) and rho."""
        big, small = _term_logs(sq, halves)
        small += log_c
        big, small = np.maximum(big, small), np.minimum(big, small, out=small)
        with np.errstate(invalid="ignore"):  # NaN where both moduli vanish
            rho = np.subtract(small, big, out=small)
        rho = np.exp(rho, out=rho)
        rho[np.isnan(rho)] = 0.0  # a vanishing point has rho 0 and phi -inf
        return big, rho

    def polar(sq: np.ndarray, theta: np.ndarray) -> np.ndarray:
        big, rho = moduli(sq)
        h = _column_sum(theta, half_gap)
        cross = trig(h, out=h)
        cross *= cross
        cross *= rho
        cross *= 4.0
        gap = np.subtract(1.0, rho, out=rho)
        gap *= gap
        cross += gap
        with np.errstate(divide="ignore"):
            phi = np.log(cross, out=cross)
        phi *= 0.5
        phi += big
        return phi

    def floor(sq: np.ndarray) -> np.ndarray:
        big, rho = moduli(sq)
        gap = np.subtract(1.0, rho, out=rho)
        with np.errstate(divide="ignore"):  # -inf where a = b
            gap = np.log(gap, out=gap)
        gap += big
        return gap

    return polar, floor


def _polynomial_polar(rows: np.ndarray) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The polar form of log|z^alpha_1 + ... + z^alpha_k|, with alpha_j the
    exponent rows over all the variables.

    Term j has log-modulus l_j = sum_i alpha_ji log|z_i| and phase
    sum_i alpha_ji theta_i.  With l the largest l_j and w_j = exp(l_j - l)
    <= 1, the sum is exp(l) (Re + i Im) with Re and Im the sums of w_j
    times the cosines and the sines of the phases, so phi = l
    + log(Re^2 + Im^2) / 2, and no modulus underflows."""
    halves = rows / 2.0

    def polar(sq: np.ndarray, theta: np.ndarray) -> np.ndarray:
        logs = _term_logs(sq, halves)
        big = _shift_by_largest(logs)
        re, im = np.zeros_like(big), np.zeros_like(big)
        for w, alpha in zip(logs, rows):
            w = np.exp(w, out=w)  # w_j, and 0 where every term vanishes
            phase = _column_sum(theta, alpha)
            re += w * np.cos(phase)
            im += w * np.sin(phase, out=phase)
        modulus = np.hypot(re, im, out=re)
        with np.errstate(divide="ignore"):
            phi = np.log(modulus, out=modulus)
        phi += big
        return phi

    return polar


def _joined(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The exponent rows of two blocks on disjoint variables, ``left``'s
    then ``right``'s, each padded with zeros over the other's variables."""
    rows = np.zeros((len(left) + len(right), left.shape[1] + right.shape[1]))
    rows[: len(left), : left.shape[1]] = left
    rows[len(left) :, left.shape[1] :] = right
    return rows


def _terms(spec: MonomialIdealSpec) -> np.ndarray:
    """The exponent rows of a separated sum of principal monomials, one per
    monomial in order, over all the sum's variables."""
    if isinstance(spec, PrincipalMonomial):
        return _floats(spec.exponents)[np.newaxis]
    if isinstance(spec, SeparatedSum):
        return _joined(_terms(spec.left), _terms(spec.right))
    raise InvalidInputError(
        "only principal monomials and separated sums denote a single function; "
        f"cannot sample {type(spec).__name__} inside a separated sum"
    )


def _generators(spec: MonomialIdealSpec) -> tuple[np.ndarray, list[tuple[slice, tuple]]]:
    """The generators of a spec of the moduli's ideal: the exponent rows of
    its monomials over all the spec's variables (one for a principal
    monomial, a pure power per variable for a diagonal ideal), and, for a
    direct sum, the forms of its separated-sum blocks with the columns each
    reads, each one more generator."""
    if isinstance(spec, PrincipalMonomial):
        return _floats(spec.exponents)[np.newaxis], []
    if isinstance(spec, Diagonal):
        return np.diag(_floats(spec.orders)), []
    if isinstance(spec, DirectSum):
        k = spec.left.nvars
        (left, left_blocks), (right, right_blocks) = _generators(spec.left), _generators(spec.right)
        right_blocks = [(slice(c.start + k, c.stop + k), form) for c, form in right_blocks]
        return _joined(left, right), left_blocks + right_blocks
    if isinstance(spec, SeparatedSum):
        return np.zeros((0, spec.nvars)), [(slice(0, spec.nvars), _form(spec))]
    raise InvalidInputError(f"expected a monomial ideal spec, got {type(spec).__name__}")


def _form(spec: MonomialIdealSpec) -> tuple[Callable, bool, Optional[Callable]]:
    """The phi of a spec's potential (see :func:`potential_from_spec`),
    whether it reads the angles, and its floor."""
    if isinstance(spec, SeparatedSum):
        rows = _terms(spec)
        if len(rows) == 2:
            polar, floor = _binomial_polar(rows, 1.0)
            return polar, True, floor
        return _polynomial_polar(rows), True, None
    rows, blocks = _generators(spec)
    halves = rows / 2.0
    if len(halves) == 1 and not blocks:
        (half,) = halves
        unused = half == 0

        def monomial(sq: np.ndarray, theta: None) -> np.ndarray:
            with np.errstate(divide="ignore"):
                log_sq = np.log(sq)
            # a vanishing coordinate of exponent 0 adds nothing, where
            # 0 * log 0 would make the sum NaN
            log_sq[:, unused] = 0.0
            return log_sq @ half

        return monomial, False, None

    def moduli_sum(sq: np.ndarray, theta: Optional[np.ndarray]) -> np.ndarray:
        # log sum_j |g_j| = l + log sum_j exp(l_j - l), with l_j the log of
        # generator j and l the largest, so no term overflows or underflows
        logs = _term_logs(sq, halves) if len(halves) else []
        for columns, (block_phi, angles, _) in blocks:
            logs.append(block_phi(sq[:, columns], theta[:, columns] if angles else None))
        big = _shift_by_largest(logs)
        total = np.exp(logs[0], out=logs[0])
        for w in logs[1:]:
            total += np.exp(w, out=w)
        with np.errstate(divide="ignore"):  # -inf where every term vanishes
            phi = np.log(total, out=total)
        phi += big
        return phi

    angles = any(reads for _, (_, reads, _) in blocks)
    floors = [(columns, bound) for columns, (_, _, bound) in blocks if bound is not None]
    if not len(halves) and not floors:
        return moduli_sum, angles, None

    def floor(sq: np.ndarray) -> np.ndarray:
        # The largest l_j, or a block's floor in place of its phi.  The sum
        # above holds exp(l - l) = 1 and terms exp(l_j - l) >= 0, and a float
        # sum of 1 and nonnegative terms is at least 1, whose log is at least
        # 0, so phi = l + log(sum) >= l exactly in floats; no power is formed,
        # so nothing is subnormal.  A block's floor passes its phi by a few
        # units in the last place at most.
        bounds = _term_logs(sq, halves) if len(halves) else []
        bounds += [block_floor(sq[:, columns]) for columns, block_floor in floors]
        low = bounds[0]
        for bound in bounds[1:]:
            np.maximum(low, bound, out=low)  # NaN kept
        return low

    return moduli_sum, angles, floor


def potential_from_spec(
    spec: MonomialIdealSpec, radius: Union[float, Sequence[float]] = 1.0
) -> SampledPotential:
    """Sampling potential matching the exact threshold semantics of a spec.

    Principal monomials, diagonal ideals and their direct sums become log
    sum_j |g_j| over the generators g_j of the ideal (the max-equivalent
    potential of an ideal sum): a monomial's one, a diagonal's pure powers
    |z_i|^{m_i}, and a direct sum's blocks' generators, where a
    separated-sum block is one more generator, whose log is that block's
    phi.  One monomial is sum alpha_i log|z_i|.  Two or more generators are
    summed as l + log sum_j exp(l_j - l), with l_j = log|g_j| and l the
    largest, and carry the floor l, which phi is never below in floats; a
    separated-sum block bounds by its floor, and one with none is left out
    of the floor.  Separated sums become log|f|, evaluated in polar form
    from their monomials' moduli and phases; they are the only potentials
    that read the angles, and one of two monomials has the floor log|a - b|
    of its moduli a and b.
    """
    phi, angles, floor = _form(spec)
    return SampledPotential(phi, spec.nvars, radius, angles, floor)


def binomial_family(m: int, p: int) -> Callable[[float], SampledPotential]:
    """The family t -> log|z1^m + t z2^p| on the unit bidisk.

    At t = 0 the exact exponent is 1/m; for t != 0 it is min(1, 1/m + 1/p).
    The member at t = 0 is the principal monomial z1^m, the potential of
    the spec ``mono:m,0``, built once per family; it reads no angles.  The
    others are evaluated in the polar form of a binomial, with its floor.
    """
    require_int(m, 1, "exponent m must be an integer >= 1, got {value!r}")
    require_int(p, 1, "exponent p must be an integer >= 1, got {value!r}")
    rows = np.diag(_floats((m, p)))  # refuses m or p past the float range
    baseline = potential_from_spec(PrincipalMonomial((m, 0)))

    def make(t: float) -> SampledPotential:
        tt = require_real(t, "family parameter t must be a finite number, got {value!r}")
        if tt == 0.0:
            return baseline
        phi, floor = _binomial_polar(rows, tt)
        return SampledPotential(phi, 2, floor=floor)

    return make


# ---------------------------------------------------------------------------
# sampling core


def _chunk_charge(p: SampledPotential, samples: int) -> int:
    """Bytes charged for the largest chunk a sampling call of p draws: its
    draw buffers for every sample, and the evaluation of one row block at
    the rate a full chunk's blocks are charged, so a chunk no longer than a
    block is charged every row's evaluation."""
    chunk = min(samples, _CHUNK)
    # a potential of the angles is charged what the coordinate form takes
    per_variable = _COORDINATE_BYTES if p.angles else _MODULI_BYTES
    drawn = 16 if p.angles else 8
    evaluated = (per_variable - drawn) * (_CHUNK // _BLOCK)
    return p.dimension * (drawn * chunk + evaluated * min(chunk, _BLOCK))


def _require_chunk_budget(p: SampledPotential, grid_size: int, samples: int = _CHUNK) -> None:
    """Refuse, before any draw, a sample count, grid and dimension whose
    largest chunk and result rows would pass _CHUNK_BYTES."""
    require_instance(p, SampledPotential, "expected a SampledPotential")
    if _chunk_charge(p, samples) + grid_size * _RADIUS_BYTES > _CHUNK_BYTES:
        raise InvalidInputError(
            f"{grid_size} radii in dimension {p.dimension} need over "
            f"{_CHUNK_BYTES >> 20} MiB for a {min(samples, _CHUNK)}-sample chunk "
            "and the result rows"
        )


def _count_below(phi: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per threshold of the sorted, non-NaN ``edges``, the number of phi
    values strictly below it, as ``(phi[:, None] < edges[None, :]).sum(0)``
    counts them; phi may be NaN.  Where few rows are below the largest
    threshold, each of them lands in the slot of the edges it is below
    first, and the counts are the running sum of the slot sizes; where many
    are, each threshold counts the rows below it in one compare pass."""
    # what is not below the largest threshold (NaN included) counts nowhere
    below = phi < edges[-1]
    rows_below = np.count_nonzero(below)
    if rows_below * _PASS_ROWS_PER_ROW_BELOW > edges.size * (phi.size + _PASS_FIXED_ROWS):
        # enough rows are below that one compare pass per threshold costs less
        # than compressing phi by an unpredictable mask
        counts = np.empty(edges.size, dtype=np.int64)
        for i, edge in enumerate(edges[:-1]):
            counts[i] = np.count_nonzero(np.less(phi, edge, out=below))
        counts[-1] = rows_below
        return counts
    slots = np.searchsorted(edges, phi[below], side="right")
    return np.cumsum(np.bincount(slots, minlength=edges.size), dtype=np.int64)


def _values(values, rows: int, name: str) -> np.ndarray:
    """A potential's phi or floor on ``rows`` rows as an (rows,) float array."""
    values = np.asarray(values, dtype=float)
    if values.shape != (rows,):
        raise InvalidInputError(
            f"{name} returned shape {values.shape} on {rows} rows, expected ({rows},)"
        )
    return values


def _gather(rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The rows ``keep`` of an array, as a new read-only array."""
    kept = np.take(rows, keep, axis=0)
    kept.flags.writeable = False
    return kept


def _sample_group(
    potentials: Sequence[SampledPotential],
    log_thresholds: np.ndarray,
    samples: int,
    seed: int,
    workers: int,
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per potential, in order, the counts of uniform polydisk samples with
    phi < each threshold, and the volumes and binomial standard errors they
    give.  The potentials share one dimension and polydisk radius, and every
    chunk is drawn once and counted against each of them in turn, one row
    block of _BLOCK samples at a time.  A potential with a floor is
    evaluated only on the rows of a block whose floor is below the cap, the
    largest threshold plus _FLOOR_MARGIN; the rows it skips count nowhere.

    Chunked so results are bit-identical for any worker count: chunk
    boundaries depend only on the sample count, chunk seeds only on the
    root seed and chunk index, and the merge is an integer sum.  So each
    potential's counts are those it gets sampled alone.  The caller checks
    the chunk budget and passes settings that a FitConfig checked.
    """
    first = potentials[0]
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    scale = np.square(first.radius)
    n = first.dimension
    angles = any(p.angles for p in potentials)
    order = np.argsort(log_thresholds, kind="stable")
    edges = log_thresholds[order]
    cap = edges[-1] + _FLOOR_MARGIN
    nworkers = min(workers, os.cpu_count() or 1, len(sizes))

    def worker(start: int) -> np.ndarray:
        """The counts against the sorted thresholds of every nworkers-th
        chunk from ``start`` on, drawn into buffers this worker reuses."""
        sq_buffer = np.empty((sizes[0], n))
        theta_buffer = np.empty((sizes[0], n)) if angles else None
        counts = np.zeros((len(potentials), edges.size), dtype=np.int64)
        for i in range(start, len(sizes), nworkers):
            rng = np.random.Generator(np.random.PCG64(children[i]))
            # area-uniform on each disk: |z|^2 = R^2 u with u uniform, drawn
            # before the angles 2 pi v, which only a potential of the angles
            # reads; out= fills a buffer with the stream a new array would get
            sq = rng.random(out=sq_buffer[: sizes[i]])
            sq *= scale
            sq.flags.writeable = False
            theta = None
            if angles:
                theta = rng.random(out=theta_buffer[: sizes[i]])
                theta *= 2.0 * np.pi
                theta.flags.writeable = False
            for lo in range(0, sizes[i], _BLOCK):
                sq_rows = sq[lo : lo + _BLOCK]
                theta_rows = theta[lo : lo + _BLOCK] if angles else None
                for k, p in enumerate(potentials):
                    args = (sq_rows, theta_rows if p.angles else None)
                    if p.floor is not None:
                        floor = _values(p.floor(sq_rows), sq_rows.shape[0], "floor")
                        # phi >= floor >= cap > every threshold; a NaN floor keeps its row
                        keep = np.flatnonzero(~(floor >= cap))
                        del floor
                        if not keep.size:
                            continue
                        args = tuple(a if a is None else _gather(a, keep) for a in args)
                    phi = _values(p.phi(*args), args[0].shape[0], "phi")
                    del args  # the gathered rows
                    counts[k] += _count_below(phi, edges)
                    del phi  # one phi alive at a time
        return counts

    if nworkers == 1:
        # On the calling thread: a pool thread started per call may come up
        # before the last call's thread has handed back its malloc arena, and
        # the fresh arena glibc then opens makes memory and time jump at random.
        totals = worker(0)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            totals = sum(pool.map(worker, range(nworkers)))
    vol = first.polydisk_volume
    results = []
    for sorted_counts in totals:
        counts = np.empty_like(sorted_counts)
        counts[order] = sorted_counts
        frac = counts / samples
        results.append((counts, vol * frac, vol * np.sqrt(frac * (1.0 - frac) / samples)))
    return results


def estimate_sublevel_volume(
    p: SampledPotential,
    r: float,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> tuple[float, float]:
    """Estimate mu({phi < log r}) on the polydisk.

    Returns the volume estimate and its binomial standard error, both
    scaled by the polydisk volume.  Deterministic for a fixed seed.
    """
    r = require_real(r, "radius r must be a number in (0, 1), got {value!r}", 0.0, 1.0)
    FitConfig(samples=samples, seed=seed, workers=workers)  # checks all three
    _require_chunk_budget(p, 1, samples)
    log_r = np.array([math.log(r)])
    ((_, volumes, std_errors),) = _sample_group([p], log_r, samples, seed, workers)
    return float(volumes[0]), float(std_errors[0])


# ---------------------------------------------------------------------------
# exponent fitting


@dataclass(frozen=True)
class ExponentFit:
    """Result of a log-log regression of volume against radius.

    The model is log mu = 2c log r + beta log log(1/r) + const, with the
    beta term present only when the fit was run with the log correction,
    mirroring the |log r|^(n-1) factor allowed on the upper volume bound.
    Grid points whose estimated volume is zero carry no information for
    a log fit and are excluded (used_in_fit False), never smoothed.
    """

    radii: tuple[float, ...]
    volumes: tuple[float, ...]
    std_errors: tuple[float, ...]
    used_in_fit: tuple[bool, ...]
    fitted_c: float
    fitted_log_power: Optional[float]
    intercept: float
    r_squared: float

    def __post_init__(self):
        for name in ("radii", "volumes", "std_errors", "used_in_fit"):
            items = require_items(getattr(self, name), name + " must be a sequence, got {kind}")
            object.__setattr__(self, name, items)
        rs = self.radii
        if not all(0.0 < r < 1.0 for r in rs):
            raise InternalError("radii must lie in (0,1)")
        if not all(rs[i] > rs[i + 1] for i in range(len(rs) - 1)):
            raise InternalError("radii must decrease")
        for i in range(1, len(rs)):
            slack = 3.0 * (self.std_errors[i - 1] + self.std_errors[i])
            if self.volumes[i] > self.volumes[i - 1] + slack:
                raise InternalError(
                    "volume estimates increase as r shrinks beyond 3 standard errors"
                )

    def _grid(self):
        return zip(self.radii, self.volumes, self.std_errors, self.used_in_fit)

    def to_rows(self) -> list[dict]:
        return [
            {"r": r, "volume": v, "std_error": e, "used_in_fit": u} for r, v, e, u in self._grid()
        ]

    def to_csv(self) -> str:
        lines = ["r,volume,std_error,used_in_fit"]
        lines += [f"{r!r},{v!r},{e!r},{str(u).lower()}" for r, v, e, u in self._grid()]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "fitted_c": self.fitted_c,
            "fitted_log_power": self.fitted_log_power,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "grid": self.to_rows(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass(frozen=True)
class FitConfig:
    """The settings of fit_exponent / semicontinuity_experiment, each
    checked when the config is built.  fit_exponent takes them as keywords,
    so ``fit_exponent(p, **vars(config))`` runs a configured fit.  workers is
    an int >= 1, the most threads a fit samples on; 1 is the calling thread."""

    r_min: float = 1e-3
    r_max: float = 1e-1
    grid_size: int = 12
    samples: int = 10**6
    seed: int = DEFAULT_SEED
    with_log_correction: bool = False
    workers: int = 1

    def __post_init__(self):
        real = "r_min and r_max must be numbers, got {value!r}"
        if not 0.0 < require_real(self.r_min, real) < require_real(self.r_max, real) < 1.0:
            raise InvalidInputError("need 0 < r_min < r_max < 1")
        require_int(self.grid_size, 4, "grid_size must be an integer >= 4")
        if require_int(self.samples, 1000, "need at least 1000 samples") > _MAX_CHUNKS * _CHUNK:
            raise InvalidInputError(f"samples must be at most {_MAX_CHUNKS * _CHUNK}")
        require_int(self.seed, 0, "seed must be a nonnegative integer")
        bool_only = "with_log_correction must be True or False"
        require_instance(self.with_log_correction, bool, bool_only)
        require_int(self.workers, 1, "workers must be an integer >= 1, got {value!r}")


def fit_exponent(p: SampledPotential, **settings) -> ExponentFit:
    """Estimate volumes on a geometric radius grid and fit the exponent.

    ``settings`` are FitConfig's fields, with its defaults.  One common
    sample set is counted against every radius, so the volume column is
    exactly nonincreasing as r shrinks.  Least squares on the usable
    (nonzero) grid points; fitted_c is half the log r slope.
    """
    return _fit_all([p], FitConfig(**settings))[0]


def _fit_all(potentials: Sequence[SampledPotential], config: FitConfig) -> list[ExponentFit]:
    """The fit of :func:`fit_exponent` for each potential, in order.  The
    potentials that share a polydisk are sampled together, each chunk drawn
    once and counted against each of them in turn."""
    for p in potentials:
        # the caller keeps the rows of every fit
        _require_chunk_budget(p, config.grid_size * len(potentials), config.samples)
    radii = np.geomspace(config.r_max, config.r_min, config.grid_size)
    groups: dict[tuple, list[int]] = {}
    for k, p in enumerate(potentials):
        groups.setdefault((p.dimension, p.radius), []).append(k)
    sampled = {}
    for members in groups.values():
        group = [potentials[k] for k in members]
        counted = _sample_group(group, np.log(radii), config.samples, config.seed, config.workers)
        sampled.update(zip(members, counted))
    # in input order, so the first fit short of data raises as it does alone
    return [_regress(radii, *sampled[k], config.with_log_correction) for k in sorted(sampled)]


def _regress(
    radii: np.ndarray,
    counts: np.ndarray,
    volumes: np.ndarray,
    std_errors: np.ndarray,
    with_log_correction: bool,
) -> ExponentFit:
    """The least-squares fit of fit_exponent on sampled grid volumes."""
    used = counts > 0
    nused = int(used.sum())
    if nused < 3:
        raise InsufficientDataError(f"only {nused} grid points have nonzero volume; need 3")

    y = np.log(volumes[used])
    cols = [np.log(radii[used])]
    if with_log_correction:
        cols.append(np.log(np.log(1.0 / radii[used])))
    cols.append(np.ones(nused))
    design = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)

    residuals = y - design @ coef
    ss_res = float(residuals @ residuals)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    return ExponentFit(
        radii=tuple(float(r) for r in radii),
        volumes=tuple(float(v) for v in volumes),
        std_errors=tuple(float(s) for s in std_errors),
        used_in_fit=tuple(bool(u) for u in used),
        fitted_c=float(coef[0]) / 2.0,
        fitted_log_power=float(coef[1]) if with_log_correction else None,
        intercept=float(coef[-1]),
        r_squared=r_squared,
    )


# ---------------------------------------------------------------------------
# semicontinuity experiments


@dataclass(frozen=True)
class SemicontinuityReport:
    """Fitted exponents across a potential family, with violation flags.

    Lower semicontinuity predicts fitted_c(t) cannot drop below the
    baseline fitted_c(0) (up to fit noise); any t where it does by more
    than the tolerance is flagged.
    """

    t_values: tuple[float, ...]
    fits: tuple[ExponentFit, ...]
    baseline_c: float
    tolerance: float
    violations: tuple[float, ...]

    def entries(self) -> list[tuple[float, float]]:
        return [(t, fit.fitted_c) for t, fit in zip(self.t_values, self.fits)]


def semicontinuity_experiment(
    family: Callable[[float], SampledPotential],
    t_values: Sequence[float],
    config: Optional[FitConfig] = None,
    tolerance: float = 0.05,
) -> SemicontinuityReport:
    """Fit the exponent at each family parameter and flag drops below the
    t = 0 baseline.  The baseline parameter 0 must be in t_values.

    Every family member is counted on one shared sample set, and each fit
    equals ``fit_exponent(family(t), **vars(config))``: both run one fit
    path, which samples the members that share a polydisk together.
    """
    require_instance(family, Callable, "family must map t to a SampledPotential")
    t_values = require_items(t_values, "t_values must be a sequence of numbers, got {kind}")
    number = "family parameters t must be finite numbers, got {value!r}"
    t_values = [require_real(t, number) for t in t_values]
    if 0.0 not in t_values:
        raise InvalidInputError("t_values must include the baseline t = 0")
    tolerance = require_real(tolerance, "tolerance must be a number, got {value!r}")
    if tolerance < 0.0:
        raise InvalidInputError("tolerance must be a finite nonnegative number")
    config = FitConfig() if config is None else config
    require_instance(config, FitConfig, "config must be a FitConfig or None, got {kind}")
    # _fit_all refuses a member that is not a SampledPotential before any draw
    fits = _fit_all([family(t) for t in t_values], config)
    baseline = fits[t_values.index(0.0)].fitted_c
    violations = tuple(
        t for t, fit in zip(t_values, fits) if fit.fitted_c < baseline - tolerance
    )
    return SemicontinuityReport(
        t_values=tuple(t_values),
        fits=tuple(fits),
        baseline_c=baseline,
        tolerance=tolerance,
        violations=violations,
    )
