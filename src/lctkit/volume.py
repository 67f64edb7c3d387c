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
spawning.  The chunks run on min(workers, LCT_THREADS, CPU count)
threads (1 by default, which is the calling thread), and the merged
counts are independent of chunk scheduling.
One common sample set is counted against every radius of a fit grid
(common random numbers), which makes the volume curve exactly monotone
in r and keeps the fitted slope variance small.

Potentials of the moduli alone (principal monomials, diagonal ideals and
direct sums of those) are evaluated from the squared moduli R_i^2 u_i:
sampling draws only the radii and neither the angles nor coordinates.
The u_i are each chunk's first draws on either path, so the samples and
the counts are the same as through the coordinate evaluator.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import InsufficientDataError, InternalError, InvalidInputError, require_int
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

# Bytes a chunk's draws and a fit's radius grid may take; a 2^17-sample
# chunk and 12 radii in 2 variables take 8 MiB on the path of the moduli.
_CHUNK_BYTES = 1 << 27

# Bytes charged per sample and variable while a chunk is drawn and
# evaluated; tracemalloc measures 64-72 on the coordinate path (radii,
# angles, interleaved coordinates and the spec evaluator's complex copy)
# and 18-28 for a potential of the moduli (squared moduli and their logs).
_COORDINATE_BYTES = 72
_MODULI_BYTES = 32

# Bytes charged per grid radius: a chunk's count arrays and the fit's result
# rows, up to its JSON rendering, which tracemalloc measures at about 430.
_RADIUS_BYTES = 512

# Chunks one sampling call may spawn seeds for, 2^32 samples: every chunk
# holds a list entry and a SeedSequence (about 450 bytes) from the start.
_MAX_CHUNKS = 1 << 15


def _worker_count(requested: Optional[int]) -> int:
    """Effective worker count: requested (default 1), capped by LCT_THREADS
    and by the CPU count."""
    workers = 1 if requested is None else int(requested)
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    cap = os.environ.get("LCT_THREADS", "").strip()
    if cap:
        try:
            cap_n = int(cap)
        except ValueError as exc:
            raise InvalidInputError(f"LCT_THREADS must be an integer, got {cap!r}") from exc
        if cap_n < 1:
            raise InvalidInputError(f"LCT_THREADS must be a positive integer, got {cap!r}")
        workers = min(workers, cap_n)
    return min(workers, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class SampledPotential:
    """A potential phi on a polydisk, evaluated on batches of points.

    ``evaluator`` maps an (N, 2n) float array of interleaved real
    coordinates (Re z1, Im z1, ..., Re zn, Im zn) to an (N,) array of
    phi values; -inf is allowed (log of a vanishing modulus).  It must
    be deterministic and total on the closed polydisk.

    ``moduli``, if given, is the same phi as a function of the (N, n)
    array of squared moduli |z_i|^2; it must not modify its argument.
    Sampling then draws only the radii and builds no coordinates.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    dimension: int
    radius: tuple[float, ...] = (1.0,)
    moduli: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        require_int(self.dimension, 1, "dimension must be a positive integer")
        if not callable(self.evaluator):
            raise InvalidInputError("evaluator must be callable")
        if self.moduli is not None and not callable(self.moduli):
            raise InvalidInputError("moduli must be callable or None")
        r = self.radius
        r = tuple(float(x) for x in ((r,) if isinstance(r, (int, float)) else r))
        if len(r) == 1:
            r *= self.dimension
        if len(r) != self.dimension:
            raise InvalidInputError("need one polydisk radius per coordinate")
        if any(not 0.0 < x < math.inf for x in r):
            raise InvalidInputError("polydisk radii must be positive and finite")
        object.__setattr__(self, "radius", r)

    @property
    def polydisk_volume(self) -> float:
        """Lebesgue volume of the sampling polydisk, prod pi*R_i^2."""
        vol = 1.0
        for r in self.radius:
            vol *= math.pi * r * r
        return vol


def _as_complex(coords: np.ndarray) -> np.ndarray:
    return coords[:, 0::2] + 1j * coords[:, 1::2]


def _complex_function(spec: MonomialIdealSpec, offset: int) -> Callable[[np.ndarray], np.ndarray]:
    """The holomorphic function a spec denotes, viewed on a variable block
    starting at ``offset``.  Only principal monomials and separated sums
    denote single functions; ideals do not."""
    if isinstance(spec, PrincipalMonomial):
        exps = spec.exponents

        def fn(z: np.ndarray) -> np.ndarray:
            out = np.ones(z.shape[0], dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    out = out * z[:, offset + i] ** e
            return out

        return fn
    if isinstance(spec, SeparatedSum):
        left = _complex_function(spec.left, offset)
        right = _complex_function(spec.right, offset + spec.left.nvars)
        return lambda z: left(z) + right(z)
    raise InvalidInputError(
        "only principal monomials and separated sums denote a single function; "
        f"cannot sample {type(spec).__name__} inside a separated sum"
    )


def _moduli_function(spec: MonomialIdealSpec) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """The potential of a spec as a function of the (N, n) squared moduli,
    for principal monomials, diagonal ideals and direct sums of those;
    None for specs whose potential also depends on the angles."""
    if isinstance(spec, PrincipalMonomial):
        alpha = np.asarray(spec.exponents, dtype=float)
        unused = alpha == 0

        def monomial(sq: np.ndarray) -> np.ndarray:
            if unused.any():
                # log 1 = 0: a vanishing coordinate of exponent 0 adds nothing,
                # where 0 * log 0 would make the sum NaN
                sq = np.where(unused, 1.0, sq)
            with np.errstate(divide="ignore"):
                return 0.5 * (np.log(sq) @ alpha)

        return monomial
    if isinstance(spec, Diagonal):
        half = np.asarray(spec.orders, dtype=float) / 2.0

        def diagonal(sq: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore"):
                return np.log(np.sum(sq**half, axis=1))

        return diagonal
    if isinstance(spec, DirectSum):
        left, right = _moduli_function(spec.left), _moduli_function(spec.right)
        if left is None or right is None:
            return None
        k = spec.left.nvars
        # contiguous blocks, as each block's own evaluator made them: numpy
        # may run other SIMD loops on strided data
        return lambda sq: np.logaddexp(
            left(np.ascontiguousarray(sq[:, :k])), right(np.ascontiguousarray(sq[:, k:]))
        )
    return None


def _evaluator(spec: MonomialIdealSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluator of a spec's potential (see :func:`potential_from_spec`)
    on interleaved coordinates, built by recursion over the spec."""
    moduli = _moduli_function(spec)
    if moduli is not None:
        return lambda coords: moduli(coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2)
    if isinstance(spec, DirectSum):
        left, right = _evaluator(spec.left), _evaluator(spec.right)
        off = 2 * spec.left.nvars
        return lambda coords: np.logaddexp(left(coords[:, :off]), right(coords[:, off:]))
    if isinstance(spec, SeparatedSum):
        fn = _complex_function(spec, 0)

        def function(coords: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore"):
                return np.log(np.abs(fn(_as_complex(coords))))

        return function
    raise InvalidInputError(f"expected a monomial ideal spec, got {type(spec).__name__}")


def potential_from_spec(
    spec: MonomialIdealSpec, radius: Union[float, Sequence[float]] = 1.0
) -> SampledPotential:
    """Sampling potential matching the exact threshold semantics of a spec.

    Principal monomials become sum alpha_i log|z_i| and separated sums
    log|f|; diagonal ideals become log sum |z_i|^{m_i}; direct sums
    combine via logaddexp (the max-equivalent potential of an ideal sum).
    The potentials of principal monomials, diagonal ideals and their direct
    sums depend only on the moduli and carry that form as ``moduli``.
    """
    return SampledPotential(_evaluator(spec), spec.nvars, radius, _moduli_function(spec))


def monomial_potential(
    exponents: Sequence[int], radius: Union[float, Sequence[float]] = 1.0
) -> SampledPotential:
    """phi = sum alpha_i log|z_i|, the potential of a principal monomial."""
    return potential_from_spec(PrincipalMonomial(tuple(exponents)), radius)


def diagonal_potential(
    orders: Sequence[int], radius: Union[float, Sequence[float]] = 1.0
) -> SampledPotential:
    """phi = log sum |z_i|^{m_i}, the standard potential of a diagonal ideal."""
    return potential_from_spec(Diagonal(tuple(orders)), radius)


def binomial_family(m: int, p: int) -> Callable[[float], SampledPotential]:
    """The family t -> log|z1^m + t z2^p| on the unit bidisk.

    At t = 0 the exact exponent is 1/m; for t != 0 it is min(1, 1/m + 1/p).
    """
    require_int(m, 1, "exponent m must be an integer >= 1, got {value!r}")
    require_int(p, 1, "exponent p must be an integer >= 1, got {value!r}")

    def make(t: float) -> SampledPotential:
        tt = float(t)

        def evaluator(coords: np.ndarray) -> np.ndarray:
            z = _as_complex(coords)
            with np.errstate(divide="ignore"):
                return np.log(np.abs(z[:, 0] ** m + tt * z[:, 1] ** p))

        return SampledPotential(evaluator, 2)

    return make


# ---------------------------------------------------------------------------
# sampling core


def _require_chunk_budget(p: SampledPotential, grid_size: int, samples: int = _CHUNK) -> None:
    """Refuse, before any draw, a sample count, grid and dimension whose
    largest chunk and result rows would pass _CHUNK_BYTES."""
    if not isinstance(p, SampledPotential):
        raise InvalidInputError("expected a SampledPotential")
    require_int(samples, 1000, "need at least 1000 samples")
    chunk = min(samples, _CHUNK)
    per_variable = _COORDINATE_BYTES if p.moduli is None else _MODULI_BYTES
    if chunk * per_variable * p.dimension + grid_size * _RADIUS_BYTES > _CHUNK_BYTES:
        raise InvalidInputError(
            f"{grid_size} radii in dimension {p.dimension} need over "
            f"{_CHUNK_BYTES >> 20} MiB for a {chunk}-sample chunk and the result rows"
        )


def _count_below(phi: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Per threshold, the number of phi values strictly below it, as
    ``(phi[:, None] < thresholds[None, :]).sum(axis=0)`` counts them for
    thresholds that are not NaN.  Each phi value lands in the slot of the
    sorted thresholds it is below first, and the running sum of the slot
    sizes is mapped back to the thresholds' order."""
    order = np.argsort(thresholds, kind="stable")
    slots = np.searchsorted(thresholds[order], phi, side="right")
    below = np.cumsum(np.bincount(slots, minlength=order.size + 1)[:-1], dtype=np.int64)
    counts = np.empty_like(below)
    counts[order] = below
    return counts


def _sample_volumes(
    p: SampledPotential,
    log_thresholds: np.ndarray,
    samples: int,
    seed: int,
    workers: Optional[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Counts of uniform polydisk samples with phi < each threshold, and
    the volumes and binomial standard errors they give.

    Chunked so results are bit-identical for any worker count: chunk
    boundaries depend only on the sample count, chunk seeds only on the
    root seed and chunk index, and the merge is an integer sum.  The
    caller checks the chunk budget and the sample count.
    """
    require_int(seed, 0, "seed must be a nonnegative integer")
    if -(-samples // _CHUNK) > _MAX_CHUNKS:
        raise InvalidInputError(f"samples must be at most {_MAX_CHUNKS * _CHUNK}")
    sizes = [_CHUNK] * (samples // _CHUNK)
    if samples % _CHUNK:
        sizes.append(samples % _CHUNK)
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    radius = np.asarray(p.radius)
    n = p.dimension

    def one_chunk(i: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(children[i]))
        # area-uniform on each disk: |z|^2 = R^2 u with u uniform, drawn
        # before the angles v; a potential of the moduli needs no angles
        u = rng.random((sizes[i], n))
        if p.moduli is not None:
            u *= radius * radius
            phi = p.moduli(u)
        else:
            rad = np.sqrt(u, out=u)
            rad *= radius
            ang = (2.0 * np.pi) * rng.random((sizes[i], n))
            coords = np.empty((sizes[i], 2 * n))
            coords[:, 0::2] = rad * np.cos(ang)
            coords[:, 1::2] = rad * np.sin(ang)
            phi = p.evaluator(coords)
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (sizes[i],):
            raise InvalidInputError(
                f"evaluator returned shape {phi.shape}, expected ({sizes[i]},)"
            )
        return _count_below(phi, log_thresholds)

    chunks = range(len(sizes))
    nworkers = min(_worker_count(workers), len(sizes))
    if nworkers == 1:
        # On the calling thread: a pool thread started per call may come up
        # before the last call's thread has handed back its malloc arena, and
        # the fresh arena glibc then opens makes memory and time jump at random.
        counts = sum(map(one_chunk, chunks))
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            counts = sum(pool.map(one_chunk, chunks))
    frac = counts / samples
    vol = p.polydisk_volume
    return counts, vol * frac, vol * np.sqrt(frac * (1.0 - frac) / samples)


def estimate_sublevel_volume(
    p: SampledPotential,
    r: float,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
) -> tuple[float, float]:
    """Estimate mu({phi < log r}) on the polydisk.

    Returns the volume estimate and its binomial standard error, both
    scaled by the polydisk volume.  Deterministic for a fixed seed.
    """
    if not 0.0 < r < 1.0:
        raise InvalidInputError("radius r must lie in (0, 1)")
    _require_chunk_budget(p, 1, samples)
    _, volumes, std_errors = _sample_volumes(p, np.array([math.log(r)]), samples, seed, workers)
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
    """Knobs for fit_exponent / semicontinuity_experiment; the field names
    are fit_exponent's keyword names, so ``fit_exponent(p, **vars(config))``
    runs a configured fit."""

    r_min: float = 1e-3
    r_max: float = 1e-1
    grid_size: int = 12
    samples: int = 10**6
    seed: int = DEFAULT_SEED
    with_log_correction: bool = False
    workers: Optional[int] = None


def fit_exponent(
    p: SampledPotential,
    r_min: float = 1e-3,
    r_max: float = 1e-1,
    grid_size: int = 12,
    samples: int = 10**6,
    seed: int = DEFAULT_SEED,
    with_log_correction: bool = False,
    workers: Optional[int] = None,
) -> ExponentFit:
    """Estimate volumes on a geometric radius grid and fit the exponent.

    One common sample set is counted against every radius, so the volume
    column is exactly nonincreasing as r shrinks.  Least squares on the
    usable (nonzero) grid points; fitted_c is half the log r slope.
    """
    if not (0.0 < r_min < r_max < 1.0):
        raise InvalidInputError("need 0 < r_min < r_max < 1")
    require_int(grid_size, 4, "grid_size must be an integer >= 4")
    _require_chunk_budget(p, grid_size, samples)

    radii = np.geomspace(r_max, r_min, grid_size)
    counts, volumes, std_errors = _sample_volumes(p, np.log(radii), samples, seed, workers)
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
    t = 0 baseline.  The baseline parameter 0 must be in t_values."""
    if not callable(family):
        raise InvalidInputError("family must map t to a SampledPotential")
    t_values = [float(t) for t in t_values]
    if not t_values:
        raise InvalidInputError("t_values must be nonempty")
    if 0.0 not in t_values:
        raise InvalidInputError("t_values must include the baseline t = 0")
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise InvalidInputError("tolerance must be a finite nonnegative number")
    config = config or FitConfig()
    require_int(config.grid_size, 4, "grid_size must be an integer >= 4")

    potentials = [family(t) for t in t_values]
    for t, potential in zip(t_values, potentials):
        if not isinstance(potential, SampledPotential):
            raise InvalidInputError(f"family({t}) did not return a SampledPotential")
        # the report keeps the rows of every fit
        _require_chunk_budget(potential, config.grid_size * len(t_values), config.samples)
    fits = [fit_exponent(potential, **vars(config)) for potential in potentials]
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
