"""Monte-Carlo sublevel volumes: closed-form agreement, determinism,
fit behavior, and serialization."""

import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lctkit
from lctkit import volume
from lctkit import (
    Diagonal,
    DirectSum,
    ExponentFit,
    PrincipalMonomial,
    SampledPotential,
    SeparatedSum,
    binomial_family,
    diagonal_potential,
    estimate_sublevel_volume,
    fit_exponent,
    FitConfig,
    monomial_potential,
    parse_spec,
    potential_from_spec,
    semicontinuity_experiment,
)
from lctkit.errors import InsufficientDataError, InternalError, InvalidInputError

SEED = 20240915


def zero_potential(n=1):
    return SampledPotential(lambda coords: np.zeros(coords.shape[0]), n)


# ---------------------------------------------------------------------------
# closed forms


def test_disk_area_law():
    # {log|z| < log r} is the disk of radius r, volume pi r^2
    p = monomial_potential([1])
    est, err = estimate_sublevel_volume(p, 0.5, samples=200_000, seed=SEED)
    assert type(est) is float and type(err) is float
    assert err > 0
    assert abs(est - math.pi * 0.25) <= 3 * err


def test_bidisk_product_volume():
    # mu({|z1 z2| < r}) on the unit bidisk = pi^2 r^2 (1 + 2 ln(1/r))
    p = monomial_potential([1, 1])
    r = 0.1
    exact = math.pi**2 * r * r * (1 + 2 * math.log(1 / r))
    est, err = estimate_sublevel_volume(p, r, samples=200_000, seed=SEED)
    assert abs(est - exact) <= 3 * err


def test_empty_sublevel_set():
    est, err = estimate_sublevel_volume(zero_potential(), 0.5, samples=1000, seed=SEED)
    assert est == 0.0
    assert err == 0.0


def test_scaled_polydisk_volume():
    p = SampledPotential(lambda c: np.zeros(c.shape[0]), 2, radius=(2.0, 0.5))
    assert p.polydisk_volume == pytest.approx(math.pi * 4 * math.pi * 0.25)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_answer():
    p = monomial_potential([2, 1])
    a = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=SEED)
    b = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=SEED)
    assert a == b


def test_worker_count_does_not_change_counts():
    p = monomial_potential([2, 1])
    serial = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=1)
    threaded = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=4)
    assert serial == threaded


def test_thread_cap_env(monkeypatch):
    p = monomial_potential([1])
    monkeypatch.setenv("LCT_THREADS", "1")
    capped = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=8)
    monkeypatch.delenv("LCT_THREADS")
    free = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=8)
    assert capped == free


@pytest.mark.parametrize("cap", ["many", "0", "-1"])
def test_thread_cap_env_must_be_integer(monkeypatch, cap):
    monkeypatch.setenv("LCT_THREADS", cap)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(monomial_potential([1]), 0.3, samples=1000, seed=SEED)


def test_worker_count_is_capped_by_the_cpu_count(monkeypatch):
    # the count is computed only; no sampling, so no thread is started
    monkeypatch.delenv("LCT_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert volume._worker_count(100_000) == 3
    assert volume._worker_count(2) == 2
    assert volume._worker_count(None) == 1
    monkeypatch.setenv("LCT_THREADS", "2")
    assert volume._worker_count(100_000) == 2
    monkeypatch.delenv("LCT_THREADS")
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert volume._worker_count(100_000) == 1


def test_different_seeds_differ():
    p = monomial_potential([1])
    a, _ = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=1)
    b, _ = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=2)
    assert a != b


# ---------------------------------------------------------------------------
# counting


def broadcast_count(phi, thresholds):
    return (phi[:, None] < thresholds[None, :]).sum(axis=0, dtype=np.int64)


def test_count_below_matches_the_broadcast_compare():
    rng = np.random.default_rng(6)
    # unsorted, with a duplicate
    thresholds = np.array([-1.0, -3.0, 0.5, -3.0, -math.inf, 2.0, -0.25])
    phi = np.concatenate([
        rng.normal(-1.0, 2.0, 5000),
        thresholds,  # phi equal to each threshold is not below it
        [-math.inf, -math.inf, math.inf, math.nan, math.nan, -0.0, 0.0],
    ])
    rng.shuffle(phi)
    counts = volume._count_below(phi, thresholds)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, broadcast_count(phi, thresholds))
    empty = volume._count_below(np.array([]), thresholds)
    np.testing.assert_array_equal(empty, np.zeros(thresholds.size, dtype=np.int64))


floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(
    st.lists(floats, max_size=60),
    st.lists(st.floats(allow_nan=False, allow_infinity=True), min_size=1, max_size=12),
)
def test_count_below_matches_the_broadcast_compare_property(phi, thresholds):
    phi, thresholds = np.array(phi, dtype=float), np.array(thresholds, dtype=float)
    # phi values drawn from the thresholds too, so that ties are common
    phi = np.concatenate([phi, thresholds[::2]])
    np.testing.assert_array_equal(
        volume._count_below(phi, thresholds), broadcast_count(phi, thresholds)
    )


# ---------------------------------------------------------------------------
# argument validation


def test_estimate_argument_errors():
    p = monomial_potential([1])
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 0.0, samples=1000)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 1.0, samples=1000)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 0.5, samples=999)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 0.5, samples=1000, seed=-1)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 0.5, samples=1000, seed=True)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(p, 0.5, samples=1000, workers=0)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume("not a potential", 0.5, samples=1000)


def test_chunk_budget_is_checked_before_any_draw():
    calls = []

    def evaluator(coords):
        calls.append(coords.shape)
        return np.zeros(coords.shape[0])

    # 2^17 samples x 72 bytes x 15 variables passes 128 MiB
    with pytest.raises(InvalidInputError, match="MiB"):
        estimate_sublevel_volume(SampledPotential(evaluator, 15), 0.5, samples=10**6)
    with pytest.raises(InvalidInputError, match="MiB"):
        fit_exponent(SampledPotential(evaluator, 2), grid_size=225281)
    assert calls == []
    # 2^17 x 72 x 2 bytes of draws + 225280 radii x 512 bytes is exactly the budget
    volume._require_chunk_budget(SampledPotential(evaluator, 2), 225280)
    volume._require_chunk_budget(SampledPotential(evaluator, 14), 4096)
    with pytest.raises(InvalidInputError, match="MiB"):
        volume._require_chunk_budget(SampledPotential(evaluator, 14), 4097)
    # a potential of the moduli is charged 32 bytes per sample and variable
    moduli = SampledPotential(evaluator, 31, moduli=lambda sq: sq[:, 0])
    volume._require_chunk_budget(moduli, 8192)
    with pytest.raises(InvalidInputError, match="MiB"):
        volume._require_chunk_budget(moduli, 8193)
    # the compare that once took 1 byte per sample and radius is gone: 993 radii fit
    fit = fit_exponent(monomial_potential([1]), r_min=0.3, r_max=0.9, grid_size=993, samples=1000)
    assert len(fit.radii) == 993


def test_chunk_budget_charges_the_largest_chunk_drawn():
    # 33 variables on the coordinate path: a 20000-sample chunk takes about
    # 43 MB, a full 2^17-sample chunk about 280 MB
    p = potential_from_spec(parse_spec("ssum(mono:1;" * 32 + "mono:1" + ")" * 32))
    assert p.moduli is None and p.dimension == 33
    volume._require_chunk_budget(p, 12, 20000)
    with pytest.raises(InvalidInputError, match="131072-sample chunk"):
        volume._require_chunk_budget(p, 12, 10**6)
    with pytest.raises(InvalidInputError, match="131072-sample chunk"):
        estimate_sublevel_volume(p, 0.5)
    with pytest.raises(InvalidInputError, match="at least 1000 samples"):
        volume._require_chunk_budget(p, 12, 999)


def chunk_peak(p, thresholds):
    """tracemalloc's peak while one 2^17-sample chunk is drawn and counted."""
    volume._sample_volumes(p, thresholds, 2000, SEED, 1)  # first-call allocations
    tracemalloc.start()
    try:
        volume._sample_volumes(p, thresholds, volume._CHUNK, SEED, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_charge_is_what_one_chunk_takes():
    potentials = [potential_from_spec(parse_spec(text)) for text in (
        "mono:1", "mono:1,0", "mono:2,1", "mono:1,0,0,0", "diag:2,3",
        "dsum(mono:2,1;diag:2,3)",
        "ssum(mono:1;mono:1)", "ssum(mono:3;mono:1,0)", "ssum(mono:1;ssum(mono:1;mono:1))",
        "ssum(ssum(mono:1;mono:1);ssum(mono:1;mono:1))", "dsum(ssum(mono:1;mono:1);diag:2,3)",
    )] + [binomial_family(2, 3)(1.0), zero_potential(1), zero_potential(3)]
    thresholds = np.log(np.geomspace(1e-3, 1e-1, 12))
    worst = {volume._COORDINATE_BYTES: 0.0, volume._MODULI_BYTES: 0.0}
    for p in potentials:
        per_variable = volume._COORDINATE_BYTES if p.moduli is None else volume._MODULI_BYTES
        peak = chunk_peak(p, thresholds)
        charge = volume._CHUNK * per_variable * p.dimension + thresholds.size * volume._RADIUS_BYTES
        assert peak <= charge
        worst[per_variable] = max(worst[per_variable], peak / (volume._CHUNK * p.dimension))
    # each path's charge is its worst measured case rounded up: 72.0 bytes per
    # sample and variable for ssum(mono:1;mono:1), 28.0 for mono:1,0
    assert volume._COORDINATE_BYTES - 8 < worst[volume._COORDINATE_BYTES]
    assert volume._MODULI_BYTES - 8 < worst[volume._MODULI_BYTES]


def test_semicontinuity_charges_the_rows_of_every_fit():
    calls = []

    def family(t):
        def evaluator(coords):
            calls.append(t)
            return np.zeros(coords.shape[0])

        return SampledPotential(evaluator, 2)

    # one fit of 100000 radii is within the budget; the report of three is not
    volume._require_chunk_budget(family(0.0), 100000)
    config = FitConfig(grid_size=100000, samples=1000)
    with pytest.raises(InvalidInputError, match="300000 radii"):
        semicontinuity_experiment(family, [0.0, 0.5, 1.0], config=config)
    assert calls == []


def test_sample_count_is_bounded_before_any_seed_is_spawned(monkeypatch):
    def seed_sequence(*_):
        raise AssertionError("seeds spawned")

    monkeypatch.setattr(np.random, "SeedSequence", seed_sequence)
    limit = volume._MAX_CHUNKS * volume._CHUNK
    with pytest.raises(InvalidInputError, match=f"samples must be at most {limit}"):
        estimate_sublevel_volume(monomial_potential([1]), 0.5, samples=limit + 1)
    with pytest.raises(InvalidInputError, match="at most"):
        fit_exponent(monomial_potential([1]), samples=10**12)


def test_potential_validation():
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 0)
    with pytest.raises(InvalidInputError):
        SampledPotential("no", 1)
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 2, radius=(1.0, 2.0, 3.0))
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 1, radius=(0.0,))


def test_evaluator_shape_is_checked():
    bad = SampledPotential(lambda coords: np.zeros((coords.shape[0], 2)), 1)
    with pytest.raises(InvalidInputError):
        estimate_sublevel_volume(bad, 0.5, samples=1000, seed=SEED)


# ---------------------------------------------------------------------------
# spec-derived potentials


def sample_coords(n, rng):
    return rng.uniform(-0.7, 0.7, size=(64, 2 * n))


def test_monomial_potential_matches_closed_form():
    rng = np.random.default_rng(0)
    coords = sample_coords(3, rng)
    p = monomial_potential([2, 0, 1])
    z = coords[:, 0::2] + 1j * coords[:, 1::2]
    expected = 2 * np.log(np.abs(z[:, 0])) + np.log(np.abs(z[:, 2]))
    np.testing.assert_allclose(p.evaluator(coords), expected, rtol=1e-12)


def test_monomial_potential_at_a_vanishing_coordinate_of_exponent_0():
    # z = (0.5, 0, 0.5) on z0 z2^2: the zero coordinate has exponent 0
    p = potential_from_spec(parse_spec("mono:1,0,2"))
    coords = np.array([[0.5, 0.0, 0.0, 0.0, 0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = p.evaluator(coords)
    assert value[0] == pytest.approx(3 * math.log(0.5), rel=1e-15)


def test_diagonal_potential_matches_closed_form():
    rng = np.random.default_rng(1)
    coords = sample_coords(2, rng)
    p = diagonal_potential([2, 3])
    z = coords[:, 0::2] + 1j * coords[:, 1::2]
    expected = np.log(np.abs(z[:, 0]) ** 2 + np.abs(z[:, 1]) ** 3)
    np.testing.assert_allclose(p.evaluator(coords), expected, rtol=1e-12)


def test_potential_from_spec_dispatch():
    rng = np.random.default_rng(2)
    coords = sample_coords(2, rng)
    np.testing.assert_array_equal(
        potential_from_spec(parse_spec("mono:2,1")).evaluator(coords),
        monomial_potential([2, 1]).evaluator(coords),
    )
    np.testing.assert_array_equal(
        potential_from_spec(parse_spec("diag:2,3")).evaluator(coords),
        diagonal_potential([2, 3]).evaluator(coords),
    )


def test_separated_sum_potential_is_log_of_function_sum():
    rng = np.random.default_rng(3)
    coords = sample_coords(2, rng)
    p = potential_from_spec(parse_spec("ssum(mono:2;mono:3)"))
    z = coords[:, 0::2] + 1j * coords[:, 1::2]
    expected = np.log(np.abs(z[:, 0] ** 2 + z[:, 1] ** 3))
    np.testing.assert_allclose(p.evaluator(coords), expected, rtol=1e-12)


def test_direct_sum_potential_combines_blocks():
    rng = np.random.default_rng(4)
    coords = sample_coords(2, rng)
    p = potential_from_spec(DirectSum(Diagonal((2,)), Diagonal((3,))))
    assert p.dimension == 2
    left = diagonal_potential([2]).evaluator(coords[:, :2])
    right = diagonal_potential([3]).evaluator(coords[:, 2:])
    np.testing.assert_allclose(p.evaluator(coords), np.logaddexp(left, right), rtol=1e-12)


MODULI_SPECS = [
    "mono:3",
    "mono:2,1",
    "mono:1,0,2",
    "mono:0,0,0,1",
    "diag:2",
    "diag:2,3",
    "diag:1,4,2,5",
    "dsum(mono:2,1;diag:2,3)",
    "dsum(diag:2;mono:0,3,1)",
    "dsum(mono:1;dsum(mono:0,1;diag:3))",
]


def coordinate_reference(spec):
    """The potential of a moduli-only spec written per coordinate block,
    straight from its definition and in the numpy operations of the
    coordinate evaluators, which the moduli form must reproduce bit for bit."""
    if isinstance(spec, PrincipalMonomial):
        alpha = np.asarray(spec.exponents, dtype=float)

        def monomial(coords):
            sq = coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2
            sq[:, alpha == 0] = 1.0
            with np.errstate(divide="ignore"):
                return 0.5 * (np.log(sq) @ alpha)

        return monomial
    if isinstance(spec, Diagonal):
        half = np.asarray(spec.orders, dtype=float) / 2.0

        def diagonal(coords):
            sq = coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2
            with np.errstate(divide="ignore"):
                return np.log(np.sum(sq**half, axis=1))

        return diagonal
    left, right = coordinate_reference(spec.left), coordinate_reference(spec.right)
    off = 2 * spec.left.nvars
    return lambda coords: np.logaddexp(left(coords[:, :off]), right(coords[:, off:]))


@pytest.mark.parametrize("text", MODULI_SPECS)
def test_moduli_form_keeps_the_coordinate_evaluator_bytes(text):
    spec = parse_spec(text)
    p = potential_from_spec(spec)
    assert p.moduli is not None
    rng = np.random.default_rng(7)
    coords = rng.uniform(-0.7, 0.7, size=(20_000, 2 * spec.nvars))
    coords[:50, :2] = 0.0  # a vanishing first coordinate
    coords[50:60] = 0.0
    expected = coordinate_reference(spec)(coords)
    assert p.evaluator(coords).tobytes() == expected.tobytes()
    # the moduli form agrees with it up to rounding, and does not touch its input
    sq = coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2
    before = sq.copy()
    np.testing.assert_allclose(p.moduli(sq), expected, rtol=1e-13)
    np.testing.assert_array_equal(sq, before)


def test_only_potentials_of_the_moduli_carry_the_moduli_form():
    for text in ("ssum(mono:2;mono:3)", "dsum(mono:1;ssum(mono:2;mono:3))"):
        assert potential_from_spec(parse_spec(text)).moduli is None
    assert binomial_family(2, 3)(0.5).moduli is None
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 1, moduli="no")


def test_moduli_sampling_draws_only_the_radii():
    # |z_i|^2 = R_i^2 u with u the first draw of the chunk's generator;
    # the coordinate evaluator is never called
    seen = []

    def moduli(sq):
        seen.append(sq.copy())
        return np.zeros(sq.shape[0])

    def evaluator(coords):
        raise AssertionError("coordinates built")

    p = SampledPotential(evaluator, 2, radius=(0.5, 2.0), moduli=moduli)
    volume._sample_volumes(p, np.array([0.5]), 3000, SEED, 1)
    (child,) = np.random.SeedSequence(SEED).spawn(1)
    u = np.random.Generator(np.random.PCG64(child)).random((3000, 2))
    assert seen[0].tobytes() == (np.array([0.25, 4.0]) * u).tobytes()


@pytest.mark.parametrize("text", MODULI_SPECS)
@pytest.mark.parametrize("radius", [1.0, 0.7, (0.6, 1.3, 0.9, 2.0)])
def test_moduli_sampling_counts_equal_the_coordinate_path(text, radius):
    # the same u draws give the same |z|^2 up to rounding, and so the same
    # counts; the coordinate path of the same evaluator is the reference
    spec = parse_spec(text)
    radius = radius if isinstance(radius, float) else radius[: spec.nvars]
    p = potential_from_spec(spec, radius)
    reference = SampledPotential(p.evaluator, p.dimension, p.radius)
    assert reference.moduli is None
    thresholds = np.log(np.geomspace(0.5, 1e-3, 9) * min(p.radius))
    for seed in (0, 1, SEED):
        counts, volumes, _ = volume._sample_volumes(p, thresholds, 150_000, seed, 2)
        ref_counts, ref_volumes, _ = volume._sample_volumes(reference, thresholds, 150_000, seed, 1)
        np.testing.assert_array_equal(counts, ref_counts)
        assert volumes.tobytes() == ref_volumes.tobytes()
        assert counts[0] > 0


def test_ideal_inside_separated_sum_rejected():
    # a diagonal ideal is not a single function, so it cannot be a
    # summand of a pointwise function sum
    spec = SeparatedSum(Diagonal((2, 3)), PrincipalMonomial((2,)))
    with pytest.raises(InvalidInputError):
        potential_from_spec(spec)


def test_binomial_family():
    family = binomial_family(2, 3)
    p = family(0.5)
    assert p.dimension == 2
    coords = np.array([[0.3, 0.1, 0.2, -0.4]])
    z1, z2 = 0.3 + 0.1j, 0.2 - 0.4j
    np.testing.assert_allclose(
        p.evaluator(coords), [math.log(abs(z1**2 + 0.5 * z2**3))], rtol=1e-12
    )
    for m, p in ((0, 2), (2, 0), (2.5, 2), (2, 2.5), (True, 3), (3, True), ("2", 2)):
        with pytest.raises(InvalidInputError):
            binomial_family(m, p)


# ---------------------------------------------------------------------------
# exponent fits


def test_fit_area_law_exponent():
    # default grid and sample count; the innermost radius may round to a
    # zero count and drop out, the slope must still be the area law
    fit = fit_exponent(monomial_potential([1]))
    assert 0.97 <= fit.fitted_c <= 1.03
    assert fit.fitted_log_power is None
    assert fit.r_squared > 0.98
    assert sum(fit.used_in_fit) >= 11


def test_fit_volumes_exactly_monotone():
    # one common sample set across the grid makes the volume column
    # nonincreasing exactly, not just within noise
    fit = fit_exponent(
        monomial_potential([2, 1]),
        r_min=1e-3,
        r_max=0.2,
        grid_size=10,
        samples=50_000,
        seed=SEED,
    )
    for a, b in zip(fit.volumes, fit.volumes[1:]):
        assert b <= a


def test_fit_with_log_correction_recovers_product_exponent():
    fit = fit_exponent(
        monomial_potential([1, 1]),
        r_min=1e-2,
        r_max=0.2,
        grid_size=10,
        samples=200_000,
        seed=SEED,
        with_log_correction=True,
    )
    assert 0.93 <= fit.fitted_c <= 1.05
    assert fit.fitted_log_power is not None


def test_fit_excludes_zero_count_radii():
    fit = fit_exponent(
        monomial_potential([1]),
        r_min=1e-3,
        r_max=0.5,
        grid_size=6,
        samples=5000,
        seed=SEED,
    )
    assert not all(fit.used_in_fit)
    assert any(fit.used_in_fit)
    # excluded points are exactly the zero-volume ones
    for vol, used in zip(fit.volumes, fit.used_in_fit):
        assert used == (vol > 0)
    assert 0.8 <= fit.fitted_c <= 1.2


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_exponent(zero_potential(), r_min=0.01, r_max=0.5, grid_size=6, samples=1000)


def test_fit_argument_errors():
    p = monomial_potential([1])
    with pytest.raises(InvalidInputError):
        fit_exponent(p, r_min=0.5, r_max=0.1)
    with pytest.raises(InvalidInputError):
        fit_exponent(p, grid_size=3)
    with pytest.raises(InvalidInputError):
        fit_exponent(p, samples=10)
    with pytest.raises(InvalidInputError):
        fit_exponent("nope")


def test_fit_config_fields_are_fit_exponent_keywords():
    # semicontinuity_experiment and the CLI run fit_exponent(p, **vars(config))
    params = list(inspect.signature(fit_exponent).parameters.values())[1:]
    assert {q.name: q.default for q in params} == vars(FitConfig())


def test_fit_serialization():
    fit = fit_exponent(
        monomial_potential([1]),
        r_min=0.05,
        r_max=0.5,
        grid_size=4,
        samples=2000,
        seed=SEED,
    )
    csv = fit.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "r,volume,std_error,used_in_fit"
    assert len(lines) == 5
    assert lines[1].endswith(",true") or lines[1].endswith(",false")
    payload = json.loads(fit.to_json())
    assert payload == fit.to_json_dict()
    assert payload["fitted_c"] == fit.fitted_c
    assert len(payload["grid"]) == 4
    assert set(payload["grid"][0]) == {"r", "volume", "std_error", "used_in_fit"}


def test_exponent_fit_invariants_enforced():
    with pytest.raises(InternalError):
        ExponentFit(
            radii=(0.1, 0.01),
            volumes=(1.0, 5.0),  # grows as r shrinks, far beyond noise
            std_errors=(0.0, 0.0),
            used_in_fit=(True, True),
            fitted_c=1.0,
            fitted_log_power=None,
            intercept=0.0,
            r_squared=1.0,
        )
    with pytest.raises(InternalError):
        ExponentFit(
            radii=(0.01, 0.1),  # must decrease
            volumes=(1.0, 1.0),
            std_errors=(0.0, 0.0),
            used_in_fit=(True, True),
            fitted_c=1.0,
            fitted_log_power=None,
            intercept=0.0,
            r_squared=1.0,
        )


def test_exponent_fit_invariants_survive_optimized_mode():
    # python -O strips assert statements; the invariants must not vanish
    script = """
from lctkit import ExponentFit
from lctkit.errors import InternalError
assert False, "assert statements run, so this is not python -O"
try:
    ExponentFit(radii=(0.01, 0.1), volumes=(1.0, 1.0), std_errors=(0.0, 0.0),
                used_in_fit=(True, True), fitted_c=1.0, fitted_log_power=None,
                intercept=0.0, r_squared=1.0)
except InternalError as exc:
    print("raised:", exc)
"""
    src = str(Path(lctkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised: radii must decrease\n"


# ---------------------------------------------------------------------------
# semicontinuity experiments


SMALL_FIT = FitConfig(
    r_min=5e-3, r_max=0.2, grid_size=8, samples=150_000, seed=SEED, with_log_correction=True
)


def test_semicontinuity_binomial_family():
    report = semicontinuity_experiment(binomial_family(2, 2), [0.0, 0.5], config=SMALL_FIT)
    assert report.t_values == (0.0, 0.5)
    assert report.baseline_c == report.fits[0].fitted_c
    # dev-scale sampling; the full-scale run pins the tight tolerance
    assert abs(report.baseline_c - 0.5) < 0.12
    # c jumps up to min(1, 1/2 + 1/2) = 1 away from t = 0
    assert abs(report.fits[1].fitted_c - 1.0) < 0.12
    assert report.violations == ()
    assert report.entries() == [
        (0.0, report.fits[0].fitted_c),
        (0.5, report.fits[1].fitted_c),
    ]


def test_semicontinuity_constant_family_is_flat():
    def family(t):
        return monomial_potential([1])

    report = semicontinuity_experiment(family, [0.0, 1.0], config=SMALL_FIT)
    assert report.fits[0].fitted_c == report.fits[1].fitted_c
    assert report.violations == ()


def test_semicontinuity_argument_errors():
    fam = binomial_family(2, 2)
    with pytest.raises(InvalidInputError):
        semicontinuity_experiment(fam, [0.5, 1.0], config=SMALL_FIT)  # baseline missing
    with pytest.raises(InvalidInputError):
        semicontinuity_experiment(fam, [], config=SMALL_FIT)
    for tolerance in (-0.1, math.nan, math.inf):
        with pytest.raises(InvalidInputError):
            semicontinuity_experiment(fam, [0.0], config=SMALL_FIT, tolerance=tolerance)
    with pytest.raises(InvalidInputError):
        semicontinuity_experiment("not callable", [0.0])
    with pytest.raises(InvalidInputError):
        semicontinuity_experiment(lambda t: "junk", [0.0], config=SMALL_FIT)
