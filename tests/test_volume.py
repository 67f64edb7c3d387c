"""Monte-Carlo sublevel volumes: closed-form agreement, determinism,
fit behavior, and serialization."""

import dataclasses
import functools
import importlib
import itertools
import json
import math
import operator
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
from lctkit import cli, fano, volume
from lctkit import (
    Diagonal,
    DirectSum,
    ExponentFit,
    PrincipalMonomial,
    SampledPotential,
    SeparatedSum,
    binomial_family,
    estimate_sublevel_volume,
    fit_exponent,
    FitConfig,
    parse_spec,
    potential_from_spec,
    semicontinuity_experiment,
)
from lctkit.errors import InsufficientDataError, InternalError, InvalidInputError, require_real

SEED = 20240915


def zero_potential(n=1):
    return SampledPotential.from_evaluator(lambda coords: np.zeros(coords.shape[0]), n)


# ---------------------------------------------------------------------------
# closed forms


def test_disk_area_law():
    # {log|z| < log r} is the disk of radius r, volume pi r^2
    p = potential_from_spec(PrincipalMonomial((1,)))
    est, err = estimate_sublevel_volume(p, 0.5, samples=200_000, seed=SEED)
    assert type(est) is float and type(err) is float
    assert err > 0
    assert abs(est - math.pi * 0.25) <= 3 * err


def test_bidisk_product_volume():
    # mu({|z1 z2| < r}) on the unit bidisk = pi^2 r^2 (1 + 2 ln(1/r))
    p = potential_from_spec(PrincipalMonomial((1, 1)))
    r = 0.1
    exact = math.pi**2 * r * r * (1 + 2 * math.log(1 / r))
    est, err = estimate_sublevel_volume(p, r, samples=200_000, seed=SEED)
    assert abs(est - exact) <= 3 * err


def test_empty_sublevel_set():
    est, err = estimate_sublevel_volume(zero_potential(), 0.5, samples=1000, seed=SEED)
    assert est == 0.0
    assert err == 0.0


def test_scaled_polydisk_volume():
    p = SampledPotential.from_evaluator(lambda c: np.zeros(c.shape[0]), 2, radius=(2.0, 0.5))
    assert p.polydisk_volume == pytest.approx(math.pi * 4 * math.pi * 0.25)


# ---------------------------------------------------------------------------
# determinism


def test_same_seed_same_answer():
    p = potential_from_spec(PrincipalMonomial((2, 1)))
    a = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=SEED)
    b = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=SEED)
    assert a == b


def test_worker_count_does_not_change_counts():
    p = potential_from_spec(PrincipalMonomial((2, 1)))
    serial = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=1)
    threaded = estimate_sublevel_volume(p, 0.3, samples=300_000, seed=SEED, workers=4)
    assert serial == threaded


def test_worker_count_is_capped_by_the_cpu_count(monkeypatch):
    # a fake pool records its size and runs the chunks on the calling
    # thread, so no thread is started
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(volume, "ThreadPoolExecutor", RecordingPool)
    p = potential_from_spec(PrincipalMonomial((1,)))

    def pool_sizes(workers, chunks=5):
        pools.clear()
        estimate_sublevel_volume(p, 0.3, samples=chunks * volume._CHUNK, seed=SEED, workers=workers)
        return list(pools)

    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert pool_sizes(100_000) == [3]
    assert pool_sizes(2) == [2]
    assert pool_sizes(1) == []  # one worker: the calling thread, no pool
    assert pool_sizes(100_000, chunks=2) == [2]  # at most one worker per chunk
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # count unknown
    assert pool_sizes(100_000) == []


def test_different_seeds_differ():
    p = potential_from_spec(PrincipalMonomial((1,)))
    a, _ = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=1)
    b, _ = estimate_sublevel_volume(p, 0.3, samples=50_000, seed=2)
    assert a != b


# ---------------------------------------------------------------------------
# counting


def broadcast_count(phi, thresholds):
    return (phi[:, None] < thresholds[None, :]).sum(axis=0, dtype=np.int64)


def test_count_below_matches_the_broadcast_compare():
    rng = np.random.default_rng(6)
    # sorted, with a duplicate; the sampler sorts them once per call
    thresholds = np.sort([-1.0, -3.0, 0.5, -3.0, -math.inf, 2.0, -0.25])
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


# sorted, with -inf and a duplicate among them
COUNT_EDGES = np.array([-math.inf, -math.inf, -3.0, -1.0, -1.0, -0.25, 0.5, 2.0])


def count_path_phi(share_below, rng):
    """phi on a block of 2^15 rows, of which about ``share_below`` lie below
    the largest of COUNT_EDGES, with NaN, +-inf, -0.0 and values equal to
    each edge."""
    edges = COUNT_EDGES
    phi = np.where(
        rng.random(1 << 15) < share_below,
        rng.uniform(-4.0, edges[-1], 1 << 15),
        rng.uniform(edges[-1], 5.0, 1 << 15),
    )
    special = np.repeat([math.nan, math.inf, -math.inf, -0.0, 0.0, *edges], 5)
    phi[: special.size] = special
    rng.shuffle(phi)
    return phi


@pytest.mark.parametrize("share_below", [0.98, 0.003])
def test_count_below_matches_the_broadcast_compare_on_either_path(share_below):
    # nearly every row below the largest edge takes one compare pass per
    # edge, almost none the compress, searchsorted and bincount
    phi = count_path_phi(share_below, np.random.default_rng(11))
    edges = COUNT_EDGES
    below = np.count_nonzero(phi < edges[-1])
    dense = below * volume._PASS_ROWS_PER_ROW_BELOW > edges.size * (
        phi.size + volume._PASS_FIXED_ROWS
    )
    assert dense == (share_below > 0.5)
    counts = volume._count_below(phi, edges)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, broadcast_count(phi, edges))
    assert counts[0] == counts[1] == 0 and counts[-1] == below


floats = st.floats(allow_nan=True, allow_infinity=True, width=64)


@given(
    st.lists(floats, max_size=60),
    st.lists(st.floats(allow_nan=False, allow_infinity=True), min_size=1, max_size=12),
)
def test_count_below_matches_the_broadcast_compare_property(phi, thresholds):
    phi, thresholds = np.array(phi, dtype=float), np.sort(np.array(thresholds, dtype=float))
    # phi values drawn from the thresholds too, so that ties are common
    phi = np.concatenate([phi, thresholds[::2]])
    np.testing.assert_array_equal(
        volume._count_below(phi, thresholds), broadcast_count(phi, thresholds)
    )


# ---------------------------------------------------------------------------
# argument validation


def test_estimate_argument_errors():
    p = potential_from_spec(PrincipalMonomial((1,)))
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
    with pytest.raises(InvalidInputError, match="^expected a SampledPotential$"):
        estimate_sublevel_volume("x", 0.5)


def test_chunk_budget_is_checked_before_any_draw():
    calls = []

    def evaluator(coords):
        calls.append(coords.shape)
        return np.zeros(coords.shape[0])

    # 2^17 samples x 32 bytes x 32 variables and one radius pass 128 MiB
    with pytest.raises(InvalidInputError, match="MiB"):
        estimate_sublevel_volume(SampledPotential.from_evaluator(evaluator, 32), 0.5, samples=10**6)
    with pytest.raises(InvalidInputError, match="MiB"):
        fit_exponent(SampledPotential.from_evaluator(evaluator, 2), grid_size=245761)
    assert calls == []
    # 2^17 x 32 x 2 bytes of draws + 245760 radii x 512 bytes is exactly the budget
    volume._require_chunk_budget(SampledPotential.from_evaluator(evaluator, 2), 245760)
    volume._require_chunk_budget(SampledPotential.from_evaluator(evaluator, 31), 8192)
    with pytest.raises(InvalidInputError, match="MiB"):
        volume._require_chunk_budget(SampledPotential.from_evaluator(evaluator, 31), 8193)
    # a potential of the moduli is charged 16 bytes per sample and variable
    moduli = SampledPotential(lambda sq, theta: sq[:, 0], 63, angles=False)
    volume._require_chunk_budget(moduli, 4096)
    with pytest.raises(InvalidInputError, match="MiB"):
        volume._require_chunk_budget(moduli, 4097)
    # the compare that once took 1 byte per sample and radius is gone: 993 radii fit
    p = potential_from_spec(PrincipalMonomial((1,)))
    fit = fit_exponent(p, r_min=0.3, r_max=0.9, grid_size=993, samples=1000)
    assert len(fit.radii) == 993


def test_chunk_budget_charges_the_largest_chunk_drawn():
    # 33 variables with angles are charged 32 bytes per sample and variable
    # at a full 2^17-sample chunk, 138 MB; a 20000-sample chunk is shorter
    # than a row block, so each of its samples is charged 16 bytes of draws
    # and 64 of evaluation: 52.8 MB
    p = potential_from_spec(parse_spec("ssum(mono:1;" * 32 + "mono:1" + ")" * 32))
    assert p.angles and p.dimension == 33
    volume._require_chunk_budget(p, 12, 20000)
    with pytest.raises(InvalidInputError, match="131072-sample chunk"):
        volume._require_chunk_budget(p, 12, 10**6)
    with pytest.raises(InvalidInputError, match="131072-sample chunk"):
        estimate_sublevel_volume(p, 0.5)
    # the sample count is the FitConfig's to check, before the budget
    with pytest.raises(InvalidInputError, match="at least 1000 samples"):
        estimate_sublevel_volume(p, 0.5, samples=999)


def chunk_peak(p, thresholds, samples=volume._CHUNK):
    """tracemalloc's peak while one chunk of the samples is drawn and counted."""
    volume._sample_group([p], thresholds, 2000, SEED, 1)  # first-call allocations
    tracemalloc.start()
    try:
        volume._sample_group([p], thresholds, samples, SEED, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def charged_potentials():
    """Potentials of every sampling form, for the chunk charge and the row blocks."""
    return [potential_from_spec(parse_spec(text)) for text in (
        "mono:1", "mono:1,0", "mono:2,1", "mono:1,0,0,0", "diag:2,3",
        "dsum(mono:2,1;diag:2,3)",
        "ssum(mono:1;mono:1)", "ssum(mono:3;mono:1,0)", "ssum(mono:1;ssum(mono:1;mono:1))",
        "ssum(ssum(mono:1;mono:1);ssum(mono:1;mono:1))", "dsum(ssum(mono:1;mono:1);diag:2,3)",
        # 31 variables; once 4262 bytes per sample, when every level copied its right block
        "dsum(mono:1;" * 30 + "mono:1" + ")" * 30,
        "ssum(mono:2;mono:3)", "ssum(mono:1,1;mono:3)",
        "ssum(mono:2;ssum(mono:3;mono:0,5))", "dsum(mono:1;ssum(mono:2;mono:3))",
    )] + [
        binomial_family(2, 3)(1.0), binomial_family(2, 3)(-0.5), binomial_family(2, 3)(0.0),
        # the coordinate form of a polar potential
        SampledPotential.from_evaluator(coordinate_reference(parse_spec("ssum(mono:1;mono:1)")), 2),
        zero_potential(1), zero_potential(3),
    ]


# the fit grid, and a grid whose largest threshold, log 0.999, leaves nearly
# every row of a two-term separated sum to its floor's gather and to phi
CHARGED_GRIDS = [np.log(np.geomspace(1e-3, 1e-1, 12)), np.log(np.geomspace(1e-3, 0.999, 12))]


def test_chunk_charge_is_what_one_chunk_takes():
    potentials = charged_potentials()
    worst = {volume._COORDINATE_BYTES: 0.0, volume._MODULI_BYTES: 0.0}
    for p, thresholds in itertools.product(potentials, CHARGED_GRIDS):
        per_variable = volume._COORDINATE_BYTES if p.angles else volume._MODULI_BYTES
        peak = chunk_peak(p, thresholds)
        charge = volume._CHUNK * per_variable * p.dimension + thresholds.size * volume._RADIUS_BYTES
        assert peak <= charge
        worst[per_variable] = max(worst[per_variable], peak / (volume._CHUNK * p.dimension))
    # each path's charge is its worst measured case rounded up: 30.0 bytes per
    # sample and variable for the coordinate form of ssum(mono:1;mono:1), 14.0
    # for mono:1 on the grid to 0.999; the polar forms of separated sums take
    # 19.0-25.0, the most for a binomial on the grid to 0.999
    assert volume._COORDINATE_BYTES - 8 < worst[volume._COORDINATE_BYTES]
    assert volume._MODULI_BYTES - 8 < worst[volume._MODULI_BYTES]


def test_chunk_charge_covers_a_chunk_no_longer_than_a_block():
    # a full chunk's charge is per_variable bytes per sample and variable;
    # a chunk of one block evaluates every row at once, which the draws'
    # share of that charge alone would not cover
    worst = {volume._COORDINATE_BYTES: 0.0, volume._MODULI_BYTES: 0.0}
    for p, thresholds in itertools.product(charged_potentials(), CHARGED_GRIDS):
        per_variable = volume._COORDINATE_BYTES if p.angles else volume._MODULI_BYTES
        assert volume._chunk_charge(p, 10**6) == volume._CHUNK * per_variable * p.dimension
        peak = chunk_peak(p, thresholds, volume._BLOCK)
        charge = volume._chunk_charge(p, volume._BLOCK) + thresholds.size * volume._RADIUS_BYTES
        assert peak <= charge
        worst[per_variable] = max(worst[per_variable], peak / (volume._BLOCK * p.dimension))
    # 72.1 bytes per sample and variable for the coordinate form, 32.1 for mono:1
    # on the grid to 0.999; a binomial's polar form takes 52.1 there
    assert worst[volume._COORDINATE_BYTES] > 2 * volume._COORDINATE_BYTES
    assert worst[volume._MODULI_BYTES] > volume._MODULI_BYTES


def whole_chunk_counts(p, thresholds, samples, seed):
    """The counts of a potential drawn chunk by chunk as the sampler draws,
    with phi evaluated on each whole chunk at once and counted by the
    broadcast compare."""
    sizes = [volume._CHUNK] * (samples // volume._CHUNK) + [samples % volume._CHUNK] * (
        samples % volume._CHUNK > 0
    )
    counts = np.zeros(thresholds.size, dtype=np.int64)
    for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        rng = np.random.Generator(np.random.PCG64(child))
        sq = rng.random((size, p.dimension)) * np.square(p.radius)
        sq.flags.writeable = False
        theta = None
        if p.angles:
            theta = rng.random((size, p.dimension)) * (2.0 * np.pi)
            theta.flags.writeable = False
        counts += broadcast_count(p.phi(sq, theta), thresholds)
    return counts


@pytest.mark.parametrize("samples", [2000, volume._CHUNK, 3 * volume._CHUNK + 777, 300_001])
def test_row_block_counts_equal_whole_chunk_counts(samples):
    # 2000 samples are one chunk shorter than a block; 3 * 2^17 + 777 end in
    # a short chunk whose last block is short too, and 300001 in a chunk of
    # one full block and a short one (37857 = 2^15 + 5089).  The thresholds are
    # unsorted, with a duplicate; log 2 counts the zero potentials, and log 20
    # the sum of 31 moduli.
    thresholds = np.log([0.3, 0.01, 2.0, 0.1, 20.0, 0.01, 0.002, 0.05])
    for p in charged_potentials():
        expected = whole_chunk_counts(p, thresholds, samples, SEED)
        assert expected.any()
        for workers in (1, 2):
            ((counts, _, _),) = volume._sample_group([p], thresholds, samples, SEED, workers)
            np.testing.assert_array_equal(counts, expected)


def test_semicontinuity_charges_the_rows_of_every_fit():
    calls = []

    def family(t):
        def evaluator(coords):
            calls.append(t)
            return np.zeros(coords.shape[0])

        return SampledPotential.from_evaluator(evaluator, 2)

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
        estimate_sublevel_volume(
            potential_from_spec(PrincipalMonomial((1,))), 0.5, samples=limit + 1
        )
    with pytest.raises(InvalidInputError, match="at most"):
        fit_exponent(potential_from_spec(PrincipalMonomial((1,))), samples=10**12)


def test_potential_validation():
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 0)
    with pytest.raises(InvalidInputError):
        SampledPotential("no", 1)
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 2, radius=(1.0, 2.0, 3.0))
    with pytest.raises(InvalidInputError):
        SampledPotential(lambda c: c, 1, radius=(0.0,))
    with pytest.raises(InvalidInputError, match="phi must be callable"):
        SampledPotential(None, 1)
    for angles in ("no", 1, None):
        with pytest.raises(InvalidInputError, match="angles must be True or False"):
            SampledPotential(lambda sq, theta: sq[:, 0], 1, angles=angles)
    for floor in ("no", 1.0, np.zeros(3)):
        with pytest.raises(InvalidInputError, match="floor must be callable or None"):
            SampledPotential(lambda sq, theta: sq[:, 0], 1, floor=floor)
    with pytest.raises(InvalidInputError, match="evaluator must be callable"):
        SampledPotential.from_evaluator("no", 1)
    with pytest.raises(InvalidInputError):
        SampledPotential.from_evaluator(lambda c: c, 0)


def test_ints_too_long_to_print_are_refused_by_size():
    # Python refuses to repr an int of more than 4300 digits
    calls = [
        (lambda: FitConfig(workers=-(10**5000)), "workers"),
        (lambda: binomial_family(-(10**5000), 2), "exponent m"),
        (lambda: fano.WeightSystem((1, 1, 1, -(10**5000)), 3), "weights"),
    ]
    for call, name in calls:
        with pytest.raises(InvalidInputError, match=f"{name}.*a negative integer of 16610 bits"):
            call()


def test_require_real_refuses_what_is_not_strictly_between_its_bounds():
    assert require_real(2, "{value!r}") == 2.0
    assert require_real(0.5, "{value!r}", 0.0, 1.0) == 0.5
    refused = [
        (0.0, "0.0"), (1, "1"), (math.nan, "nan"), (10**400, "inf"), (-(10**400), "-inf"),
        (True, "True"), ("0.5", "'0.5'"), (None, "None"),
    ]
    for value, shown in refused:
        with pytest.raises(InvalidInputError, match=f"^got {shown}$"):
            require_real(value, "got {value!r}", 0.0, 1.0)
    for value in (math.inf, -math.inf, math.nan):  # the default bounds
        with pytest.raises(InvalidInputError):
            require_real(value, "got {value!r}")


def test_evaluator_shape_is_checked():
    bad = SampledPotential.from_evaluator(lambda coords: np.zeros((coords.shape[0], 2)), 1)
    with pytest.raises(InvalidInputError, match=r"shape \(1000, 2\) on 1000 rows"):
        estimate_sublevel_volume(bad, 0.5, samples=1000, seed=SEED)
    # phi sees one row block of a chunk at a time, not the whole chunk
    whole_chunk = SampledPotential(lambda sq, theta: np.zeros(volume._CHUNK), 1, angles=False)
    with pytest.raises(InvalidInputError, match=r"\(131072,\) on 32768 rows, expected \(32768,\)"):
        estimate_sublevel_volume(whole_chunk, 0.5, samples=volume._CHUNK, seed=SEED)
    # so is a floor's, and phi's on the rows that the floor keeps
    for floor in (lambda sq: np.zeros((sq.shape[0], 1)), lambda sq: np.zeros(volume._CHUNK)):
        bad = SampledPotential(whole_chunk.phi, 1, angles=False, floor=floor)
        with pytest.raises(InvalidInputError, match=r"floor returned shape .* on 32768 rows"):
            estimate_sublevel_volume(bad, 0.5, samples=volume._CHUNK, seed=SEED)
    kept = SampledPotential(
        lambda sq, theta: np.zeros(sq.shape[0]), 1, angles=False,
        floor=lambda sq: np.where(sq[:, 0] < 0.5, -np.inf, 0.0),
    )
    estimate_sublevel_volume(kept, 0.5, samples=volume._CHUNK, seed=SEED)
    whole_block = dataclasses.replace(kept, phi=lambda sq, theta: np.zeros(volume._BLOCK))
    with pytest.raises(InvalidInputError, match=r"phi returned shape \(32768,\) on 1[0-9]{4} rows"):
        estimate_sublevel_volume(whole_block, 0.5, samples=volume._CHUNK, seed=SEED)


def test_sampling_passes_its_arrays_read_only():
    # every potential counted on a chunk reads the same array
    seen = []

    def evaluator(coords):
        seen.append(coords.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            coords[0, 0] = 0.0
        return np.zeros(coords.shape[0])

    def moduli(sq, theta):
        seen.append(sq.flags.writeable)
        assert theta is None
        return np.zeros(sq.shape[0])

    def polar(sq, theta):
        seen.extend([sq.flags.writeable, theta.flags.writeable])
        return np.zeros(sq.shape[0])

    with_coordinates = SampledPotential.from_evaluator(evaluator, 2)
    estimate_sublevel_volume(with_coordinates, 0.5, samples=1000, seed=SEED)
    with_moduli = SampledPotential(moduli, 2, angles=False)
    estimate_sublevel_volume(with_moduli, 0.5, samples=1000, seed=SEED)
    with_polar = SampledPotential(polar, 2)
    estimate_sublevel_volume(with_polar, 0.5, samples=1000, seed=SEED)
    # a potential of the moduli gets no angles on a chunk that has them
    volume._sample_group([with_moduli, with_polar], np.array([0.5]), 1000, SEED, 1)
    assert seen == [False] * 7

    # a floor reads the block's squared moduli, and phi its gathered rows
    def floor(sq):
        seen.append(sq.flags.writeable)
        return np.where(sq[:, 0] < 0.5, -np.inf, np.inf)

    def gathered(sq, theta):
        seen.extend([sq.flags.writeable, theta.flags.writeable, sq.flags.owndata])
        assert (sq[:, 0] < 0.5).all()
        return np.zeros(sq.shape[0])

    estimate_sublevel_volume(SampledPotential(gathered, 2, floor=floor), 0.5, samples=1000, seed=SEED)
    assert seen[7:] == [False, False, False, True]


# ---------------------------------------------------------------------------
# spec-derived potentials


def sample_coords(n, rng):
    return rng.uniform(-0.7, 0.7, size=(64, 2 * n))


def test_monomial_potential_matches_closed_form():
    rng = np.random.default_rng(0)
    coords = sample_coords(3, rng)
    p = potential_from_spec(PrincipalMonomial((2, 0, 1)))
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
    p = potential_from_spec(Diagonal((2, 3)))
    z = coords[:, 0::2] + 1j * coords[:, 1::2]
    expected = np.log(np.abs(z[:, 0]) ** 2 + np.abs(z[:, 1]) ** 3)
    np.testing.assert_allclose(p.evaluator(coords), expected, rtol=1e-12)


@pytest.mark.parametrize("spec", ["mono:1", 42, None])
def test_potential_from_spec_refuses_a_non_spec(spec):
    with pytest.raises(InvalidInputError, match="expected a monomial ideal spec"):
        potential_from_spec(spec)


@pytest.mark.parametrize(
    "call",
    [
        lambda n: potential_from_spec(parse_spec(f"mono:{n}")),
        lambda n: potential_from_spec(parse_spec(f"diag:1,{n}")),
        lambda n: potential_from_spec(parse_spec(f"ssum(mono:1;mono:{n})")),
        lambda n: potential_from_spec(parse_spec(f"ssum(mono:1;ssum(mono:1;mono:{n}))")),
        lambda n: binomial_family(n, 1),
        lambda n: binomial_family(1, n),
    ],
    ids=["mono", "diag", "ssum", "ssum-3", "family-m", "family-p"],
)
def test_exponents_past_the_float_range_are_refused_before_any_draw(monkeypatch, call):
    built = counted_generators(monkeypatch)
    with pytest.raises(InvalidInputError, match="exponents must fit a float, got inf"):
        call(10**400)
    assert built == []


def test_potential_from_spec_dispatch():
    rng = np.random.default_rng(2)
    coords = sample_coords(2, rng)
    np.testing.assert_array_equal(
        potential_from_spec(parse_spec("mono:2,1")).evaluator(coords),
        potential_from_spec(PrincipalMonomial((2, 1))).evaluator(coords),
    )
    np.testing.assert_array_equal(
        potential_from_spec(parse_spec("diag:2,3")).evaluator(coords),
        potential_from_spec(Diagonal((2, 3))).evaluator(coords),
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
    left = potential_from_spec(Diagonal((2,))).evaluator(coords[:, :2])
    right = potential_from_spec(Diagonal((3,))).evaluator(coords[:, 2:])
    np.testing.assert_allclose(p.evaluator(coords), np.logaddexp(left, right), rtol=1e-12)


def complex_function(spec, offset):
    """The holomorphic function a separated sum of principal monomials
    denotes, on the complex coordinates of a variable block starting at
    ``offset``."""
    if isinstance(spec, PrincipalMonomial):
        exps = spec.exponents

        def fn(z):
            out = np.ones(z.shape[0], dtype=complex)
            for i, e in enumerate(exps):
                if e:
                    out = out * z[:, offset + i] ** e
            return out

        return fn
    left = complex_function(spec.left, offset)
    right = complex_function(spec.right, offset + spec.left.nvars)
    return lambda z: left(z) + right(z)


def log_modulus(fn):
    """The evaluator log|f| on interleaved coordinates of a holomorphic
    function ``fn`` of the (N, n) complex coordinates."""

    def evaluator(coords):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(fn(coords[:, 0::2] + 1j * coords[:, 1::2])))

    return evaluator


def family_reference(m, p, t):
    """log|z1^m + t z2^p| on interleaved coordinates."""
    return log_modulus(lambda z: z[:, 0] ** m + t * z[:, 1] ** p)


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
    """The potential of a spec on interleaved coordinates, written per
    coordinate block straight from its definition: a separated sum is the
    log-modulus of its complex function, and a spec of the moduli is in
    the numpy operations that its moduli form must reproduce bit for bit."""
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
    if isinstance(spec, SeparatedSum):
        return log_modulus(complex_function(spec, 0))
    left, right = coordinate_reference(spec.left), coordinate_reference(spec.right)
    off = 2 * spec.left.nvars
    return lambda coords: np.logaddexp(left(coords[:, :off]), right(coords[:, off:]))


def generator_rows(spec):
    """The exponent rows of the generators of a spec of the moduli, over all
    its variables: a monomial's exponents, a diagonal's pure powers, and a
    direct sum's blocks' rows, padded with zeros."""
    if isinstance(spec, PrincipalMonomial):
        return [list(spec.exponents)]
    if isinstance(spec, Diagonal):
        return [[m if i == j else 0 for i in range(spec.nvars)] for j, m in enumerate(spec.orders)]
    left, right = generator_rows(spec.left), generator_rows(spec.right)
    return [row + [0] * spec.right.nvars for row in left] + [
        [0] * spec.left.nvars + row for row in right
    ]


def log_sum_exp_reference(spec):
    """log sum_j |g_j| of a spec of the moduli on its squared moduli, over its
    generators g_j, in the operations that its moduli form must reproduce
    bit for bit: l_j adds alpha_ji/2 log|z_i|^2 over the nonzero exponents in
    column order, and phi is the largest l_j plus the log of the sum of the
    exp(l_j - l), added in order.  A monomial is its one l_j."""
    rows = generator_rows(spec)

    def reference(sq):
        with np.errstate(divide="ignore"):
            log_sq = np.log(sq)
        logs = np.array([
            functools.reduce(operator.add, [a / 2.0 * log_sq[:, i] for i, a in enumerate(row) if a])
            for row in rows
        ])
        big = logs.max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = big + np.log(sum(np.exp(log_j - big) for log_j in logs))
        phi[np.isneginf(big)] = -np.inf  # every generator vanishes
        return phi

    return reference


@pytest.mark.parametrize("text", MODULI_SPECS)
def test_moduli_form_keeps_the_coordinate_evaluator_bytes(text):
    spec = parse_spec(text)
    p = potential_from_spec(spec)
    assert not p.angles
    rng = np.random.default_rng(7)
    coords = rng.uniform(-0.7, 0.7, size=(20_000, 2 * spec.nvars))
    coords[:50, :2] = 0.0  # a vanishing first coordinate
    coords[50:60] = 0.0
    if isinstance(spec, PrincipalMonomial):
        expected = coordinate_reference(spec)(coords)
    else:
        expected = log_sum_exp_reference(spec)(coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2)
    assert p.evaluator(coords).tobytes() == expected.tobytes()
    # it agrees with the powers added by np.sum and joined by np.logaddexp up
    # to rounding, about 3 times the largest difference seen
    np.testing.assert_allclose(expected, coordinate_reference(spec)(coords), rtol=0, atol=1e-14)
    # the moduli form agrees with it up to rounding, and does not touch its input
    sq = coords[:, 0::2] ** 2 + coords[:, 1::2] ** 2
    before = sq.copy()
    np.testing.assert_allclose(p.phi(sq, None), expected, rtol=1e-13)
    np.testing.assert_array_equal(sq, before)


DIAGONAL_WIDTHS = [*range(1, 21), 64, 129, 200]


@pytest.mark.parametrize("width", DIAGONAL_WIDTHS)
def test_diagonal_form_keeps_the_bytes_of_its_row_sum(width):
    orders = (1, 2, 4, 3, 7)
    rng = np.random.default_rng(width)
    wide = rng.random((2000 if width <= 20 else 200, width + 2))
    wide[:20, 1] = 0.0  # a vanishing coordinate
    wide[20:30] = 0.0  # a vanishing point, where phi is -inf
    wide.flags.writeable = False
    for shift in range(4):
        spec = Diagonal(tuple(orders[(i + shift) % len(orders)] for i in range(width)))
        p = potential_from_spec(spec)
        # a contiguous block, and a column view of a wider one, as a direct sum passes it
        view = wide[:, 1 : width + 1]
        contiguous = np.ascontiguousarray(view)
        expected = log_sum_exp_reference(spec)(contiguous)
        assert np.isneginf(expected[20:30]).all()
        assert p.phi(contiguous, None).tobytes() == expected.tobytes()
        assert p.phi(view, None).tobytes() == expected.tobytes()


def test_only_potentials_of_the_moduli_carry_the_moduli_form():
    for text in ("ssum(mono:2;mono:3)", "dsum(mono:1;ssum(mono:2;mono:3))"):
        assert potential_from_spec(parse_spec(text)).angles
    assert not any(potential_from_spec(parse_spec(text)).angles for text in MODULI_SPECS)
    assert binomial_family(2, 3)(0.5).angles
    assert not binomial_family(2, 3)(0.0).angles  # z1^2 alone
    assert SampledPotential.from_evaluator(lambda c: c[:, 0], 1).angles


def test_moduli_sampling_draws_only_the_radii():
    # |z_i|^2 = R_i^2 u with u the first draw of the chunk's generator;
    # no angles are passed
    seen = []

    def moduli(sq, theta):
        assert theta is None
        seen.append(sq.copy())
        return np.zeros(sq.shape[0])

    p = SampledPotential(moduli, 2, radius=(0.5, 2.0), angles=False)
    volume._sample_group([p], np.array([0.5]), 3000, SEED, 1)
    (child,) = np.random.SeedSequence(SEED).spawn(1)
    u = np.random.Generator(np.random.PCG64(child)).random((3000, 2))
    assert seen[0].tobytes() == (np.array([0.25, 4.0]) * u).tobytes()


def assert_counts_equal_the_coordinate_path(p, evaluator, workers):
    # the same draws give the same |z|^2 and angles, and the coordinates up to
    # rounding, so the same counts; the coordinate form of the reference
    # evaluator is the reference
    reference = SampledPotential.from_evaluator(evaluator, p.dimension, p.radius)
    assert reference.angles
    thresholds = np.log(np.geomspace(0.5, 1e-3, 9) * min(p.radius))
    for seed in (0, 1, SEED):
        ((counts, volumes, _),) = volume._sample_group([p], thresholds, 150_000, seed, workers)
        ((ref_counts, ref_volumes, _),) = volume._sample_group(
            [reference], thresholds, 150_000, seed, 1
        )
        np.testing.assert_array_equal(counts, ref_counts)
        assert volumes.tobytes() == ref_volumes.tobytes()
        assert counts[0] > 0


@pytest.mark.parametrize("text", MODULI_SPECS)
@pytest.mark.parametrize("radius", [1.0, 0.7, (0.6, 1.3, 0.9, 2.0)])
def test_moduli_sampling_counts_equal_the_coordinate_path(text, radius):
    spec = parse_spec(text)
    radius = radius if isinstance(radius, float) else radius[: spec.nvars]
    assert_counts_equal_the_coordinate_path(
        potential_from_spec(spec, radius), coordinate_reference(spec), 2
    )


def polar_points(n, rng):
    """Squared moduli and angles of 20000 points of the unit polydisk, with
    a vanishing first coordinate, a vanishing last one, a vanishing point,
    and z1 = z2, an exact zero of z1^m - z2^m where the evaluator is -inf."""
    sq = rng.random((20_000, n))
    theta = (2.0 * np.pi) * rng.random((20_000, n))
    sq[:50, 0] = 0.0
    sq[50:100, -1] = 0.0
    sq[100:110] = 0.0
    sq[110:130, 1] = sq[110:130, 0]
    theta[110:130, 1] = theta[110:130, 0]
    return sq, theta


def family_member(m, p, t):
    return binomial_family(m, p)(t), family_reference(m, p, t)


def spec_member(text):
    spec = parse_spec(text)
    return potential_from_spec(spec), coordinate_reference(spec)


# separated sums of 3 and 4 terms, and one inside a direct sum
LONG_SUMS = [
    "ssum(mono:1;ssum(mono:1;mono:2))",
    "ssum(ssum(mono:1;mono:1);ssum(mono:1;mono:1))",
    "ssum(mono:2;ssum(mono:3;mono:0,5))",
    "dsum(mono:1;ssum(mono:2;mono:3))",
]

POLAR_MEMBERS = [
    *(pytest.param(lambda t=t: family_member(2, 2, t), id=f"family(2,2)({t})")
      for t in (-1.0, 0.1, 2.0)),
    *(pytest.param(lambda t=t: family_member(2, 3, t), id=f"family(2,3)({t})")
      for t in (-0.5, 1.0)),
    *(pytest.param(lambda text=text: spec_member(text), id=text)
      for text in ("ssum(mono:2;mono:3)", "ssum(mono:1,1;mono:3)", "ssum(mono:2,0;mono:0,1)",
                   *LONG_SUMS)),
]


@pytest.mark.parametrize("make", POLAR_MEMBERS)
def test_polar_form_matches_the_evaluator_pointwise(make):
    p, reference = make()
    assert p.angles
    sq, theta = polar_points(p.dimension, np.random.default_rng(8))
    sq.flags.writeable = theta.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = p.phi(sq, theta)
    expected = SampledPotential.from_evaluator(reference, p.dimension).phi(sq, theta)
    assert not np.isnan(phi).any()
    # log|f| near 0 has no relative precision to speak of; the evaluator's
    # own error there is about 1e-16
    np.testing.assert_allclose(phi, expected, rtol=1e-12, atol=1e-14)
    assert np.isneginf(phi[100:110]).all()


def test_family_baseline_is_the_monomial_and_draws_no_angles(monkeypatch):
    family = binomial_family(3, 2)
    assert not family(0.0).angles
    sq, theta = polar_points(2, np.random.default_rng(10))
    expected = SampledPotential.from_evaluator(family_reference(3, 2, 0.0), 2).phi(sq, theta)
    np.testing.assert_allclose(family(0.0).phi(sq, None), expected, rtol=1e-12, atol=1e-14)

    def no_trig(*_, **__):
        raise AssertionError("trig called")

    monkeypatch.setattr(np, "cos", no_trig)
    monkeypatch.setattr(np, "sin", no_trig)
    estimate_sublevel_volume(family(0.0), 0.5, samples=1000, seed=SEED)
    estimate_sublevel_volume(family(-0.0), 0.5, samples=1000, seed=SEED)


@pytest.mark.parametrize("m, p", [(2, 3), (3, 2), (5, 1)])
def test_family_baseline_is_the_potential_of_mono_m_0(m, p):
    baseline = binomial_family(m, p)(0.0)
    spec_potential = potential_from_spec(PrincipalMonomial((m, 0)))
    assert (baseline.dimension, baseline.radius, baseline.angles) == (2, (1.0, 1.0), False)
    # with a vanishing first coordinate, a vanishing second one and a vanishing point
    sq, _ = polar_points(2, np.random.default_rng(11))
    sq.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi = baseline.phi(sq, None)
    assert phi.tobytes() == spec_potential.phi(sq, None).tobytes()
    with np.errstate(divide="ignore"):
        np.testing.assert_allclose(phi, 0.5 * m * np.log(sq[:, 0]), rtol=1e-15)
    assert np.isneginf(phi[:50]).all() and np.isfinite(phi[50:100]).all()


@pytest.mark.parametrize("m, p", [(2, 3), (5, 5), (1, 4)])
def test_family_at_t_1_is_the_potential_of_the_separated_sum(m, p):
    # both read the exponent rows (m, 0) and (0, p)
    member = binomial_family(m, p)(1.0)
    spec_potential = potential_from_spec(parse_spec(f"ssum(mono:{m};mono:{p})"))
    sq, theta = polar_points(2, np.random.default_rng(12))
    sq.flags.writeable = theta.flags.writeable = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phi, floor = member.phi(sq, theta), member.floor(sq)
    assert phi.tobytes() == spec_potential.phi(sq, theta).tobytes()
    assert floor.tobytes() == spec_potential.floor(sq).tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_family_baseline_counts_are_those_of_mono_m_0(workers):
    config = FitConfig(samples=300_001, seed=SEED, workers=workers)
    family_fit = fit_exponent(binomial_family(2, 3)(0.0), **vars(config))
    spec_fit = fit_exponent(potential_from_spec(PrincipalMonomial((2, 0))), **vars(config))
    assert family_fit == spec_fit


@pytest.mark.parametrize("t", [-1.0, -0.5, 0.0, 0.1, 1.0, 2.0])
@pytest.mark.parametrize("workers", [1, 2])
def test_family_counts_equal_the_coordinate_path(t, workers):
    assert_counts_equal_the_coordinate_path(
        binomial_family(2, 3)(t), family_reference(2, 3, t), workers
    )


@pytest.mark.parametrize("text", ["ssum(mono:2;mono:3)", "ssum(mono:1,1;mono:3)", *LONG_SUMS])
@pytest.mark.parametrize("radius", [1.0, 0.7, (0.6, 1.3, 0.9, 2.0)])
@pytest.mark.parametrize("workers", [1, 2])
def test_polar_sampling_counts_equal_the_coordinate_path(text, radius, workers):
    spec = parse_spec(text)
    radius = radius if isinstance(radius, float) else radius[: spec.nvars]
    p = potential_from_spec(spec, radius)
    assert p.angles
    assert_counts_equal_the_coordinate_path(p, coordinate_reference(spec), workers)


# diagonals of two or more columns, with orders whose scalar exponent numpy
# runs as sqrt and a square, and one of 9 columns summed in pairwise order
FLOORED_DIAGONALS = ["diag:2,3", "diag:1,4,2,5", "diag:8,8,8,8,8,8,8,8,9"]

FLOORED = [
    *(pytest.param(lambda m=m, p=p, t=t: binomial_family(m, p)(t), id=f"family({m},{p})({t})")
      for m, p in [(2, 2), (5, 5), (5, 3), (1, 5)]
      for t in (1.0, -1.0, -0.5, 0.1, 1e-6, -1e-6, 1e6, -1e6)),
    *(pytest.param(lambda text=text: potential_from_spec(parse_spec(text)), id=text)
      for text in ("ssum(mono:2;mono:3)", "ssum(mono:1,1;mono:3)", "ssum(mono:5;mono:0,5)",
                   "dsum(mono:1;ssum(mono:2;mono:3))", *FLOORED_DIAGONALS)),
]


@pytest.mark.parametrize("make", FLOORED)
def test_floor_is_below_phi_pointwise(make):
    p = make()
    assert p.floor is not None
    for seed in (8, 9):
        # vanishing coordinates, a vanishing point, and z1 = z2: a = b exactly at |c| = 1
        sq, theta = polar_points(p.dimension, np.random.default_rng(seed))
        sq.flags.writeable = theta.flags.writeable = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, phi = p.floor(sq), p.phi(sq, theta)
        assert floor.shape == phi.shape and not np.isnan(floor).any()
        vanishing = np.isneginf(phi)
        assert vanishing[100:110].all() and np.isneginf(floor[vanishing]).all()
        # the floor shares phi's operations up to the last few, whose rounding
        # is a few units in the last place, far below the sampler's 1e-9 margin
        assert (floor[~vanishing] <= phi[~vanishing] + 1e-12).all()
        if p.dimension == 2:
            # and a binomial's floor bounds something: a fifth of the rows clear log 0.1
            assert (floor >= np.log(0.1)).mean() > 0.2


MODULI_DSUMS = [text for text in MODULI_SPECS if text.startswith("dsum")]

# every direct sum of MODULI_SPECS, and one with a separated sum of two monomials
FLOORED_DSUMS = [*MODULI_DSUMS, "dsum(mono:1;ssum(mono:2;mono:3))"]


def test_direct_sums_and_two_term_separated_sums_carry_a_floor():
    # a direct sum is bounded by the floors of its children, and by the phi
    # of those that read no angles; a diagonal of two or more columns by its
    # largest term
    for text in ("ssum(mono:2;mono:3)", *FLOORED_DSUMS, *FLOORED_DIAGONALS):
        assert potential_from_spec(parse_spec(text)).floor is not None
    # sums of three or more terms, monomials, a diagonal of one column, a
    # direct sum of neither, and the family's t = 0 member are evaluated on
    # every row
    assert binomial_family(2, 3)(0.0).floor is None
    none = "dsum(ssum(mono:1;ssum(mono:1;mono:2));ssum(mono:1;ssum(mono:1;mono:1)))"
    leaves = [t for t in MODULI_SPECS if t.startswith("mono")]
    for text in (*leaves, "diag:2", "diag:7", *LONG_SUMS[:3], none):
        assert potential_from_spec(parse_spec(text)).floor is None


def diagonal_floor_points(half, rng):
    """Squared moduli of 20000 points per diagonal with exponents ``half``:
    on a polydisk of radius 2, on one of radius 1e150, where large powers
    pass the float range, and where every power |z_i|^{m_i} lies between
    exp(-747) and exp(-737), below the smallest normal float, or below
    exp(-760) on every column of the first 10 rows."""
    u = rng.random((20_000, len(half)))
    subnormal = np.exp(-(737.0 + 10.0 * u) / half)
    subnormal[:10] = np.exp(-760.0 / half)
    return {"radius 2": 4.0 * u, "radius 1e150": 1e300 * u, "subnormal powers": subnormal}


def log_sum_exp(sq_row, half):
    """log sum_i |z_i|^{m_i} of one row, in Python floats: the log of each
    power, and the correctly rounded math.fsum of their exponentials less
    the largest; -inf if every power vanishes."""
    logs = [h * math.log(x) for x, h in zip(sq_row, half) if x > 0]
    if not logs:
        return -math.inf
    big = max(logs)
    return big + math.log(math.fsum(math.exp(log - big) for log in logs))


@pytest.mark.parametrize("text", FLOORED_DIAGONALS)
def test_diagonal_floor_is_below_phi_past_the_unit_radius_and_where_powers_are_subnormal(text):
    spec = parse_spec(text)
    half = np.array(spec.orders) / 2.0
    p = potential_from_spec(spec)
    rng = np.random.default_rng(10)
    for name, sq in diagonal_floor_points(half, rng).items():
        sq.flags.writeable = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, phi = p.floor(sq), p.phi(sq, None)
        assert not np.isnan(floor).any(), name
        assert (floor <= phi).all(), name
        # no power is formed, so none overflows or underflows
        assert np.isfinite(phi[(sq > 0).all(axis=1)]).all(), name
        for i in [*range(10), *rng.choice(len(sq), 300, replace=False)]:
            expected = log_sum_exp(sq[i].tolist(), half.tolist())
            assert abs(phi[i] - expected) <= 1e-13 * max(1.0, abs(expected)), (name, i)


@pytest.mark.parametrize("text", MODULI_DSUMS)
def test_floor_of_a_direct_sum_of_the_moduli_is_below_phi_bitwise(text):
    # its floor is the larger of its leaves' bounds, which logaddexp never
    # rounds below: the phi of a monomial or a one-column diagonal, and the
    # floor of a wider diagonal, the log of its largest term, which lies below
    # that diagonal's phi on these points (in general, to a few units in the
    # last place)
    p = potential_from_spec(parse_spec(text))
    for seed in (8, 9):
        # vanishing coordinates and a vanishing point, where phi is -inf
        sq, _ = polar_points(p.dimension, np.random.default_rng(seed))
        sq.flags.writeable = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            floor, phi = p.floor(sq), p.phi(sq, None)
        assert np.isneginf(phi[100:110]).all() and np.isneginf(floor[100:110]).all()
        assert not np.isnan(floor).any()
        assert (floor <= phi).all()


@pytest.mark.parametrize(
    "samples", [2000, volume._CHUNK, 3 * volume._CHUNK + 777, 300_001]
)
@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_counts_equal_the_counts_of_every_row(samples, workers):
    # the fit grid, and unsorted thresholds with a duplicate whose largest,
    # log 2, leaves nearly every row to phi
    grids = [np.log(np.geomspace(1e-1, 1e-3, 12)), np.log([0.3, 0.01, 2.0, 0.1, 0.01, 0.002])]
    potentials = [
        *(binomial_family(m, p)(t) for m, p in [(2, 2), (2, 3), (5, 3)] for t in (-1.0, 0.1, 1e6)),
        binomial_family(2, 3)(0.0),  # no floor, on the same chunks
        potential_from_spec(parse_spec("ssum(mono:2;mono:3)")),
        *(potential_from_spec(parse_spec(text)) for text in (*FLOORED_DSUMS, *FLOORED_DIAGONALS)),
    ]
    unpruned = [dataclasses.replace(p, floor=None) for p in potentials]
    for thresholds in grids:
        by_polydisk = {}
        for p, q in zip(potentials, unpruned):
            by_polydisk.setdefault(p.dimension, []).append((p, q))
        for pairs in by_polydisk.values():
            pruned = volume._sample_group([p for p, _ in pairs], thresholds, samples, SEED, workers)
            every_row = volume._sample_group([q for _, q in pairs], thresholds, samples, SEED, 1)
            for (counts, volumes, _), (expected, expected_volumes, _) in zip(pruned, every_row):
                np.testing.assert_array_equal(counts, expected)
                assert volumes.tobytes() == expected_volumes.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_estimate_close_to_the_unit_radius(workers):
    # at r = 0.999 the cap is just below 0, where most rows have their floor
    texts = ("ssum(mono:1,1;mono:3)", *FLOORED_DSUMS, *FLOORED_DIAGONALS)
    potentials = [binomial_family(2, 3)(-0.5), *(potential_from_spec(parse_spec(t)) for t in texts)]
    for p in potentials:
        full = dataclasses.replace(p, floor=None)
        for samples in (300_001, 3 * volume._CHUNK + 777):
            pruned = estimate_sublevel_volume(p, 0.999, samples=samples, seed=SEED, workers=workers)
            assert pruned == estimate_sublevel_volume(full, 0.999, samples=samples, seed=SEED)


@pytest.mark.parametrize("workers", [1, 2])
def test_pruned_counts_equal_the_counts_of_every_row_below_the_smallest_normal_float(workers):
    # radii from 1e-321 down to 1e-323, below the smallest normal float, on
    # polydisks so small that the diagonals' powers are subnormal there, where
    # the largest term's log can pass phi by more than the sampler's margin
    thresholds = np.log(np.geomspace(1e-321, 1e-323, 12))
    potentials = [
        potential_from_spec(parse_spec("diag:4,6"), 1e-80),
        potential_from_spec(parse_spec("diag:8,8,8,8,8,8,8,8,9"), 1e-40),
        potential_from_spec(parse_spec("dsum(mono:0,9;diag:4,6)"), 1e-80),
    ]
    for p in potentials:
        assert p.floor is not None
        ((counts, _, _),) = volume._sample_group([p], thresholds, 300_001, SEED, workers)
        full = dataclasses.replace(p, floor=None)
        ((expected, _, _),) = volume._sample_group([full], thresholds, 300_001, SEED, 1)
        np.testing.assert_array_equal(counts, expected)
        assert 0 < expected[0] < 300_001


def test_a_nan_floor_keeps_its_row():
    # phi = log|z|, and a floor that equals it, except NaN where |z|^2 < 1/4:
    # at the threshold log 1/2 every row it keeps has a NaN floor
    seen = []

    def phi(sq, theta):
        seen.append(sq[:, 0].max())
        return 0.5 * np.log(sq[:, 0])

    def floor(sq):
        return np.where(sq[:, 0] < 0.25, np.nan, 0.5 * np.log(sq[:, 0]))

    p = SampledPotential(phi, 1, angles=False, floor=floor)
    ((counts, _, _),) = volume._sample_group([p], np.log([0.5]), 300_001, SEED, 1)
    ((expected, _, _),) = volume._sample_group(
        [dataclasses.replace(p, floor=None)], np.log([0.5]), 300_001, SEED, 1
    )
    assert counts[0] == expected[0] > 0
    assert len(seen) == 2 * 10 and max(seen[:10]) < 0.25 and max(seen[10:]) > 0.99


def test_evaluator_is_the_reference_on_every_benchmark_potential(monkeypatch):
    # perfbench's traced runs time p.evaluator(coords) on each potential its
    # workloads build
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    default = [coordinate_reference(parse_spec("mono:2,1"))]
    references = {
        "scan-box": default,
        "exact-queries": default,
        "oracle-modulus": [coordinate_reference(parse_spec(s)) for s in workloads.MODULUS_SPECS],
        "oracle-family": [
            family_reference(m, p, t)
            for m, p in sorted(set(workloads.FAMILY_OPS))
            for t in workloads.FAMILY_T
        ],
    }
    assert set(references) == set(workloads.WORKLOADS)
    rng = np.random.default_rng(11)
    for name, workload in workloads.WORKLOADS.items():
        potentials = workload(1).potentials()
        assert len(potentials) == len(references[name])
        for p, reference in zip(potentials, references[name]):
            rad = np.asarray(p.radius) * np.sqrt(rng.random((20_000, p.dimension)))
            ang = 2.0 * np.pi * rng.random((20_000, p.dimension))
            coords = np.empty((20_000, 2 * p.dimension))
            coords[:, 0::2], coords[:, 1::2] = rad * np.cos(ang), rad * np.sin(ang)
            # as in the pointwise test: log|f| near 0 has only absolute precision
            np.testing.assert_allclose(p.evaluator(coords), reference(coords), rtol=1e-12, atol=1e-14)


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
    fit = fit_exponent(potential_from_spec(PrincipalMonomial((1,))))
    assert 0.97 <= fit.fitted_c <= 1.03
    assert fit.fitted_log_power is None
    assert fit.r_squared > 0.98
    assert sum(fit.used_in_fit) >= 11


def test_fit_volumes_exactly_monotone():
    # one common sample set across the grid makes the volume column
    # nonincreasing exactly, not just within noise
    fit = fit_exponent(
        potential_from_spec(PrincipalMonomial((2, 1))),
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
        potential_from_spec(PrincipalMonomial((1, 1))),
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
        potential_from_spec(PrincipalMonomial((1,))),
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
    p = potential_from_spec(PrincipalMonomial((1,)))
    with pytest.raises(InvalidInputError):
        fit_exponent(p, r_min=0.5, r_max=0.1)
    with pytest.raises(InvalidInputError):
        fit_exponent(p, grid_size=3)
    with pytest.raises(InvalidInputError):
        fit_exponent(p, samples=10)
    with pytest.raises(InvalidInputError):
        fit_exponent("nope")
    with pytest.raises(InvalidInputError, match="^with_log_correction must be True or False$"):
        fit_exponent(p, with_log_correction=1)


BAD_FIT_FIELDS = [
    {"r_min": "0.01"},
    {"r_max": "0.1"},
    {"r_min": math.nan},
    {"r_min": 0.5, "r_max": 0.1},
    {"r_max": 1.0},
    {"r_min": 0.0},
    {"r_max": 10**400},
    {"grid_size": 3},
    {"grid_size": 12.0},
    {"samples": 999},
    {"samples": 1e6},
    {"samples": volume._MAX_CHUNKS * volume._CHUNK + 1},
    {"seed": -1},
    {"seed": True},
    {"seed": "1"},
    {"with_log_correction": "no"},
    {"with_log_correction": 1},
    {"with_log_correction": None},
    {"workers": 0},
    {"workers": 2.5},
    {"workers": True},
    {"workers": "2"},
    {"workers": None},
]


@pytest.mark.parametrize("bad", BAD_FIT_FIELDS, ids=lambda bad: repr(bad)[:40])
def test_fit_config_refuses_bad_fields_when_built(monkeypatch, bad):
    calls = []

    def family(t):
        calls.append(t)
        return potential_from_spec(PrincipalMonomial((1,)))

    built = counted_generators(monkeypatch)
    with pytest.raises(InvalidInputError):
        FitConfig(**bad)
    with pytest.raises(InvalidInputError):
        fit_exponent(potential_from_spec(PrincipalMonomial((1,))), **bad)
    with pytest.raises(InvalidInputError):
        semicontinuity_experiment(family, [0.0, 1.0], config=FitConfig(**bad))
    assert calls == [] and built == []


def test_fit_config_accepts_the_edges():
    config = FitConfig(r_min=1e-300, r_max=1 - 1e-16, grid_size=4, samples=1000, seed=0, workers=1)
    assert config.samples == 1000
    FitConfig(samples=volume._MAX_CHUNKS * volume._CHUNK, with_log_correction=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: estimate_sublevel_volume(
            potential_from_spec(PrincipalMonomial((1,))), "0.5", samples=1000
        ),
        lambda: estimate_sublevel_volume(
            potential_from_spec(PrincipalMonomial((1,))), None, samples=1000
        ),
        lambda: semicontinuity_experiment(binomial_family(2, 2), [0.0], tolerance="0.1"),
        lambda: SampledPotential(lambda c: c, 1, radius="0.5"),
        lambda: SampledPotential(lambda c: c, 2, radius="12"),
        lambda: SampledPotential(lambda c: c, 2, radius=(1.0, "2")),
        lambda: SampledPotential(lambda c: c, 1, radius=True),
        lambda: SampledPotential(lambda c: c, 1, radius=10**400),
    ],
    ids=[
        "r", "r-none", "tolerance", "radius", "radius-12", "radius-pair", "radius-bool",
        "radius-past-float",
    ],
)
def test_non_numeric_inputs_raise_invalid_input(call):
    with pytest.raises(InvalidInputError, match="must be a number|must be numbers"):
        call()


def test_fit_config_fields_are_fit_exponent_keywords():
    # fit_exponent takes FitConfig's fields as its keywords, and the CLI
    # copies its fit flags by field name, with FitConfig's defaults
    args = cli._build_parser().parse_args(["volume-fit", "--spec", "mono:1"])
    assert cli._fit_config(args) == FitConfig()


@pytest.mark.parametrize("text", ["mono:2,1", "ssum(mono:2;mono:3)"])
@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_is_the_r_max_row_of_a_fit(text, workers):
    # both entry points count the same draws at the same seed
    p = potential_from_spec(parse_spec(text))
    estimate = estimate_sublevel_volume(p, 0.2, samples=150_000, seed=SEED, workers=workers)
    fit = fit_exponent(p, r_max=0.2, samples=150_000, seed=SEED, workers=workers)
    assert fit.radii[0] == 0.2
    assert estimate == (fit.volumes[0], fit.std_errors[0])


def test_fit_serialization():
    fit = fit_exponent(
        potential_from_spec(PrincipalMonomial((1,))),
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
        return potential_from_spec(PrincipalMonomial((1,)))

    report = semicontinuity_experiment(family, [0.0, 1.0], config=SMALL_FIT)
    assert report.fits[0].fitted_c == report.fits[1].fitted_c
    assert report.violations == ()


def counted_generators(monkeypatch):
    """The seeds of every PCG64 built from now on."""
    built = []
    pcg64 = np.random.PCG64

    def counted(seed):
        built.append(seed)
        return pcg64(seed)

    monkeypatch.setattr(np.random, "PCG64", counted)
    return built


def assert_fits_are_separate_fits(report, family, config):
    for t, fit in zip(report.t_values, report.fits):
        assert fit.to_json_dict() == fit_exponent(family(t), **vars(config)).to_json_dict()


@pytest.mark.parametrize("workers", [1, 2])
def test_semicontinuity_draws_each_chunk_once(monkeypatch, workers):
    # 300000 samples are three chunks, and one generator per chunk serves every t
    family = binomial_family(2, 2)
    config = FitConfig(samples=300_000, workers=workers)
    built = counted_generators(monkeypatch)
    report = semicontinuity_experiment(family, [0.0, 0.1, 1.0], config=config)
    assert len(built) == 3
    assert_fits_are_separate_fits(report, family, config)


def test_semicontinuity_samples_each_polydisk_on_its_own(monkeypatch):
    # t = 0.5 lies on another polydisk: two groups, each drawn from the seed
    def family(t):
        return potential_from_spec(parse_spec("ssum(mono:2;mono:3)"), 0.8 if t == 0.5 else 1.0)

    config = FitConfig(r_min=5e-3, r_max=0.2, grid_size=8, samples=150_000, seed=SEED)
    built = counted_generators(monkeypatch)
    report = semicontinuity_experiment(family, [0.0, 0.5, 1.0], config=config)
    assert len(built) == 4
    assert report.fits[0].to_json_dict() != report.fits[1].to_json_dict()
    assert_fits_are_separate_fits(report, family, config)


@pytest.mark.parametrize("workers", [1, 2])
def test_semicontinuity_mixes_moduli_and_coordinate_members(monkeypatch, workers):
    # one polydisk, both sampling forms: the coordinates are built from the
    # squared moduli that the moduli member reads
    def family(t):
        text = "mono:2,1" if t == 0.5 else "ssum(mono:2;mono:2)"
        return potential_from_spec(parse_spec(text), 0.8)

    assert not family(0.5).angles and family(0.0).angles
    config = FitConfig(r_min=5e-3, r_max=0.2, grid_size=8, samples=150_000, workers=workers)
    built = counted_generators(monkeypatch)
    report = semicontinuity_experiment(family, [0.0, 0.5, 1.0], config=config)
    assert len(built) == 2
    assert_fits_are_separate_fits(report, family, config)


def test_semicontinuity_checks_the_grid_before_any_draw(monkeypatch):
    built = counted_generators(monkeypatch)
    for bad in ({"r_min": 0.5, "r_max": 0.1}, {"r_max": 1.0}, {"grid_size": 3}):
        with pytest.raises(InvalidInputError):
            semicontinuity_experiment(binomial_family(2, 2), [0.0, 1.0], config=FitConfig(**bad))
    assert built == []


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_semicontinuity_refuses_non_finite_t_before_any_draw(monkeypatch, t):
    called = []

    def family(s):
        called.append(s)
        return potential_from_spec(PrincipalMonomial((1,)))

    built = counted_generators(monkeypatch)
    with pytest.raises(InvalidInputError, match="t must be finite"):
        semicontinuity_experiment(family, [0.0, t], config=SMALL_FIT)
    assert called == [] and built == []


NOT_FINITE_NUMBERS = pytest.mark.parametrize(
    "t", ["0.5", "abc", 10**400], ids=["numeric-string", "string", "int-past-float"]
)


@NOT_FINITE_NUMBERS
def test_semicontinuity_refuses_a_t_that_is_no_finite_number_before_any_draw(monkeypatch, t):
    built = counted_generators(monkeypatch)
    with pytest.raises(InvalidInputError, match="t must be finite numbers"):
        semicontinuity_experiment(binomial_family(2, 2), [0.0, t], config=SMALL_FIT)
    assert built == []


@NOT_FINITE_NUMBERS
def test_binomial_family_refuses_a_t_that_is_no_finite_number(t):
    with pytest.raises(InvalidInputError, match="t must be a finite number"):
        binomial_family(2, 2)(t)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_binomial_family_refuses_a_non_finite_t(t):
    with pytest.raises(InvalidInputError, match="t must be a finite number"):
        binomial_family(2, 2)(t)


def test_semicontinuity_refuses_a_config_that_is_no_fit_config_before_any_draw(monkeypatch):
    built = counted_generators(monkeypatch)
    for config in ("x", {"samples": 1000}, vars(SMALL_FIT)):
        with pytest.raises(InvalidInputError, match="config must be a FitConfig or None"):
            semicontinuity_experiment(binomial_family(2, 2), [0.0], config=config)
    assert built == []


def test_semicontinuity_refuses_a_tolerance_past_the_float_range_before_any_draw(monkeypatch):
    built = counted_generators(monkeypatch)
    with pytest.raises(InvalidInputError, match="tolerance must be a number, got inf"):
        semicontinuity_experiment(binomial_family(2, 2), [0.0], config=SMALL_FIT, tolerance=10**400)
    assert built == []


def test_semicontinuity_raises_the_first_insufficient_fit_in_t_order():
    # a constant phi is below the radii above it: all 4, 2 or none of the grid
    levels = {0.0: -math.inf, 1.0: math.log(0.01), 2.0: 0.0}

    def family(t):
        return SampledPotential.from_evaluator(
            lambda coords: np.full(coords.shape[0], levels[t]), 2
        )

    config = FitConfig(grid_size=4, samples=1000)
    with pytest.raises(InsufficientDataError, match="only 2 grid points"):
        semicontinuity_experiment(family, [0.0, 1.0, 2.0], config=config)
    with pytest.raises(InsufficientDataError, match="only 0 grid points"):
        semicontinuity_experiment(family, [0.0, 2.0, 1.0], config=config)


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
    with pytest.raises(InvalidInputError, match="^family must map t to a SampledPotential$"):
        semicontinuity_experiment(None, [0.0])
    for t_values, kind in ((5, "int"), (None, "NoneType")):
        with pytest.raises(InvalidInputError, match=f"sequence of numbers, got {kind}"):
            semicontinuity_experiment(fam, t_values)
