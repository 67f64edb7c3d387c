"""Package gate: one test per headline capability.

Each test here states a user-visible guarantee (exact golden values,
certified search results, statistical tolerances, runtime ceilings) and
fails loudly if the package stops delivering it.  Run with -v to get one
pass/fail line per guarantee.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from lctkit import (
    KE_CERTIFIED,
    KE_CERTIFIED_REFINED,
    Diagonal,
    DirectSum,
    DivisorRecord,
    ExtRational,
    FitConfig,
    PrincipalMonomial,
    RadialWeight,
    ResolutionData,
    ScanConfig,
    SeparatedSum,
    WeightSystem,
    arnold_multiplicity,
    binomial_family,
    certify,
    estimate_sublevel_volume,
    fit_exponent,
    lct_from_resolution,
    lct_monomial,
    minimal_degree,
    parse_spec,
    potential_from_spec,
    rho,
    rho_refined,
    scan,
    semicontinuity_experiment,
    weighted_monomials,
)


def best_of(fn, reps=5):
    """Smallest wall time over reps calls, after one warmup call."""
    fn()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def test_exact_threshold_goldens_are_instant():
    cases = [
        ("diag:2,3", ExtRational(Fraction(5, 6))),
        ("mono:3,2", ExtRational(Fraction(1, 3))),
        ("ssum(mono:2;mono:2)", ExtRational(1)),
    ]
    for text, expected in cases:
        assert lct_monomial(parse_spec(text)) == expected
        assert best_of(lambda t=text: lct_monomial(parse_spec(t))) < 1e-3
    assert arnold_multiplicity(ExtRational(Fraction(5, 6))) == ExtRational(Fraction(6, 5))
    assert best_of(lambda: arnold_multiplicity(ExtRational(Fraction(5, 6)))) < 1e-3


def test_rho_renders_to_known_six_decimal_values():
    w1 = WeightSystem((11, 49, 69, 128), 256)
    w2 = WeightSystem((13, 35, 81, 128), 256)
    assert rho(w1) == Fraction(472, 539)
    assert f"{float(rho(w1)):.6f}" == "0.875696"
    assert rho(w2) == Fraction(1304, 1365)
    assert f"{float(rho(w2)):.6f}" == "0.955311"
    assert best_of(lambda: rho(w1)) < 1e-3
    assert best_of(lambda: rho(w2)) < 1e-3


def test_rigid_systems_have_exactly_four_monomials():
    expected = {
        ((11, 49, 69, 128), 256): {(17, 0, 1, 0), (1, 5, 0, 0), (0, 1, 3, 0), (0, 0, 0, 2)},
        ((13, 35, 81, 128), 256): {(17, 1, 0, 0), (1, 0, 3, 0), (0, 5, 1, 0), (0, 0, 0, 2)},
        ((9, 15, 17, 20), 60): {(5, 1, 0, 0), (0, 4, 0, 0), (1, 0, 3, 0), (0, 0, 0, 3)},
    }
    for (a, d), monos in expected.items():
        w = WeightSystem(a, d)
        assert set(weighted_monomials(w)) == monos
        assert len(weighted_monomials(w)) == 4
        assert best_of(lambda w=w: weighted_monomials(w)) < 1e-2


def test_refined_inequality_certifies_the_recorded_system():
    w = WeightSystem((9, 15, 17, 20), 60)
    assert rho(w) == Fraction(28, 27)
    assert rho(w) > 1
    assert rho_refined(w) == Fraction(116, 135)
    assert rho_refined(w) < 1
    cert = certify(w)
    assert cert.verdict == KE_CERTIFIED_REFINED
    assert cert.curve_check_recorded is True


def test_full_box_scan_reproduces_the_certified_list():
    start = time.perf_counter()
    base = scan(ScanConfig(max_a3=128, fano_index=1, min_a0=3))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert {(c.weights.a, c.weights.d) for c in base.certified} == {
        ((11, 49, 69, 128), 256),
        ((13, 35, 81, 128), 256),
    }
    assert base.certified_refined == ()
    assert all(c.weights.a[0] <= 14 for c in base.entries)

    refined = scan(ScanConfig(max_a3=128, fano_index=1, min_a0=3, require_refined=True))
    assert {(c.weights.a, c.weights.d) for c in refined.certified} == {
        ((11, 49, 69, 128), 256),
        ((13, 35, 81, 128), 256),
    }
    assert [(c.weights.a, c.weights.d) for c in refined.certified_refined] == [
        ((9, 15, 17, 20), 60)
    ]


def test_exact_arithmetic_property_suite():
    rng = random.Random(1729)

    def random_spec(depth=1):
        kind = rng.randrange(4 if depth else 2)
        if kind == 0:
            return PrincipalMonomial(
                [rng.randint(0, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 5)]
            )
        if kind == 1:
            return Diagonal([rng.randint(1, 9) for _ in range(rng.randint(1, 4))])
        left, right = random_spec(depth - 1), random_spec(depth - 1)
        return DirectSum(left, right) if kind == 2 else SeparatedSum(left, right)

    for _ in range(1000):  # separated sums never exceed the sum of the parts
        f, g = random_spec(), random_spec()
        assert lct_monomial(SeparatedSum(f, g)) <= lct_monomial(f) + lct_monomial(g)

    for _ in range(1000):  # direct sums add exactly
        f, g = random_spec(), random_spec()
        assert lct_monomial(DirectSum(f, g)) == lct_monomial(f) + lct_monomial(g)

    for _ in range(1000):  # raising one diagonal order never raises the threshold
        orders = [rng.randint(1, 9) for _ in range(rng.randint(1, 4))]
        bumped = list(orders)
        i = rng.randrange(len(orders))
        bumped[i] += rng.randint(1, 5)
        assert lct_monomial(Diagonal(bumped)) <= lct_monomial(Diagonal(orders))

    for _ in range(1000):  # arnold_multiplicity is an involution
        value = ExtRational(Fraction(rng.randint(0, 10**6), rng.randint(1, 10**4)))
        assert arnold_multiplicity(arnold_multiplicity(value)) == value

    for _ in range(1000):  # resolution formula equals the naive scan
        records = []
        for _ in range(rng.randint(1, 8)):
            a = rng.randint(0, 30)
            b = rng.randint(0 if a else 1, 12)
            records.append(DivisorRecord(a=a, b=b, meets_k=rng.random() < 0.8))
        computed = lct_from_resolution(ResolutionData(records))
        candidates = [
            ExtRational(Fraction(r.a + 1, r.b)) for r in records if r.meets_k and r.b > 0
        ]
        assert computed == (min(candidates) if candidates else ExtRational("inf"))

    count = 0
    while count < 1000:  # both published forms of rho agree
        a = tuple(sorted(rng.randint(1, 60) for _ in range(4)))
        k = sum(a)
        d = rng.randint(1, k - 1)
        w = WeightSystem(a, d)
        delta = a[2] if d % a[3] == 0 else a[3]
        for factor, fn in ((k - a[0] - a[2], rho), (k - a[1] - a[2], rho_refined)):
            assert fn(w) == Fraction(4 * delta * d * (k - d) * factor, 3 * math.prod(a))
        count += 1

    for _ in range(1000):  # lowest admissible degree tracks the weight within 1/m
        c = Fraction(rng.randint(0, 2000), rng.randint(1, 100))
        m = rng.randint(1, 100)
        k_min = minimal_degree(RadialWeight(c), m)
        assert abs(Fraction(k_min, m) - c) <= Fraction(1, m)


def test_monte_carlo_exponent_and_bidisk_volume():
    potential = potential_from_spec(parse_spec("mono:2,1"))
    start = time.perf_counter()
    fit = fit_exponent(potential, with_log_correction=True)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    assert 0.45 <= fit.fitted_c <= 0.55
    again = fit_exponent(potential, with_log_correction=True)
    assert again.fitted_c == fit.fitted_c  # fixed seed, fixed result

    bidisk = potential_from_spec(parse_spec("mono:1,1"))
    r = 0.1
    estimate, std_error = estimate_sublevel_volume(bidisk, r)
    exact = math.pi**2 * r**2 * (1 + 2 * math.log(1 / r))
    assert abs(estimate - exact) <= 3 * std_error


def test_fitted_exponent_is_lower_semicontinuous_in_families():
    report = semicontinuity_experiment(
        binomial_family(2, 2),
        [0.0, 0.1, 1.0],
        FitConfig(with_log_correction=True),
        tolerance=0.05,
    )
    fitted = dict(report.entries())
    assert abs(fitted[0.0] - 0.5) <= 0.07
    assert abs(fitted[0.1] - 1.0) <= 0.07
    assert abs(fitted[1.0] - 1.0) <= 0.07
    assert report.violations == ()
    for t in (0.1, 1.0):
        assert fitted[t] >= fitted[0.0] - 0.05
