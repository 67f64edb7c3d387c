"""Radial Bergman approximation: coefficient table, evaluation, and the
approximation bounds from the model."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lctkit import (
    BergmanApprox,
    ExtRational,
    RadialWeight,
    build_approx,
    eval_psi_m,
    eval_tail_bound,
    lelong_of_psi_m,
    lower_bound_constant,
    minimal_degree,
)
from lctkit.bergman import MAX_TABLE_LENGTH
from lctkit.errors import InvalidInputError


def test_minimal_degree_golden():
    assert minimal_degree(RadialWeight(Fraction(3, 4)), 2) == 1
    assert minimal_degree(RadialWeight(Fraction(0)), 5) == 0
    assert minimal_degree(RadialWeight(Fraction(1)), 3) == 3
    with pytest.raises(InvalidInputError, match="^expected a RadialWeight, got Fraction$"):
        minimal_degree(Fraction(1, 2), 2)
    for m in (None, 0, 1.5):
        with pytest.raises(InvalidInputError, match="^m must be a positive integer$"):
            minimal_degree(RadialWeight(Fraction(1, 2)), m)


def test_minimal_degree_integer_borderline():
    # mc integer: the k = mc - 1 monomial has a divergent norm, so the
    # smallest admissible degree is mc itself
    assert minimal_degree(RadialWeight(Fraction(1, 2)), 2) == 1
    assert minimal_degree(RadialWeight(Fraction(5, 3)), 3) == 5


def test_unweighted_table():
    ap = build_approx(RadialWeight(Fraction(0)), 5)
    assert isinstance(ap, BergmanApprox)
    assert ap.k_min == 0
    assert ap.k_max == 64
    assert ap.pi_sigma[0] == 1
    assert ap.sigma_float(0) == pytest.approx(1 / math.pi)


def test_table_is_exact():
    ap = build_approx(RadialWeight(Fraction(3, 4)), 2, k_max=20)
    mc = Fraction(3, 2)
    assert ap.k_min == 1
    for j, value in enumerate(ap.pi_sigma):
        assert value == Fraction(ap.k_min + j + 1) - mc
        assert value > 0
    assert ap.sigma_float(1) == pytest.approx(float(Fraction(1, 2)) / math.pi)
    with pytest.raises(InvalidInputError):
        ap.sigma_float(0)
    with pytest.raises(InvalidInputError):
        ap.sigma_float(21)


def test_build_approx_validation():
    with pytest.raises(InvalidInputError):
        RadialWeight(Fraction(-1, 2))
    with pytest.raises(InvalidInputError):
        RadialWeight(None)
    with pytest.raises(InvalidInputError):
        build_approx(RadialWeight(Fraction(1)), 0)
    with pytest.raises(InvalidInputError):
        build_approx(RadialWeight(Fraction(1)), True)
    with pytest.raises(InvalidInputError):
        build_approx(RadialWeight(Fraction(1)), 3, k_max=5)  # below k_min + 8
    with pytest.raises(InvalidInputError, match="too small"):
        build_approx(RadialWeight(Fraction(1)), 3, k_max=-(10**5000))  # too long to print
    # raw rationals are accepted in place of a RadialWeight
    assert build_approx(Fraction(1, 2), 2).k_min == 1
    assert build_approx("1/2", 2).k_min == 1


def test_table_length_is_bounded():
    w = RadialWeight(Fraction(3, 4))
    k_min = minimal_degree(w, 4)
    longest = build_approx(w, 4, k_max=k_min + MAX_TABLE_LENGTH - 1)
    assert len(longest.pi_sigma) == MAX_TABLE_LENGTH
    too_long = r"at most 65536 entries, up to k_min \+ 65535 = 65538"
    with pytest.raises(InvalidInputError, match=too_long):
        build_approx(w, 4, k_max=k_min + MAX_TABLE_LENGTH)


def test_eval_unweighted_closed_form():
    # c=0, m=1: sum (k+1) x^k = 1/(1-x)^2, so psi_1(z) = (1/2) log(1/(pi (1-x)^2))
    ap = build_approx(RadialWeight(Fraction(0)), 1)
    value = eval_psi_m(ap, 0.5)
    assert value == pytest.approx(0.5 * math.log(16 / (9 * math.pi)), abs=1e-12)
    assert value == pytest.approx(-0.28468287047291907, abs=1e-12)


def test_eval_matches_closed_form_within_tail():
    ap = build_approx(RadialWeight(Fraction(0)), 1)
    for z in (0.1, 0.3, 0.5, 0.7):
        x = z * z
        exact = 0.5 * math.log(1.0 / (math.pi * (1.0 - x) ** 2))
        approx = eval_psi_m(ap, z)
        # truncation only loses mass, and never more than the tail bound
        assert approx <= exact + 1e-12
        assert exact - approx <= eval_tail_bound(ap, z) + 1e-12


def test_tail_bound_controls_refinement():
    w = RadialWeight(Fraction(3, 4))
    coarse = build_approx(w, 2, k_max=minimal_degree(w, 2) + 8)
    fine = build_approx(w, 2, k_max=minimal_degree(w, 2) + 400)
    for z in (0.3, 0.6, 0.9):
        gap = eval_psi_m(fine, z) - eval_psi_m(coarse, z)
        assert 0 <= gap <= eval_tail_bound(coarse, z) + 1e-15


def test_eval_validation():
    ap = build_approx(RadialWeight(Fraction(0)), 1)
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(InvalidInputError):
            eval_psi_m(ap, bad)
        with pytest.raises(InvalidInputError):
            eval_tail_bound(ap, bad)
    with pytest.raises(InvalidInputError):
        eval_psi_m("table", 0.5)
    with pytest.raises(InvalidInputError):
        lelong_of_psi_m(42)
    with pytest.raises(InvalidInputError):
        lower_bound_constant(42)


def test_eval_tail_bound_checks_its_approximant():
    # like its three siblings: no AttributeError from a string's missing k_max
    with pytest.raises(InvalidInputError, match="BergmanApprox"):
        eval_tail_bound("x", 0.5)


@pytest.mark.parametrize("z", ["0.5", None, b"0.5", True])
def test_non_numeric_z_abs_raises_invalid_input(z):
    ap = build_approx(RadialWeight(Fraction(3, 4)), 2)
    for evaluate in (eval_psi_m, eval_tail_bound):
        with pytest.raises(InvalidInputError):
            evaluate(ap, z)


def test_lelong_golden():
    assert lelong_of_psi_m(build_approx(Fraction(3, 4), 2)) == ExtRational("1/2")
    assert lelong_of_psi_m(build_approx(Fraction(1), 3)) == ExtRational(1)
    assert lelong_of_psi_m(build_approx(Fraction(0), 7)) == ExtRational(0)


rationals = st.fractions(min_value=0, max_value=20)
multipliers = st.integers(min_value=1, max_value=100)


@given(rationals, multipliers)
def test_lelong_sandwich_property(c, m):
    # c - 1/m <= k_min/m <= c, exactly, for every rational weight
    k_min = minimal_degree(RadialWeight(c), m)
    assert c - Fraction(1, m) <= Fraction(k_min, m) <= c
    assert abs(Fraction(k_min, m) - c) <= Fraction(1, m)


@given(rationals, st.integers(min_value=1, max_value=12))
def test_pointwise_lower_bound(c, m):
    # psi_m(z) >= phi(z) - C1/m with the model's explicit constant
    ap = build_approx(RadialWeight(c), m)
    c1 = lower_bound_constant(ap)
    assert c1 > 0
    for z in (0.05, 0.3, 0.8):
        phi = float(c) * math.log(z)
        assert eval_psi_m(ap, z) >= phi - c1 / m - 1e-12


def test_lower_bound_constant_value():
    # sigma at k_min is (k_min + 1 - mc)/pi with k_min + 1 - mc in (0, 1]
    ap = build_approx(RadialWeight(Fraction(3, 4)), 2)
    assert lower_bound_constant(ap) == pytest.approx(0.5 * math.log(math.pi / 0.5))
    unweighted = build_approx(RadialWeight(Fraction(0)), 1)
    assert lower_bound_constant(unweighted) == pytest.approx(0.5 * math.log(math.pi))


def test_small_z_slope_is_lelong_number():
    # near 0 the lowest-degree term dominates: psi_m ~ (k_min/m) log|z|
    ap = build_approx(RadialWeight(Fraction(3, 4)), 2)
    z1, z2 = 1e-8, 1e-9
    slope = (eval_psi_m(ap, z1) - eval_psi_m(ap, z2)) / (math.log(z1) - math.log(z2))
    assert slope == pytest.approx(0.5, abs=1e-6)


def test_orthonormality_by_quadrature():
    # independent check of the coefficient identity: the squared weighted
    # norm of sqrt(sigma_k) z^k over the unit disk is exactly 1
    integrate = pytest.importorskip("scipy.integrate")
    for c, m, k in ((Fraction(0), 1, 0), (Fraction(3, 4), 2, 1), (Fraction(3, 4), 2, 5), (Fraction(1, 3), 7, 4)):
        ap = build_approx(RadialWeight(c), m, k_max=k + 10)
        sigma = float(ap.pi_sigma[k - ap.k_min]) / math.pi
        mc = float(c * m)

        def integrand(r):
            return sigma * r ** (2 * k) * r ** (-2 * mc) * 2 * math.pi * r

        value, err = integrate.quad(integrand, 0.0, 1.0)
        assert value == pytest.approx(1.0, abs=max(1e-9, 10 * err))
