"""Weighted hypersurface certifier: monomial enumeration, orbifold
conditions, the rho inequalities, verdicts, and the box scan."""

import collections
import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lctkit import (
    INCONCLUSIVE,
    KE_CERTIFIED,
    KE_CERTIFIED_REFINED,
    NOT_FANO,
    NOT_ORBIFOLD,
    REFINED_CURVE_CHECKS,
    NotFanoError,
    ScanConfig,
    WeightSystem,
    anticanonical_data,
    certify,
    curve_bound_check,
    fletcher_check,
    rho,
    rho_refined,
    scan,
    weighted_monomials,
)
from lctkit.errors import InvalidInputError
from lctkit import fano

W1 = WeightSystem((11, 49, 69, 128), 256)
W2 = WeightSystem((13, 35, 81, 128), 256)
W3 = WeightSystem((9, 15, 17, 20), 60)
CUBIC = WeightSystem((1, 1, 1, 1), 3)


# ---------------------------------------------------------------------------
# weight systems


def test_weight_system_validation():
    with pytest.raises(InvalidInputError):
        WeightSystem((3, 2, 5, 7), 17)  # must be nondecreasing
    with pytest.raises(InvalidInputError):
        WeightSystem((0, 1, 2, 3), 6)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3), 6)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3, 4, 5), 15)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3, 4), 0)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3, 4), -5)
    with pytest.raises(InvalidInputError):
        WeightSystem((True, 2, 3, 4), 10)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3, 4), True)
    with pytest.raises(InvalidInputError):
        WeightSystem((1, 2, 3, 4.0), 10)
    for weights, kind in ((5, "int"), (None, "NoneType")):
        with pytest.raises(InvalidInputError, match=f"sequence of integers, got {kind}"):
            WeightSystem(weights, 3)
    # any sequence of ints is fine, and k is the weight sum
    w = WeightSystem([1, 2, 3, 4], 10)
    assert w.a == (1, 2, 3, 4)
    assert w.k == 10
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        w.d = 5


# ---------------------------------------------------------------------------
# monomial enumeration


def brute_monomials(a, d):
    out = set()
    ranges = [range(d // ai + 1) for ai in a]
    for e in itertools.product(*ranges):
        if sum(ei * ai for ei, ai in zip(e, a)) == d:
            out.add(e)
    return out


def test_quadric_count():
    assert len(weighted_monomials(WeightSystem((1, 1, 1, 1), 2))) == 10


def test_golden_enumerations():
    assert set(weighted_monomials(W1)) == {
        (17, 0, 1, 0),
        (1, 5, 0, 0),
        (0, 1, 3, 0),
        (0, 0, 0, 2),
    }
    assert set(weighted_monomials(W2)) == {
        (17, 1, 0, 0),
        (1, 0, 3, 0),
        (0, 5, 1, 0),
        (0, 0, 0, 2),
    }
    assert set(weighted_monomials(W3)) == {
        (5, 1, 0, 0),
        (0, 4, 0, 0),
        (1, 0, 3, 0),
        (0, 0, 0, 3),
    }


def test_enumeration_is_sorted_and_complete():
    rng = random.Random(20240915)
    for _ in range(50):
        a = tuple(sorted(rng.randint(1, 9) for _ in range(4)))
        d = rng.randint(1, 40)
        w = WeightSystem(a, d)
        monos = weighted_monomials(w)
        assert monos == sorted(monos)
        assert len(set(monos)) == len(monos)
        assert set(monos) == brute_monomials(a, d)
        for m in monos:
            assert sum(ei * ai for ei, ai in zip(m, a)) == d


# ---------------------------------------------------------------------------
# orbifold conditions


def _support(m):
    return [i for i in range(4) if m[i] > 0]


def _witness_valid_i(m, j):
    s = _support(m)
    if m[j] < 1:
        return False
    if s == [j]:
        return True
    return len(s) == 2 and j in s and m[next(i for i in s if i != j)] == 1


def _witness_valid_ii(pair, witness):
    j, k = pair
    if len(witness) == 1:
        return set(_support(witness[0])) <= {j, k}
    if len(witness) != 2:
        return False
    extras = []
    for m in witness:
        extra = [i for i in _support(m) if i not in (j, k)]
        if len(extra) != 1 or m[extra[0]] != 1:
            return False
        extras.append(extra[0])
    return extras[0] != extras[1]


def assert_report_well_formed(w, report):
    monos = set(weighted_monomials(w))
    for j, m in report.cond_i.items():
        if m is not None:
            assert m in monos and _witness_valid_i(m, j)
    for pair, witness in report.cond_ii.items():
        if witness is not None:
            assert all(m in monos for m in witness)
            assert _witness_valid_ii(pair, witness)
    for j, m in report.cond_iii.items():
        if m is not None:
            assert m in monos and m[j] == 0
    for pair, m in report.cond_iv.items():
        assert math.gcd(w.a[pair[0]], w.a[pair[1]]) > 1  # coprime pairs are vacuous
        if m is not None:
            assert m in monos and set(_support(m)) <= set(pair)


def brute_fletcher_passes(w):
    a, monos = w.a, list(brute_monomials(w.a, w.d))
    ok_i = all(any(_witness_valid_i(m, j) for m in monos) for j in range(4))
    ok_ii = True
    for j, k in itertools.combinations(range(4), 2):
        if any(set(_support(m)) <= {j, k} for m in monos):
            continue
        extras = set()
        for m in monos:
            extra = [i for i in _support(m) if i not in (j, k)]
            if len(extra) == 1 and m[extra[0]] == 1:
                extras.add(extra[0])
        if len(extras) < 2:
            ok_ii = False
    ok_iii = all(any(m[j] == 0 for m in monos) for j in range(4))
    ok_iv = all(
        any(set(_support(m)) <= {j, k} for m in monos)
        for j, k in itertools.combinations(range(4), 2)
        if math.gcd(a[j], a[k]) > 1
    )
    triple = all(
        math.gcd(math.gcd(a[i], a[j]), a[l]) == 1
        for i, j, l in itertools.combinations(range(4), 3)
    )
    return ok_i and ok_ii and ok_iii and ok_iv and triple


def test_fletcher_goldens():
    for w in (W1, W2, W3, CUBIC):
        report = fletcher_check(w)
        assert report.passes
        assert report.triple_coprime
        assert_report_well_formed(w, report)
    # all weight pairs of W1 are coprime, so condition (iv) is vacuous
    assert fletcher_check(W1).cond_iv == {}


def test_fletcher_failure_is_witnessed():
    # degree 2 with a weight-3 variable: x3 cannot appear in any monomial
    report = fletcher_check(WeightSystem((1, 1, 1, 3), 2))
    assert report.cond_i[3] is None
    assert not report.cond_i_ok
    assert not report.passes


def test_fletcher_matches_brute_force():
    rng = random.Random(777)
    for _ in range(120):
        a = tuple(sorted(rng.randint(1, 10) for _ in range(4)))
        d = rng.randint(1, 45)
        w = WeightSystem(a, d)
        report = fletcher_check(w)
        assert report.passes == brute_fletcher_passes(w)
        assert_report_well_formed(w, report)


def test_fletcher_json_shape():
    blob = fletcher_check(W1).to_json_dict()
    assert blob["pass"] is True
    assert blob["cond_i"]["3"] == [0, 0, 0, 2]
    assert blob["cond_iv"] == {}
    json.dumps(blob)  # serializable as-is


# ---------------------------------------------------------------------------
# anticanonical arithmetic


def test_anticanonical_goldens():
    assert anticanonical_data(W1) == (1, Fraction(2, 37191))
    assert anticanonical_data(W2) == (1, Fraction(2, 36855))
    assert anticanonical_data(W3) == (1, Fraction(1, 765))
    assert anticanonical_data(CUBIC) == (1, Fraction(3))


def test_anticanonical_requires_ample():
    with pytest.raises(NotFanoError):
        anticanonical_data(WeightSystem((1, 1, 1, 1), 4))
    with pytest.raises(NotFanoError):
        anticanonical_data(WeightSystem((1, 1, 1, 1), 7))
    with pytest.raises(NotFanoError):
        rho(WeightSystem((1, 1, 1, 1), 4))
    with pytest.raises(NotFanoError):
        rho_refined(WeightSystem((1, 1, 1, 1), 4))


def test_anticanonical_formula():
    rng = random.Random(4242)
    for _ in range(60):
        a = tuple(sorted(rng.randint(1, 30) for _ in range(4)))
        k = sum(a)
        d = rng.randint(1, k - 1)
        w = WeightSystem(a, d)
        index, square = anticanonical_data(w)
        assert index == k - d
        assert square == Fraction(d * (k - d) ** 2, a[0] * a[1] * a[2] * a[3])


def test_curve_bound_goldens():
    assert curve_bound_check(W1) is True
    assert curve_bound_check(W3) is True
    assert curve_bound_check(CUBIC) is False  # 3*1*1 = 3 is not > 2*3*1 = 6


# ---------------------------------------------------------------------------
# the rho inequalities


def independent_rho(w, refined=False):
    # delta form: rho = 4 delta d (k-d) (k-a_x-a2) / (3 a0 a1 a2 a3),
    # delta = a2 when a3 | d (generic member misses the x3 point), else a3
    a0, a1, a2, a3 = w.a
    delta = a2 if w.d % a3 == 0 else a3
    factor = w.k - (a1 if refined else a0) - a2
    return Fraction(4 * delta * w.d * (w.k - w.d) * factor, 3 * a0 * a1 * a2 * a3)


def test_rho_goldens():
    assert rho(W1) == Fraction(472, 539)
    assert rho(W1) == Fraction(60416, 68992)  # unreduced form of the same value
    assert f"{float(rho(W1)):.6f}" == "0.875696"
    assert rho(W2) == Fraction(1304, 1365)
    assert f"{float(rho(W2)):.6f}" == "0.955311"
    assert rho(W3) == Fraction(28, 27)
    assert rho(W3) > 1
    assert rho(CUBIC) == 8


def test_rho_refined_goldens():
    assert rho_refined(W3) == Fraction(116, 135)
    assert rho_refined(W3) < 1
    assert rho_refined(W1) == Fraction(1112, 1617)
    assert rho_refined(W2) == Fraction(376, 455)


def test_rho_matches_delta_form():
    for w in (W1, W2, W3, CUBIC, WeightSystem((3, 3, 5, 5), 15)):
        assert rho(w) == independent_rho(w)
        assert rho_refined(w) == independent_rho(w, refined=True)
    rng = random.Random(99)
    count = 0
    while count < 200:
        a = tuple(sorted(rng.randint(1, 40) for _ in range(4)))
        k = sum(a)
        d = rng.randint(1, k - 1)
        w = WeightSystem(a, d)
        assert rho(w) == independent_rho(w)
        assert rho_refined(w) == independent_rho(w, refined=True)
        count += 1


def test_pure_power_of_x3_exists_whenever_a3_divides_d():
    # why certify needs no branch for a missing x3^(d/a3) when a3 | d
    rng = random.Random(7)
    for _ in range(300):
        a = tuple(sorted(rng.randint(1, 30) for _ in range(4)))
        d = a[3] * rng.randint(1, 6)
        assert (0, 0, 0, d // a[3]) in weighted_monomials(WeightSystem(a, d))


def test_refined_never_exceeds_base():
    # k - a1 - a2 <= k - a0 - a2 since the weights are sorted
    rng = random.Random(31)
    for _ in range(200):
        a = tuple(sorted(rng.randint(1, 25) for _ in range(4)))
        k = sum(a)
        w = WeightSystem(a, rng.randint(1, k - 1))
        assert rho_refined(w) <= rho(w)
        if w.a[0] == w.a[1]:
            assert rho_refined(w) == rho(w)


# ---------------------------------------------------------------------------
# certificates and verdicts


def test_certify_goldens():
    c1 = certify(W1)
    assert c1.verdict == KE_CERTIFIED
    assert c1.monomial_count == 4
    assert c1.curve_bound_ok is True
    assert c1.line_condition_ok is True
    assert c1.curve_check_recorded is False
    assert c1.refined_needs_curve_check is False

    c2 = certify(W2)
    assert c2.verdict == KE_CERTIFIED
    assert c2.rho == Fraction(1304, 1365)

    c3 = certify(W3)
    assert c3.verdict == KE_CERTIFIED_REFINED
    assert c3.rho == Fraction(28, 27)
    assert c3.rho_refined == Fraction(116, 135)
    assert c3.curve_check_recorded is True
    assert c3.refined_needs_curve_check is True


def test_verdict_not_orbifold():
    cert = certify(WeightSystem((1, 1, 1, 3), 2))
    assert cert.verdict == NOT_ORBIFOLD
    # numeric fields still reported when k > d
    assert cert.rho is not None


def test_verdict_not_fano():
    cert = certify(WeightSystem((1, 1, 1, 1), 4))
    assert cert.verdict == NOT_FANO
    assert cert.rho is None
    assert cert.rho_refined is None
    assert cert.anticanonical_square is None
    assert cert.curve_bound_ok is None
    assert cert.line_condition_ok is None


def test_not_orbifold_takes_precedence():
    # triple (2, 2, 4) shares a factor AND k = d: orbifold failure wins
    assert certify(WeightSystem((1, 2, 2, 4), 9)).verdict == NOT_ORBIFOLD


def test_verdict_inconclusive_cubic():
    # the cubic fails the curve bound, so no verdict despite rho being finite
    assert certify(CUBIC).verdict == INCONCLUSIVE


def test_refined_registry():
    assert REFINED_CURVE_CHECKS == frozenset({((9, 15, 17, 20), 60)})
    # registry is the gate: disabling refined downgrades the recorded system
    assert certify(W3, allow_refined=False).verdict == INCONCLUSIVE


def test_certify_and_scan_refuse_what_is_not_their_type():
    # a truthy non-bool once switched refined verdicts on
    for flag in ("no", 1, None):
        with pytest.raises(InvalidInputError, match="allow_refined must be True or False"):
            certify(W3, allow_refined=flag)
        with pytest.raises(InvalidInputError, match="require_refined must be True or False"):
            ScanConfig(max_a3=12, require_refined=flag)
    for weights in ((9, 15, 17, 20), None, "W3"):
        for check in (certify, fletcher_check):
            with pytest.raises(InvalidInputError, match="expected a WeightSystem"):
                check(weights)
    for config in (None, 12, {"max_a3": 12}):
        with pytest.raises(InvalidInputError, match="expected a ScanConfig"):
            scan(config)


@pytest.mark.parametrize("check", [
    fano.rho, fano.rho_refined, fano.anticanonical_data, fano.curve_bound_check,
    fano.weighted_monomials,
])
def test_weight_system_arithmetic_refuses_a_tuple(check):
    # each once ended in AttributeError on the tuple's missing fields
    with pytest.raises(InvalidInputError, match="expected a WeightSystem, got tuple"):
        check((9, 15, 17, 20))


def test_refined_inequality_alone_is_not_enough():
    # both pass the refined inequality arithmetically, neither has a
    # recorded curve verification, so neither is certified
    for a, d in (((11, 29, 39, 49), 127), ((9, 15, 23, 23), 69)):
        cert = certify(WeightSystem(a, d))
        assert cert.rho > 1
        assert cert.rho_refined < 1
        assert cert.curve_check_recorded is False
        assert cert.verdict == INCONCLUSIVE


def test_certificate_json():
    blob = certify(W1).to_json_dict()
    assert blob["weights"] == [11, 49, 69, 128]
    assert blob["degree"] == 256
    assert blob["k"] == 257
    assert blob["fano_index"] == 1
    assert blob["rho"] == "472/539"
    assert blob["rho_float"] == 0.875696
    assert blob["verdict"] == "KE_CERTIFIED"
    assert json.loads(certify(W1).to_json()) == blob
    not_fano = certify(WeightSystem((1, 1, 1, 1), 4)).to_json_dict()
    assert not_fano["rho"] is None
    assert not_fano["rho_float"] is None


def _pinned_systems():
    """Every a0 <= a1 <= a2 <= a3 <= 12 at d = k - idx, idx in (-2, 0, 1, 2, 3),
    d >= 1, then the three named systems."""
    for a in itertools.combinations_with_replacement(range(1, 13), 4):
        for idx in (-2, 0, 1, 2, 3):
            if sum(a) - idx >= 1:
                yield WeightSystem(a, sum(a) - idx)
    yield from (W3, W1, W2)


def test_certificate_bytes_are_pinned():
    # digest of the certificates as first recorded; any change to a
    # witness, verdict or field of these 6828 systems changes it
    lines = [certify(w).to_json() for w in _pinned_systems()]
    assert len(lines) == 6828
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "f9e575e3678c6885988ea4bae4c6f732091b5710a37b2a4cdf1f8ef00f0f5d1e"


fano_systems = (
    st.lists(st.integers(1, 30), min_size=4, max_size=4)
    .map(lambda a: tuple(sorted(a)))
    .flatmap(lambda a: st.builds(WeightSystem, st.just(a), st.integers(1, sum(a) - 1)))
)


@given(fano_systems)
def test_line_condition_and_cond_iv_read_cond_ii_pair_witnesses(w):
    monos = weighted_monomials(w)
    cert = certify(w)
    assert cert.line_condition_ok == any(m[0] == m[1] == 0 for m in monos)
    for (j, k), m in cert.fletcher.cond_iv.items():
        on_pair = [x for x in monos if all(x[i] == 0 for i in range(4) if i not in (j, k))]
        # the first monomial supported on the pair, and cond (ii)'s 1-tuple
        assert m == (on_pair[0] if on_pair else None)
        if m is not None:
            assert cert.fletcher.cond_ii[(j, k)] == (m,)


# ---------------------------------------------------------------------------
# box scan


def brute_scan(config):
    found = []
    for a in itertools.combinations_with_replacement(
        range(1, config.max_a3 + 1), 4
    ):
        if a[0] < config.min_a0:
            continue
        d = sum(a) - config.fano_index
        if d < 1:
            continue
        cert = certify(WeightSystem(a, d), allow_refined=config.require_refined)
        if cert.fletcher.passes:
            found.append(cert)
    found.sort(key=lambda c: (c.rho, c.weights.a))
    return found


def test_scan_matches_brute_force():
    # index >= 2 exercises the candidates whose a3 is left free
    for index in (1, 2, 3):
        config = ScanConfig(max_a3=12, fano_index=index)
        report = scan(config)
        expected = brute_scan(config)
        assert report.examined == math.comb(15, 4)  # nondecreasing 4-tuples from 1..12
        if index == 1:
            assert len(expected) == 11
        assert len(report.entries) == len(expected)
        assert [c.weights for c in report.entries] == [c.weights for c in expected]
        assert [c.verdict for c in report.entries] == [c.verdict for c in expected]
        assert report.prefilter_survivors >= len(report.entries)
        assert report.prefilter_survivors <= report.examined


def _x3_cond_i(a, index):
    """Pure-Python cond (i) for x3: x3^m or x3^m x_k (m >= 1) has degree d."""
    d = sum(a) - index
    return any(t >= a[3] and t % a[3] == 0 for t in (d, d - a[0], d - a[1], d - a[2]))


def _x3_monomials(a, index):
    """The cond (i) monomials for x3 of degree d, as text: x3^m or x3^m x_k."""
    d = sum(a) - index
    found = []
    for k, t in ((None, d), (0, d - a[0]), (1, d - a[1]), (2, d - a[2])):
        if t >= a[3] and t % a[3] == 0:
            m = t // a[3]
            found.append(("x3" if m == 1 else f"x3^{m}") + ("" if k is None else f" x{k}"))
    return found


def test_box_arrays_is_the_x3_cond_i_slice_of_the_box():
    seen = collections.Counter()
    for max_a3, min_a0, index in itertools.product(
        (12, 24), (1, 2, 3, 5), (*range(1, 8), 12, 40)
    ):
        config = ScanConfig(max_a3=max_a3, fano_index=index, min_a0=min_a0)
        counts = collections.Counter(zip(*(col.tolist() for col in fano._box_arrays(config))))
        rows = set(counts)
        expected = {
            a
            for a in itertools.combinations_with_replacement(range(min_a0, max_a3 + 1), 4)
            if _x3_cond_i(a, index)
        }
        assert rows == expected, (max_a3, min_a0, index)
        # one row per monomial, so every run gives the rows of its monomial
        for a in expected:
            monomials = _x3_monomials(a, index)
            assert counts[a] == len(monomials), (a, index, monomials)
            seen.update(monomials)
    # the six runs: x3^2, x3^3, x3^2 x_k for each k, and m = 1 from all four
    # of its sources (a2 = -e, index - a1, index - a0, and e = 0)
    assert set(seen) == {
        "x3^2", "x3^3", "x3^2 x0", "x3^2 x1", "x3^2 x2", "x3", "x3 x0", "x3 x1", "x3 x2"
    }, seen
    # index 2 with a0 = a1 = 1: x3^1 has degree d = a3 for every a2 <= a3
    rows = set(zip(*(col.tolist() for col in fano._box_arrays(ScanConfig(max_a3=24, fano_index=2)))))
    free = {(1, 1, a2, a3) for a2 in range(1, 25) for a3 in range(a2, 25)}
    assert free <= rows


def test_monomial_step_bound_covers_the_enumeration():
    rng = random.Random(7)
    for _ in range(300):
        a = tuple(sorted(rng.randint(1, 9) for _ in range(4)))
        d = rng.randint(1, 60)
        steps = sum(
            1
            for e0 in range(d // a[0] + 1)
            for e1 in range((d - e0 * a[0]) // a[1] + 1)
            for e2 in range((d - e0 * a[0] - e1 * a[1]) // a[2] + 1)
        )
        assert 6 * a[0] * a[1] * a[2] * steps <= (d + a[0] + a[1] + a[2]) ** 3, (a, d)


def test_every_system_of_an_accepted_box_is_within_the_monomial_budget():
    # d = k - index grows with a3 and shrinks with the index, so the
    # costliest system of a box has a3 = max_a3 and index 1
    for min_a0 in (1, 2, 3):
        max_a3 = min_a0
        while math.comb(max_a3 + 1 - min_a0 + 4, 4) <= fano.MAX_BOX_SYSTEMS:
            max_a3 += 1
        ScanConfig(max_a3=max_a3, min_a0=min_a0)
        worst = 0
        for a0 in range(min_a0, max_a3 + 1):
            _, a1, a2 = fano._extend(
                fano._extend([np.array([a0], dtype=np.int32)], max_a3), max_a3
            )
            a1, a2 = a1.astype(np.int64), a2.astype(np.int64)
            s = a0 + a1 + a2
            d = s + max_a3 - 1
            worst = max(worst, int(((d + s) ** 3 // (6 * a0 * a1 * a2)).max()))
        assert worst <= fano._MAX_MONOMIAL_STEPS, min_a0
    # the costliest of all, at the largest a0 >= 1 box
    assert math.comb(261 - 1 + 4, 4) <= fano.MAX_BOX_SYSTEMS < math.comb(262 - 1 + 4, 4)
    assert certify(WeightSystem((1, 1, 1, 261), 263)).monomial_count == 34986
    with pytest.raises(InvalidInputError, match="enumeration steps"):
        weighted_monomials(WeightSystem((1, 1, 1, 1), 1000))


def test_box_arrays_enumerates_a_small_part_of_the_box():
    config = ScanConfig(max_a3=128, min_a0=3)
    rows = fano._box_arrays(config)[0].size
    assert config.box_systems == math.comb(129, 4)
    assert rows < math.comb(129, 4) // 10


def test_prefilter_does_not_depend_on_the_block_size(monkeypatch):
    config = ScanConfig(max_a3=40, fano_index=2)
    whole = fano._prefilter(config)
    assert fano._a0_blocks(config) == [(1, 40)]
    monkeypatch.setattr(fano, "_BLOCK_TRIPLES", 100)
    blocks = fano._a0_blocks(config)
    assert len(blocks) > 10
    assert [lo for lo, _ in blocks] == [1] + [hi + 1 for _, hi in blocks[:-1]]
    assert blocks[-1][1] == 40
    split = fano._prefilter(config)
    assert whole == split


def test_a0_blocks_cover_the_a0_range_in_runs_of_at_most_block_triples(monkeypatch):
    def check():
        blocks = fano._a0_blocks(config)
        assert blocks[0][0] == min_a0 and blocks[-1][1] == max_a3
        assert [lo for lo, _ in blocks[1:]] == [hi + 1 for _, hi in blocks[:-1]]
        for lo, hi in blocks:
            assert lo <= hi
            triples = sum(math.comb(max_a3 - a0 + 2, 2) for a0 in range(lo, hi + 1))
            assert lo == hi or triples <= fano._BLOCK_TRIPLES, (max_a3, min_a0, lo, hi)

    for max_a3 in (*range(1, 40), 64, 100, 127, 128, 200, 256, 261):
        for min_a0 in {1, 2, 3, max_a3 // 2 or 1, max_a3}:
            if min_a0 <= max_a3:
                config = ScanConfig(max_a3=max_a3, min_a0=min_a0)
                check()
                with monkeypatch.context() as m:
                    m.setattr(fano, "_BLOCK_TRIPLES", 100)
                    check()


def test_prefilter_is_cond_i_ii_iv_and_triple_coprimality_on_the_box_arrays():
    for max_a3, min_a0, index in itertools.product((12, 24), (1, 2, 3), range(1, 6)):
        config = ScanConfig(max_a3=max_a3, fano_index=index, min_a0=min_a0)
        expected = []
        for a in sorted(set(zip(*(col.tolist() for col in fano._box_arrays(config))))):
            d = sum(a) - index  # >= 1 on every row of _box_arrays
            report = fletcher_check(WeightSystem(a, d))
            if (
                report.cond_i_ok
                and report.cond_ii_ok
                and report.cond_iv_ok
                and report.triple_coprime
            ):
                expected.append((a, d))
        assert fano._prefilter(config) == expected, (max_a3, min_a0, index)


def test_representable_matches_brute_force():
    for a in range(1, 41):
        for b in range(1, 41):
            sums = {m * a + p * b for m in range(301 // a + 1) for p in range(301 // b + 1)}
            for t in range(-5, 301):
                assert fano._representable(t, a, b) == (t in sums), (t, a, b)


def test_scan_prefilter_survivor_goldens():
    # measured with the full-box prefilter the enumerator replaced
    for max_a3, min_a0, index, survivors in (
        (20, 1, 2, 281),
        (40, 1, 1, 25),
        (64, 1, 3, 613),
        (128, 3, 1, 15),
        (256, 1, 1, 85),
    ):
        config = ScanConfig(max_a3=max_a3, fano_index=index, min_a0=min_a0)
        report = scan(config)
        assert report.prefilter_survivors == survivors, (max_a3, min_a0, index)
        assert report.examined == math.comb(max_a3 - min_a0 + 4, 4)


def test_scan_entry_properties():
    report = scan(ScanConfig(max_a3=12, fano_index=1))
    rhos = [c.rho for c in report.entries]
    assert rhos == sorted(rhos)
    for cert in report.entries:
        w = cert.weights
        assert cert.fletcher.passes
        assert w.a[0] <= w.a[1] <= w.a[2] <= w.a[3] <= 12
        assert w.d == w.k - 1
        assert all(
            math.gcd(math.gcd(w.a[i], w.a[j]), w.a[l]) == 1
            for i, j, l in itertools.combinations(range(4), 3)
        )


def test_scan_min_a0_filter():
    report = scan(ScanConfig(max_a3=12, fano_index=1, min_a0=2))
    assert report.entries
    assert all(c.weights.a[0] >= 2 for c in report.entries)


def test_scan_refined_toggle():
    base = scan(ScanConfig(max_a3=20, fano_index=1, min_a0=3))
    refined = scan(ScanConfig(max_a3=20, fano_index=1, min_a0=3, require_refined=True))
    assert [c.weights for c in base.entries] == [c.weights for c in refined.entries]
    assert base.certified == () and base.certified_refined == ()
    assert [c.weights.a for c in refined.certified_refined] == [(9, 15, 17, 20)]
    # only the registered system flips; everything else is untouched
    flips = [
        (b.weights.a, b.verdict, r.verdict)
        for b, r in zip(base.entries, refined.entries)
        if b.verdict != r.verdict
    ]
    assert flips == [((9, 15, 17, 20), INCONCLUSIVE, KE_CERTIFIED_REFINED)]


def test_scan_empty_box():
    # index 5 forces d = k - 5 <= -1 everywhere in a max_a3=1 box
    report = scan(ScanConfig(max_a3=1, fano_index=5))
    assert report.entries == ()
    assert report.max_a0 is None
    assert report.certified == ()


# Reid's 95 weight systems (a0, a1, a2, a3, d) of quasi-smooth K3 surfaces
# X_d in P(a0, a1, a2, a3) with d = a0 + a1 + a2 + a3, in degree order, as
# listed by Iano-Fletcher, "Working with weighted complete intersections"
# (2000), after Reid, "Canonical 3-folds" (1980)
REID_95 = [
    (1, 1, 1, 1, 4), (1, 1, 1, 2, 5), (1, 1, 1, 3, 6), (1, 1, 2, 2, 6), (1, 1, 2, 3, 7),
    (1, 1, 2, 4, 8), (1, 2, 2, 3, 8), (1, 1, 3, 4, 9), (1, 2, 3, 3, 9), (1, 1, 3, 5, 10),
    (1, 2, 2, 5, 10), (1, 2, 3, 4, 10), (1, 2, 3, 5, 11), (1, 1, 4, 6, 12), (1, 2, 3, 6, 12),
    (1, 2, 4, 5, 12), (1, 3, 4, 4, 12), (2, 2, 3, 5, 12), (2, 3, 3, 4, 12), (1, 3, 4, 5, 13),
    (1, 2, 4, 7, 14), (2, 2, 3, 7, 14), (2, 3, 4, 5, 14), (1, 2, 5, 7, 15), (1, 3, 4, 7, 15),
    (1, 3, 5, 6, 15), (2, 3, 5, 5, 15), (3, 3, 4, 5, 15), (1, 2, 5, 8, 16), (1, 3, 4, 8, 16),
    (1, 4, 5, 6, 16), (2, 3, 4, 7, 16), (2, 3, 5, 7, 17), (1, 2, 6, 9, 18), (1, 3, 5, 9, 18),
    (1, 4, 6, 7, 18), (2, 3, 4, 9, 18), (2, 3, 5, 8, 18), (3, 4, 5, 6, 18), (3, 4, 5, 7, 19),
    (1, 4, 5, 10, 20), (2, 3, 5, 10, 20), (2, 4, 5, 9, 20), (2, 5, 6, 7, 20), (3, 4, 5, 8, 20),
    (1, 3, 7, 10, 21), (1, 5, 7, 8, 21), (2, 3, 7, 9, 21), (3, 5, 6, 7, 21), (1, 3, 7, 11, 22),
    (1, 4, 6, 11, 22), (2, 4, 5, 11, 22), (1, 3, 8, 12, 24), (1, 6, 8, 9, 24),
    (2, 3, 7, 12, 24), (2, 3, 8, 11, 24), (3, 4, 5, 12, 24), (3, 4, 7, 10, 24),
    (3, 6, 7, 8, 24), (4, 5, 6, 9, 24), (4, 5, 7, 9, 25), (1, 5, 7, 13, 26), (2, 3, 8, 13, 26),
    (2, 5, 6, 13, 26), (2, 5, 9, 11, 27), (5, 6, 7, 9, 27), (1, 4, 9, 14, 28),
    (3, 4, 7, 14, 28), (4, 6, 7, 11, 28), (1, 4, 10, 15, 30), (1, 6, 8, 15, 30),
    (2, 3, 10, 15, 30), (2, 6, 7, 15, 30), (3, 4, 10, 13, 30), (4, 5, 6, 15, 30),
    (5, 6, 8, 11, 30), (2, 5, 9, 16, 32), (4, 5, 7, 16, 32), (3, 5, 11, 14, 33),
    (3, 4, 10, 17, 34), (4, 6, 7, 17, 34), (1, 5, 12, 18, 36), (3, 4, 11, 18, 36),
    (7, 8, 9, 12, 36), (3, 5, 11, 19, 38), (5, 6, 8, 19, 38), (5, 7, 8, 20, 40),
    (1, 6, 14, 21, 42), (2, 5, 14, 21, 42), (3, 4, 14, 21, 42), (4, 5, 13, 22, 44),
    (3, 5, 16, 24, 48), (7, 8, 10, 25, 50), (4, 5, 18, 27, 54), (5, 6, 22, 33, 66),
]


def _cond_i_everywhere(a, d):
    """Pure-Python cond (i): per variable j, x_j^m or x_j^m x_k has degree d."""
    return all(
        any(t >= a[j] and t % a[j] == 0 for t in [d] + [d - a[k] for k in range(4) if k != j])
        for j in range(4)
    )


def test_reid_95_is_the_index_0_brute_force_of_the_a3_le_40_box():
    assert len(REID_95) == len(set(REID_95)) == 95
    assert max(a3 for _, _, _, a3, _ in REID_95) == 33
    assert all(d == a0 + a1 + a2 + a3 for a0, a1, a2, a3, d in REID_95)
    assert {(1, 1, 1, 1, 4), (1, 1, 1, 2, 5), (1, 1, 2, 2, 6), (5, 6, 22, 33, 66)} <= set(REID_95)
    # cond (i) is necessary for Fletcher's conditions and cheap in pure
    # Python; fletcher_check, over the whole monomial list, decides the rest
    found = [
        (*a, sum(a))
        for a in itertools.combinations_with_replacement(range(1, 41), 4)
        if _cond_i_everywhere(a, sum(a)) and fletcher_check(WeightSystem(a, sum(a))).passes
    ]
    assert sorted(found, key=lambda row: (row[4], row)) == REID_95


def test_scan_config_validation():
    for kwargs in (
        dict(max_a3=0),
        dict(max_a3=True),
        dict(max_a3=5, fano_index=0),
        dict(max_a3=5, min_a0=0),
        dict(max_a3=5, min_a0=7),
    ):
        with pytest.raises(InvalidInputError):
            ScanConfig(**kwargs)


def test_scan_config_rejects_boxes_over_the_budget():
    # the box holds C(max_a3 - min_a0 + 4, 4) systems; the whole a3 <= 256
    # box still fits, and a3 <= 262 is the first full box that does not
    ScanConfig(max_a3=256)
    ScanConfig(max_a3=261)
    with pytest.raises(InvalidInputError, match="at most"):
        ScanConfig(max_a3=262)
    with pytest.raises(InvalidInputError, match="2896986240"):
        ScanConfig(max_a3=512)
    # the budget counts the box, so raising a0 brings a large a3 back in
    ScanConfig(max_a3=512, min_a0=300)


def test_scan_config_keeps_degrees_within_int32():
    top = fano.MAX_SCAN_WEIGHT
    assert top == 536870911 and 4 * top <= 2**31 - 1 < 4 * (top + 1)
    ScanConfig(max_a3=top, min_a0=top)
    for max_a3 in (top + 1, 3 * 10**9):
        with pytest.raises(InvalidInputError, match=f"^max_a3={max_a3} is above {top}"):
            ScanConfig(max_a3=max_a3, min_a0=max_a3)
    # the box size is checked first, so a box too large to print says so
    with pytest.raises(InvalidInputError, match="too long to print"):
        ScanConfig(max_a3=10**1200)


def test_scan_csv():
    report = scan(ScanConfig(max_a3=12, fano_index=1))
    lines = report.to_csv().splitlines()
    assert lines[0] == "a0,a1,a2,a3,d,fletcher,rho_num,rho_den,rho_float,verdict"
    assert len(lines) == 1 + len(report.entries)
    first = lines[1].split(",")
    assert first[:5] == ["3", "3", "5", "5", "15"]
    assert first[5] == "pass"
    assert Fraction(int(first[6]), int(first[7])) == Fraction(32, 9)
    assert first[8] == f"{32 / 9:.6f}"
    assert report.to_csv().endswith("\n")
